//! End-to-end tests: a real [`Server`] on an ephemeral port, driven over
//! TCP with the crate's own HTTP client helpers.
//!
//! These pin the ISSUE-4 acceptance behaviors: `POST /solve` answers
//! with `SolveReport` JSON byte-identical to the in-process engine for
//! both game representations, resubmission is a cache hit visible in
//! `GET /metrics`, and batches work — plus the reactor-era contracts:
//! the bounded pending-solve queue answers `429` + `Retry-After` under
//! overflow, the connection cap answers `503`, and cache hits are served
//! on the reactor thread even while every solver is busy.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bi_core::solve::{Solver, SolverConfig};
use bi_service::http::{read_response, write_request, write_request_with, ClientResponse};
use bi_service::workload::{matrix_game, mixed_workload, ncs_game};
use bi_service::{
    BatchRequest, GameSpec, Server, ServerConfig, ServerHandle, SolveRequest, SpanEvent, Stage,
};
use bi_util::{Encode, Json};

fn start_server() -> ServerHandle {
    let server = Server::bind(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    server.start().expect("start server")
}

/// Connects with a 10 s read timeout, so a server that stops answering
/// fails the test instead of hanging it.
fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
}

/// One request over a fresh connection.
fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> ClientResponse {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request(&mut writer, method, path, body, false).expect("write request");
    read_response(&mut reader).expect("read response")
}

fn solve_body(game: &GameSpec) -> Vec<u8> {
    SolveRequest {
        game: game.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes()
}

#[test]
fn solve_answers_match_the_in_process_engine_for_both_representations() {
    let handle = start_server();
    for game in [matrix_game(11), ncs_game(12)] {
        let response = call(handle.addr(), "POST", "/solve", &solve_body(&game));
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-cache"), Some("miss"));
        let direct = match &game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        };
        assert_eq!(
            response.body,
            direct.canonical_bytes(),
            "wire report must be byte-identical to the in-process report"
        );
    }
    handle.stop();
}

#[test]
fn a_legacy_symmetry_field_gets_the_canonical_report_bytes() {
    // Clients of the retired `off`/`auto` symmetry knob still send the
    // field; it is ignored, so the answer is the canonical body's, and
    // the second request is a hit on the first one's entry.
    let handle = start_server();
    let game = matrix_game(13);
    let canonical = solve_body(&game);
    let text = String::from_utf8(canonical.clone()).unwrap();
    let legacy = text.replacen(r#""config":{"#, r#""config":{"symmetry":"auto","#, 1);
    assert_ne!(legacy, text, "the canonical body carries a config object");
    let first = call(handle.addr(), "POST", "/solve", legacy.as_bytes());
    let second = call(handle.addr(), "POST", "/solve", &canonical);
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    let GameSpec::Matrix(g) = &game else {
        unreachable!("matrix_game builds a matrix game")
    };
    assert_eq!(
        first.body,
        Solver::default().solve(g).unwrap().canonical_bytes()
    );
    handle.stop();
}

#[test]
fn resubmission_is_a_cache_hit_visible_in_metrics() {
    let handle = start_server();
    let body = solve_body(&matrix_game(21));
    let cold = call(handle.addr(), "POST", "/solve", &body);
    let warm = call(handle.addr(), "POST", "/solve", &body);
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body);

    let metrics = call(handle.addr(), "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    // The resubmitted body is canonical and byte-identical, so the warm
    // request is answered off the raw-byte index: it never touches the
    // primary cache, whose stats show only the cold miss. The hit is
    // counted where it was served: in the raw index's own section.
    let cache = doc.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(0));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
    let raw_index = doc.get("raw_index").expect("raw_index section");
    assert_eq!(raw_index.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(raw_index.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(raw_index.get("insertions").unwrap().as_u64(), Some(1));
    let reactor = doc.get("reactor").expect("reactor section");
    assert_eq!(reactor.get("zero_copy_hits").unwrap().as_u64(), Some(1));
    assert_eq!(reactor.get("parsed_hits").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("solve_requests").unwrap().as_u64(), Some(2));
    handle.stop();
}

#[test]
fn healthz_and_unknown_endpoints() {
    let handle = start_server();
    let health = call(handle.addr(), "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, br#"{"status":"ok"}"#);
    assert_eq!(call(handle.addr(), "GET", "/nope", b"").status, 404);
    assert_eq!(call(handle.addr(), "DELETE", "/solve", b"").status, 405);
    handle.stop();
}

#[test]
fn batches_share_the_cache_with_single_solves() {
    let handle = start_server();
    let games = mixed_workload(31, 4);
    // Warm one game through /solve.
    let warm = call(handle.addr(), "POST", "/solve", &solve_body(&games[0]));
    assert_eq!(warm.status, 200);
    let zero_copy_hits = || {
        handle
            .service()
            .metrics()
            .zero_copy_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let batch = BatchRequest {
        games: games.clone(),
        config: SolverConfig::default(),
    };
    let response = call(
        handle.addr(),
        "POST",
        "/solve_batch",
        &batch.canonical_bytes(),
    );
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache-hits"), Some("1"));
    assert_eq!(response.header("x-cache-misses"), Some("3"));
    // The warm game was served off the raw index, as its `/solve` is.
    assert_eq!(zero_copy_hits(), 1);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    let reports = doc.get("reports").unwrap().as_arr().unwrap();
    assert_eq!(reports.len(), 4);
    for (game, entry) in games.iter().zip(reports) {
        let direct = match game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        };
        let report = entry.get("report").expect("successful report");
        assert_eq!(
            report.canonical_string(),
            direct.encode().canonical_string()
        );
    }
    // Each game the batch solved entered the raw index under its
    // canonical `/solve` body, so sent alone it is a zero-copy hit.
    for (i, game) in games.iter().enumerate().skip(1) {
        let alone = call(handle.addr(), "POST", "/solve", &solve_body(game));
        assert_eq!(alone.header("x-cache"), Some("hit"), "game {i}");
        assert_eq!(zero_copy_hits(), 1 + i as u64, "game {i}");
    }
    handle.stop();
}

#[test]
fn malformed_and_unsolvable_requests_map_to_4xx() {
    let handle = start_server();
    assert_eq!(call(handle.addr(), "POST", "/solve", b"{oops").status, 400);
    assert_eq!(
        call(
            handle.addr(),
            "POST",
            "/solve",
            br#"{"game":{"kind":"cubic"}}"#
        )
        .status,
        400
    );
    // Well-formed but over budget: a semantic 422.
    let game = matrix_game(41);
    let request = SolveRequest {
        game,
        config: SolverConfig {
            budget: bi_core::solve::Budget {
                max_profiles: 1,
                max_iterations: 8,
            },
            ..SolverConfig::default()
        },
    };
    let response = call(handle.addr(), "POST", "/solve", &request.canonical_bytes());
    assert_eq!(response.status, 422);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert!(doc
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("budget"));
    handle.stop();
}

/// A cold solve heavy enough that a burst of them keeps a single solver
/// busy for many milliseconds even in release builds — the window the
/// backpressure tests rely on. Three agents with 125 strategies each: the
/// sweep eliminates one agent and still visits 15,625 outer profiles
/// (~13 ms in release on a 2-vCPU host).
fn heavy_body(seed: u64) -> Vec<u8> {
    let (game, _) =
        bi_core::random_games::random_bayesian_potential_game(&[3; 3], &[5; 3], 12, seed);
    solve_body(&GameSpec::Matrix(game))
}

#[test]
fn overflowing_the_solver_queue_answers_429() {
    // One solver, a pending queue of one: a burst of distinct cold
    // solves can park at most two (one solving, one queued) before the
    // reactor starts answering 429 + Retry-After. No timing assumptions:
    // the burst is written before the first heavy solve can finish.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();
    const BURST: u64 = 6;
    let bodies: Vec<Vec<u8>> = (0..BURST).map(heavy_body).collect();
    let mut conns = Vec::new();
    for body in &bodies {
        let stream = connect(addr);
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        write_request(&mut writer, "POST", "/solve", body, false).expect("write");
        conns.push((reader, writer));
    }
    let (mut solved, mut rejected) = (0u64, 0u64);
    for (mut reader, _writer) in conns {
        let response = read_response(&mut reader).expect("read");
        match response.status {
            200 => solved += 1,
            429 => {
                rejected += 1;
                assert_eq!(
                    response.header("retry-after"),
                    Some("1"),
                    "backpressure must tell the client when to come back"
                );
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(solved >= 1, "the pool must still solve what it accepted");
    assert!(
        rejected >= 1,
        "a 6-deep burst into worker=1/queue=1 must overflow"
    );
    assert_eq!(solved + rejected, BURST);
    let metrics = handle.service().metrics_json();
    let reactor = metrics.get("reactor").expect("reactor section");
    assert_eq!(
        reactor.get("backpressure_429").unwrap().as_u64(),
        Some(rejected)
    );
    handle.stop();
}

#[test]
fn cache_hits_are_served_while_the_solver_pool_is_busy() {
    // The hot-path tail-latency fix: with the single solver occupied by
    // a cold solve, a cache hit must be answered by the reactor thread
    // immediately instead of queueing behind the solve.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();
    let light = solve_body(&matrix_game(61));
    assert_eq!(call(addr, "POST", "/solve", &light).status, 200); // warm
                                                                  // Occupy the solver with a heavy cold request (response not read yet).
    let heavy_stream = connect(addr);
    let mut heavy_reader = BufReader::new(heavy_stream.try_clone().expect("clone"));
    let mut heavy_writer = heavy_stream;
    let started = Instant::now();
    write_request(&mut heavy_writer, "POST", "/solve", &heavy_body(100), false).expect("write");
    // The warmed request must come back before the heavy solve does.
    let hit = call(addr, "POST", "/solve", &light);
    let hit_latency = started.elapsed();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("hit"));
    let heavy = read_response(&mut heavy_reader).expect("read heavy");
    let heavy_latency = started.elapsed();
    assert_eq!(heavy.status, 200);
    assert!(
        hit_latency < heavy_latency,
        "the hit ({hit_latency:?}) must not wait for the cold solve ({heavy_latency:?})"
    );
    handle.stop();
}

#[test]
fn connections_beyond_the_cap_answer_503() {
    let server = Server::bind(ServerConfig {
        max_connections: 2,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();
    // Two registered keep-alive connections (a served request proves
    // each is registered, not just sitting in the accept backlog).
    let mut held = Vec::new();
    for _ in 0..2 {
        let stream = connect(addr);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        write_request(&mut writer, "GET", "/healthz", b"", true).expect("write");
        assert_eq!(read_response(&mut reader).expect("read").status, 200);
        held.push((reader, writer));
    }
    let rejected = call(addr, "GET", "/healthz", b"");
    assert_eq!(rejected.status, 503, "third connection must be rejected");
    let doc = Json::parse(std::str::from_utf8(&rejected.body).unwrap()).unwrap();
    assert!(doc
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("connection limit"));
    drop(held);
    handle.stop();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let handle = start_server();
    let stream = connect(handle.addr());
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let body = solve_body(&matrix_game(51));
    for i in 0..3 {
        write_request(&mut writer, "POST", "/solve", &body, true).expect("write");
        let response = read_response(&mut reader).expect("read");
        assert_eq!(response.status, 200);
        let expected = if i == 0 { "miss" } else { "hit" };
        assert_eq!(response.header("x-cache"), Some(expected), "request {i}");
    }
    drop(writer);
    handle.stop();
}

#[test]
fn debug_trace_adopts_the_injected_id_and_nests_stages_under_the_root() {
    let handle = start_server();
    let body = solve_body(&matrix_game(61));
    let trace_id = 0xabad_1dea_c0ff_ee00u64;
    let stream = connect(handle.addr());
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request_with(
        &mut writer,
        "POST",
        "/solve",
        &body,
        false,
        &[("X-Bi-Trace", trace_id.to_string())],
    )
    .expect("write");
    let response = read_response(&mut reader).expect("read");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache"), Some("miss"));

    let dump = call(handle.addr(), "GET", "/debug/trace", b"");
    assert_eq!(dump.status, 200);
    let doc = Json::parse(std::str::from_utf8(&dump.body).unwrap()).unwrap();
    let spans: Vec<SpanEvent> = doc
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter_map(SpanEvent::from_json)
        .filter(|span| span.trace_id == trace_id)
        .collect();
    let root = spans
        .iter()
        .find(|span| span.stage == Stage::Request)
        .expect("request root span for the injected id");
    assert_eq!(root.parent, 0, "no X-Bi-Parent was sent");
    for stage in [
        Stage::Parse,
        Stage::Cache,
        Stage::Solve,
        Stage::Encode,
        Stage::Write,
    ] {
        let span = spans
            .iter()
            .find(|span| span.stage == stage)
            .unwrap_or_else(|| panic!("missing {} span", stage.name()));
        assert_eq!(
            span.parent,
            root.span_id,
            "{} must nest under the request root",
            stage.name()
        );
        assert!(span.t_end_ns >= span.t_start_ns);
    }
    handle.stop();
}

#[test]
fn a_zero_trace_header_gets_a_fresh_trace() {
    // Trace 0 means "untraced" to the recorder: a request carrying it
    // must be traced under a freshly minted id, with its full tree.
    let handle = start_server();
    let body = solve_body(&matrix_game(63));
    let stream = connect(handle.addr());
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request_with(
        &mut writer,
        "POST",
        "/solve",
        &body,
        false,
        &[("X-Bi-Trace", "0".to_string())],
    )
    .expect("write");
    assert_eq!(read_response(&mut reader).expect("read").status, 200);

    let dump = call(handle.addr(), "GET", "/debug/trace", b"");
    let doc = Json::parse(std::str::from_utf8(&dump.body).unwrap()).unwrap();
    let spans: Vec<SpanEvent> = doc
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter_map(SpanEvent::from_json)
        .collect();
    assert!(
        spans.iter().all(|span| span.trace_id != 0),
        "no span may be recorded under trace 0"
    );
    // The server's only solve belongs to the request sent with trace 0.
    let solve = spans
        .iter()
        .find(|span| span.stage == Stage::Solve)
        .expect("the cold solve was traced");
    for stage in [Stage::Request, Stage::Cache, Stage::Encode] {
        assert!(
            spans
                .iter()
                .any(|span| span.trace_id == solve.trace_id && span.stage == stage),
            "the fresh trace is missing its {} span",
            stage.name()
        );
    }
    handle.stop();
}

#[test]
fn metrics_stage_histograms_move_with_traffic() {
    let handle = start_server();
    let body = solve_body(&matrix_game(62));
    assert_eq!(call(handle.addr(), "POST", "/solve", &body).status, 200);
    assert_eq!(call(handle.addr(), "POST", "/solve", &body).status, 200);
    let metrics = call(handle.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let stages = doc.get("stages").expect("stages section");
    for stage in Stage::ALL {
        let hist = stages
            .get(stage.name())
            .unwrap_or_else(|| panic!("stage {} missing from /metrics", stage.name()));
        assert!(
            hist.get("count").is_some() && hist.get("p50").is_some(),
            "stage {} must expose a histogram snapshot",
            stage.name()
        );
    }
    let count = |name: &str| {
        stages
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stage {name} count"))
    };
    // Two solves hit the request/cache/write stages; only the cold one
    // crossed the solver. The parse count includes the `/metrics`
    // request itself: its head is parsed (and recorded) before the
    // document is built, while its request/write stages close only
    // after the response flushes.
    assert_eq!(count("request"), 2);
    assert_eq!(count("parse"), 3);
    assert_eq!(count("cache"), 2);
    assert_eq!(count("write"), 2);
    assert_eq!(count("solve"), 1);
    assert!(count("route") == 0 && count("upstream") == 0);
    handle.stop();
}

#[test]
fn a_solved_key_put_twice_is_written_to_disk_once() {
    let path = std::env::temp_dir().join(format!("bi-e2e-write-once-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = Server::bind(ServerConfig {
        workers: 1,
        disk_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
    .start()
    .expect("start server");
    let body = solve_body(&matrix_game(71));
    let solved = call(handle.addr(), "POST", "/solve", &body);
    assert_eq!(solved.status, 200);
    assert_eq!(solved.header("x-cache"), Some("miss"));
    // A router's write-through and read-repair can ship the same answer
    // back to a node that already holds it.
    let mut put = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
    put.extend_from_slice(&body);
    put.extend_from_slice(&solved.body);
    for _ in 0..2 {
        assert_eq!(call(handle.addr(), "POST", "/cache_put", &put).status, 200);
    }
    handle.service().sync_disk();
    let metrics = call(handle.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    assert_eq!(doc.get("cache_puts").unwrap().as_u64(), Some(2));
    let disk = doc.get("disk").expect("disk section");
    assert_eq!(disk.get("appends").unwrap().as_u64(), Some(1));
    assert_eq!(disk.get("entries").unwrap().as_usize(), Some(1));
    assert!(disk.get("compactions").is_none() && disk.get("live_bytes").is_none());
    handle.stop();
    std::fs::remove_file(&path).unwrap();
}
