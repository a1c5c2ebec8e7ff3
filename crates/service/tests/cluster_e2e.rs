//! Cluster end-to-end tests: a real [`Router`] in front of real
//! [`Server`] backends, all on ephemeral ports, driven over TCP.
//!
//! These pin the bi-cluster acceptance behaviors: routing is
//! deterministic (same body → same backend, visible in `X-Backend`),
//! responses through the router are byte-identical to direct solves,
//! a routed batch answers byte for byte as one node does and its games
//! are failed over and written through exactly as `/solve` bodies, a
//! killed backend is ejected by its own failing traffic and its keys
//! fail over without a 5xx, every answer through seeded faulty
//! replicas equals the in-process report, the router never solves (an
//! overloaded node's `429` reaches the client as a `429`, and a dead
//! cluster answers `503`), a disk-backed server reboots
//! warm — the whole pool replayed as byte-identical cache hits — and
//! one injected `X-Bi-Trace` id stitches router and backend
//! `/debug/trace` dumps into a single parent/child span tree.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bi_core::solve::{Solver, SolverConfig};
use bi_service::http::{read_response, write_request, write_request_with, ClientResponse};
use bi_service::workload::{light_workload, mixed_workload};
use bi_service::{
    BatchRequest, FaultPlan, GameSpec, Router, RouterConfig, RouterHandle, Server, ServerConfig,
    ServerHandle, SolveRequest, SpanEvent, Stage,
};
use bi_util::{Encode, Json};

fn start_backend() -> ServerHandle {
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind backend");
    server.start().expect("start backend")
}

/// Spins up `n` backends and a router over them.
fn start_cluster(n: usize, config: RouterConfig) -> (Vec<ServerHandle>, RouterHandle) {
    let backends: Vec<ServerHandle> = (0..n).map(|_| start_backend()).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::bind(RouterConfig {
        backends: addrs,
        ..config
    })
    .expect("bind router");
    let handle = router.start().expect("start router");
    (backends, handle)
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

/// One `/solve` over a fresh connection carrying an `X-Bi-Trace` id.
fn call_traced(addr: std::net::SocketAddr, body: &[u8], trace_id: u64) -> ClientResponse {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request_with(
        &mut writer,
        "POST",
        "/solve",
        body,
        false,
        &[("X-Bi-Trace", trace_id.to_string())],
    )
    .expect("write request");
    read_response(&mut reader).expect("read response")
}

/// Scrapes `GET /debug/trace` and returns the spans of `trace_id`.
fn trace_spans_of(addr: std::net::SocketAddr, trace_id: u64) -> Vec<SpanEvent> {
    let response = call(addr, "GET", "/debug/trace", b"");
    assert_eq!(response.status, 200);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    doc.get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter_map(SpanEvent::from_json)
        .filter(|span| span.trace_id == trace_id)
        .collect()
}

#[test]
fn one_trace_id_stitches_router_and_backend_span_trees() {
    let (backends, router) = start_cluster(2, RouterConfig::default());
    let game = &mixed_workload(111, 1)[0];
    let body = solve_body(game);
    let trace_id = 0xfeed_f00d_0dd5_beefu64;
    let response = call_traced(router.addr(), &body, trace_id);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache"), Some("miss"));

    let router_spans = trace_spans_of(router.addr(), trace_id);
    let backend_spans: Vec<SpanEvent> = backends
        .iter()
        .flat_map(|backend| trace_spans_of(backend.addr(), trace_id))
        .collect();
    let span_of = |spans: &[SpanEvent], stage: Stage| -> SpanEvent {
        let matches: Vec<&SpanEvent> = spans.iter().filter(|s| s.stage == stage).collect();
        assert_eq!(
            matches.len(),
            1,
            "expected exactly one {} span for the trace",
            stage.name()
        );
        matches[0].clone()
    };

    // Router tree: `route` is the root (no inbound parent), with the
    // reactor's `parse` and `write`, `ring_lookup` and the forwarding
    // `upstream` hop nested under it.
    let route = span_of(&router_spans, Stage::Route);
    assert_eq!(route.parent, 0, "no X-Bi-Parent was sent");
    let upstream = span_of(&router_spans, Stage::Upstream);
    for stage in [
        Stage::Parse,
        Stage::RingLookup,
        Stage::Upstream,
        Stage::Write,
    ] {
        assert_eq!(
            span_of(&router_spans, stage).parent,
            route.span_id,
            "{} must nest under the router's route root",
            stage.name()
        );
    }

    // Backend tree: its `request` root adopted the forwarded upstream
    // span as parent, and every serving stage nests under the root. A
    // cold solve covers parse → cache (miss) → solve → encode → write.
    let request = span_of(&backend_spans, Stage::Request);
    assert_eq!(
        request.parent, upstream.span_id,
        "the backend root must nest under the router's upstream hop"
    );
    for stage in [
        Stage::Parse,
        Stage::Cache,
        Stage::Solve,
        Stage::Encode,
        Stage::Write,
    ] {
        let span = span_of(&backend_spans, stage);
        assert_eq!(
            span.parent,
            request.span_id,
            "{} must nest under the backend request root",
            stage.name()
        );
    }

    // The acceptance bar: one id, at least five named stages, spread
    // over the two dumps.
    let mut stages: Vec<&str> = router_spans
        .iter()
        .chain(&backend_spans)
        .map(|s| s.stage.name())
        .collect();
    stages.sort_unstable();
    stages.dedup();
    assert!(
        stages.len() >= 5,
        "expected >= 5 distinct stages for the trace, got {stages:?}"
    );
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn routing_is_deterministic_and_byte_identical_to_direct_solves() {
    let (backends, router) = start_cluster(3, RouterConfig::default());
    let games = mixed_workload(71, 9);
    let mut owners = std::collections::BTreeSet::new();
    for game in &games {
        let body = solve_body(game);
        let cold = call(router.addr(), "POST", "/solve", &body);
        assert_eq!(cold.status, 200);
        assert_eq!(cold.header("x-cache"), Some("miss"));
        let owner = cold.header("x-backend").expect("owner header").to_string();
        let warm = call(router.addr(), "POST", "/solve", &body);
        assert_eq!(warm.status, 200);
        assert_eq!(
            warm.header("x-cache"),
            Some("hit"),
            "the rerouted key must land on the cache it warmed"
        );
        assert_eq!(
            warm.header("x-backend"),
            Some(owner.as_str()),
            "same body must route to the same backend"
        );
        let direct = match game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        };
        assert_eq!(cold.body, direct.canonical_bytes());
        assert_eq!(warm.body, cold.body);
        owners.insert(owner);
    }
    assert!(
        owners.len() > 1,
        "nine keys across three backends must spread: got {owners:?}"
    );
    let metrics = router.metrics_json();
    let total_forwarded: u64 = metrics
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends section")
        .iter()
        .map(|b| b.get("forwarded").and_then(|v| v.as_u64()).unwrap_or(0))
        .sum();
    assert_eq!(total_forwarded, 18, "every request was forwarded upstream");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn batches_split_per_backend_and_remerge_in_request_order() {
    let (backends, router) = start_cluster(3, RouterConfig::default());
    let games = mixed_workload(81, 6);
    let body = BatchRequest {
        games: games.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let routed = call(router.addr(), "POST", "/solve_batch", &body);
    assert_eq!(routed.status, 200);

    // The same batch against one standalone server is the oracle: the
    // split/re-merge must reproduce its response byte for byte.
    let standalone = start_backend();
    let direct = call(standalone.addr(), "POST", "/solve_batch", &body);
    assert_eq!(direct.status, 200);
    assert_eq!(
        routed.body, direct.body,
        "split-and-remerge must be invisible in the response bytes"
    );
    let doc = Json::parse(std::str::from_utf8(&routed.body).unwrap()).unwrap();
    assert_eq!(doc.get("reports").unwrap().as_arr().unwrap().len(), 6);
    standalone.stop();
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn a_game_alone_and_inside_a_batch_route_to_the_same_backend() {
    let (backends, router) = start_cluster(3, RouterConfig::default());
    let games = mixed_workload(83, 9);
    // The batch solves each game on the backend its batch route picks;
    // nothing is replicated, so only that backend caches it.
    let batch = BatchRequest {
        games: games.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    assert_eq!(
        call(router.addr(), "POST", "/solve_batch", &batch).status,
        200
    );
    let mut owners = std::collections::BTreeSet::new();
    for (i, game) in games.iter().enumerate() {
        let alone = call(router.addr(), "POST", "/solve", &solve_body(game));
        assert_eq!(alone.status, 200);
        assert_eq!(
            alone.header("x-cache"),
            Some("hit"),
            "game {i} sent alone must reach the backend its batch warmed"
        );
        owners.insert(alone.header("x-backend").expect("owner").to_string());
    }
    assert!(owners.len() > 1, "nine keys must spread: got {owners:?}");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

/// The in-process answer to `game`: the canonical report bytes of the
/// default solver, the oracle every routed answer must equal.
fn oracle_bytes(game: &GameSpec) -> Vec<u8> {
    let solver = Solver::from_config(SolverConfig::default());
    match game {
        GameSpec::Matrix(g) => solver.solve(g).unwrap().canonical_bytes(),
        GameSpec::Ncs(g) => solver.solve(g).unwrap().canonical_bytes(),
    }
}

/// The `/solve_batch` body a faithful server answers for reports with
/// these bytes: `{"reports":[{"report":…},…]}`, in request order.
fn spliced_reports(reports: &[Vec<u8>]) -> String {
    let entries: Vec<String> = reports
        .iter()
        .map(|report| format!(r#"{{"report":{}}}"#, std::str::from_utf8(report).unwrap()))
        .collect();
    format!(r#"{{"reports":[{}]}}"#, entries.join(","))
}

fn batch_body(games: &[GameSpec]) -> Vec<u8> {
    BatchRequest {
        games: games.to_vec(),
        config: SolverConfig::default(),
    }
    .canonical_bytes()
}

#[test]
fn a_routed_batch_writes_every_fresh_game_through_to_its_replica() {
    let (backends, router) = start_cluster(
        3,
        RouterConfig {
            replication: 2,
            ..RouterConfig::default()
        },
    );
    let games = light_workload(141, 6);
    let routed = call(router.addr(), "POST", "/solve_batch", &batch_body(&games));
    assert_eq!(routed.status, 200);
    let replication = |key: &str| -> u64 {
        router
            .metrics_json()
            .get("replication")
            .and_then(|section| section.get(key).and_then(|v| v.as_u64()))
            .unwrap_or(0)
    };
    // Each fresh game is a miss on its primary, so its report is written
    // through to its second owner exactly once, as a `/solve` would be.
    assert!(
        poll_until(Duration::from_secs(10), || {
            replication("writes") >= games.len() as u64 && replication("repair_queue_depth") == 0
        }),
        "a routed batch must write every fresh game through: writes {}, queue {}",
        replication("writes"),
        replication("repair_queue_depth"),
    );
    assert_eq!(replication("writes"), games.len() as u64);
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn a_routed_batch_fails_over_a_stopped_backend_before_it_is_ejected() {
    // The router never ejects on its own within the test (a huge failure
    // threshold, no second probe), so every answer must come from a live
    // backend found by the failover walk.
    let (mut backends, router) = start_cluster(
        3,
        RouterConfig {
            fail_threshold: 1_000,
            probe_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        },
    );
    let games = mixed_workload(151, 6);
    // Stop the backend that owns the first game.
    let first = call(router.addr(), "POST", "/solve", &solve_body(&games[0]));
    assert_eq!(first.status, 200);
    let victim = first.header("x-backend").expect("owner").to_string();
    let index = backends
        .iter()
        .position(|b| b.addr().to_string() == victim)
        .expect("victim is a cluster backend");
    backends.remove(index).stop();

    let routed = call(router.addr(), "POST", "/solve_batch", &batch_body(&games));
    assert_eq!(routed.status, 200);
    let oracle: Vec<Vec<u8>> = games.iter().map(oracle_bytes).collect();
    assert_eq!(
        String::from_utf8_lossy(&routed.body),
        spliced_reports(&oracle),
        "every game must be answered with its report, none with an error"
    );
    let metrics = router.metrics_json();
    let victim_row = metrics
        .get("backends")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|row| row.get("addr").and_then(|v| v.as_str()) == Some(victim.as_str()))
        .expect("victim row")
        .clone();
    assert_eq!(victim_row.get("alive"), Some(&Json::Bool(true)));
    assert!(victim_row.get("upstream_errors").and_then(|v| v.as_u64()) > Some(0));
    assert_eq!(unavailable_503(&router), Some(0));
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn answers_through_faulty_replicas_equal_the_in_process_reports() {
    // chaos-smoke's plan: refused accepts, dropped connections, injected
    // 500s and 2 ms stalls, on 2% of each node's seam decisions.
    let plans: Vec<Arc<FaultPlan>> = (1..=3)
        .map(|i| {
            let spec =
                format!("seed=4{i},rate=20000,kinds=refuse+disconnect+err500+delay,delay-ms=2");
            Arc::new(FaultPlan::parse(&spec).expect("fault plan"))
        })
        .collect();
    let backends: Vec<ServerHandle> = plans
        .iter()
        .map(|plan| {
            Server::bind(ServerConfig {
                workers: 1,
                queue_capacity: 64,
                read_timeout: Duration::from_secs(5),
                fault: Some(Arc::clone(plan)),
                ..ServerConfig::default()
            })
            .expect("bind faulty backend")
            .start()
            .expect("start faulty backend")
        })
        .collect();
    let router = Router::bind(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        replication: 2,
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");

    let games = mixed_workload(161, 48);
    let oracle: Vec<Vec<u8>> = games.iter().map(oracle_bytes).collect();
    for (i, (game, expected)) in games.iter().zip(&oracle).enumerate() {
        let response = call(router.addr(), "POST", "/solve", &solve_body(game));
        assert_eq!(
            response.status,
            200,
            "game {i}: {}",
            String::from_utf8_lossy(&response.body)
        );
        assert_eq!(&response.body, expected, "game {i}: wrong answer");
    }
    let batch = call(router.addr(), "POST", "/solve_batch", &batch_body(&games));
    assert_eq!(batch.status, 200);
    assert_eq!(
        String::from_utf8_lossy(&batch.body),
        spliced_reports(&oracle),
        "wrong batch answer"
    );
    let injected: u64 = plans.iter().map(|plan| plan.injected_total()).sum();
    assert!(injected > 0, "no fault was injected, so nothing was tested");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

/// A cold solve that keeps a one-worker node busy for many milliseconds:
/// three agents with 125 strategies each.
fn heavy_body(seed: u64) -> Vec<u8> {
    let (game, _) =
        bi_core::random_games::random_bayesian_potential_game(&[3; 3], &[5; 3], 12, seed);
    solve_body(&GameSpec::Matrix(game))
}

/// The router's `fallback.unavailable_503` counter.
fn unavailable_503(router: &RouterHandle) -> Option<u64> {
    router
        .metrics_json()
        .get("fallback")
        .and_then(|f| f.get("unavailable_503"))
        .and_then(Json::as_u64)
}

#[test]
fn an_overloaded_node_answers_through_the_router_and_the_router_never_solves() {
    // One node with one solver and a one-deep queue, behind a router
    // that tries each request once: a burst of distinct heavy solves
    // overflows the node, and every 429 it sheds must reach the client
    // as the node's own answer.
    let node = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("bind node")
    .start()
    .expect("start node");
    let router = Router::bind(RouterConfig {
        backends: vec![node.addr().to_string()],
        max_retry_rounds: 1,
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");
    let node_addr = node.addr().to_string();
    // Every request is written before any answer is read.
    let mut conns = Vec::new();
    for seed in 0..12 {
        let stream = connect(router.addr());
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        write_request(&mut writer, "POST", "/solve", &heavy_body(seed), false).expect("write");
        conns.push((reader, writer));
    }
    let mut shed = 0;
    for (i, (reader, _writer)) in conns.iter_mut().enumerate() {
        let response = read_response(reader).expect("read response");
        assert_eq!(
            response.header("x-backend"),
            Some(node_addr.as_str()),
            "request {i}: every answer must be the node's"
        );
        match response.status {
            200 => {}
            429 => {
                assert!(response.header("retry-after").is_some(), "request {i}");
                shed += 1;
            }
            status => panic!("request {i}: unexpected status {status}"),
        }
    }
    assert!(shed > 0, "the burst never overflowed the node's queue");
    let metrics = router.metrics_json();
    assert_eq!(unavailable_503(&router), Some(0));
    assert!(
        metrics
            .get("fallback")
            .and_then(|f| f.get("local_solves"))
            .is_none(),
        "the router has no local solves to count"
    );
    router.stop();
    node.stop();
}

#[test]
fn a_dead_cluster_answers_503_from_no_backend() {
    let (backends, router) = start_cluster(2, RouterConfig::default());
    let body = solve_body(&light_workload(171, 1)[0]);
    for backend in backends {
        backend.stop();
    }
    assert_eq!(unavailable_503(&router), Some(0));
    let response = call(router.addr(), "POST", "/solve", &body);
    assert_eq!(response.status, 503);
    assert_eq!(response.header("x-backend"), Some("none"));
    assert_eq!(response.body, br#"{"error":"no live backend"}"#);
    assert_eq!(unavailable_503(&router), Some(1));
    router.stop();
}

#[test]
fn a_killed_backend_is_ejected_and_only_its_keys_move() {
    let (mut backends, router) = start_cluster(
        3,
        RouterConfig {
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let games = mixed_workload(91, 9);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();
    let owners: Vec<String> = bodies
        .iter()
        .map(|body| {
            let response = call(router.addr(), "POST", "/solve", body);
            assert_eq!(response.status, 200);
            response.header("x-backend").expect("owner").to_string()
        })
        .collect();

    // Kill the backend that owns the first key.
    let victim = owners[0].clone();
    let index = backends
        .iter()
        .position(|b| b.addr().to_string() == victim)
        .expect("victim is a cluster backend");
    backends.remove(index).stop();

    // Every key must still answer 200 — the victim's keys fail over to
    // a live backend (re-solved there: a miss is fine), everyone else's
    // stay put on the cache they warmed.
    for (body, owner) in bodies.iter().zip(&owners) {
        let response = call(router.addr(), "POST", "/solve", body);
        assert_eq!(
            response.status, 200,
            "no request may surface a 5xx while the ring heals"
        );
        let now = response.header("x-backend").expect("owner");
        if owner == &victim {
            assert_ne!(now, victim, "the dead backend must not be routed to");
        } else {
            assert_eq!(
                now,
                owner.as_str(),
                "ejection must move only the ejected backend's arc"
            );
            assert_eq!(response.header("x-cache"), Some("hit"));
        }
    }
    let metrics = router.metrics_json();
    let rows = metrics.get("backends").and_then(Json::as_arr).unwrap();
    let victim_row = rows
        .iter()
        .find(|row| row.get("addr").and_then(|v| v.as_str()) == Some(victim.as_str()))
        .expect("victim row");
    assert_eq!(victim_row.get("alive"), Some(&Json::Bool(false)));
    assert_eq!(victim_row.get("ejects").and_then(|v| v.as_u64()), Some(1));
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

/// Polls `check` every 25 ms until it passes or `timeout` elapses.
fn poll_until(timeout: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn replication_two_survives_a_kill_and_read_repairs_the_returning_backend() {
    let (mut backends, router) = start_cluster(
        3,
        RouterConfig {
            replication: 2,
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let games = light_workload(131, 40);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();

    // The aggregated health document must carry the replication factor.
    let health = call(router.addr(), "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    let health = Json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
    assert_eq!(health.get("replication").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        health.get("live_backends").and_then(|v| v.as_u64()),
        Some(3)
    );

    // Cold pass: every key solved once on its primary; the write-through
    // ships each result to the key's second owner.
    let owners: Vec<String> = bodies
        .iter()
        .map(|body| {
            let response = call(router.addr(), "POST", "/solve", body);
            assert_eq!(response.status, 200);
            response.header("x-backend").expect("owner").to_string()
        })
        .collect();
    let replication_metrics = |key: &str| -> u64 {
        router
            .metrics_json()
            .get("replication")
            .and_then(|section| section.get(key).and_then(|v| v.as_u64()))
            .unwrap_or(0)
    };
    assert!(
        poll_until(Duration::from_secs(10), || {
            replication_metrics("writes") > 0 && replication_metrics("repair_queue_depth") == 0
        }),
        "replica write-through must drain: writes {}, queue {}",
        replication_metrics("writes"),
        replication_metrics("repair_queue_depth"),
    );

    // Kill the primary of the first key.
    let victim = owners[0].clone();
    let index = backends
        .iter()
        .position(|b| b.addr().to_string() == victim)
        .expect("victim is a cluster backend");
    backends.remove(index).stop();

    // Hot pass with one owner down: zero client-visible 5xx, and the
    // victim's keys are *hits* on their surviving replica — the cached
    // work was not lost.
    let mut hits = 0usize;
    for body in &bodies {
        let response = call(router.addr(), "POST", "/solve", body);
        assert_eq!(
            response.status, 200,
            "no request may surface a 5xx while one replica is down"
        );
        assert_ne!(response.header("x-backend"), Some(victim.as_str()));
        if response.header("x-cache") == Some("hit") {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / bodies.len() as f64;
    assert!(
        hit_rate >= 0.99,
        "failover must serve from the replica caches: hit rate {hit_rate}"
    );

    // Restart the victim on its old address (retrying while the OS
    // releases the port). It comes back cold; the router's prober
    // readmits it and the queued read-repairs repopulate it.
    let restarted = {
        let config = ServerConfig {
            addr: victim.clone(),
            workers: 1,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let mut bound = None;
        for _ in 0..100 {
            match Server::bind(config.clone()) {
                Ok(server) => {
                    bound = Some(server.start().expect("restart victim"));
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        bound.expect("rebind the victim's address")
    };

    assert!(
        poll_until(Duration::from_secs(10), || {
            replication_metrics("read_repairs") > 0
                && replication_metrics("repair_queue_depth") == 0
        }),
        "read-repairs must deliver once the backend is readmitted: repairs {}, queue {}",
        replication_metrics("read_repairs"),
        replication_metrics("repair_queue_depth"),
    );
    let backend_metrics = call(restarted.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&backend_metrics.body).unwrap()).unwrap();
    assert!(
        doc.get("cache_puts").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "the restarted backend must be repopulated by read-repair"
    );

    // The repaired keys serve as hits from their rightful primary again.
    let repaired = bodies
        .iter()
        .zip(&owners)
        .find(|(_, owner)| *owner == &victim)
        .map(|(body, _)| body)
        .expect("the victim owned at least the first key");
    assert!(
        poll_until(Duration::from_secs(10), || {
            let response = call(router.addr(), "POST", "/solve", repaired);
            response.status == 200
                && response.header("x-backend") == Some(victim.as_str())
                && response.header("x-cache") == Some("hit")
        }),
        "a repaired key must come back as a hit on its readmitted primary"
    );

    router.stop();
    restarted.stop();
    for backend in backends {
        backend.stop();
    }
}

/// A unique temp path per call so parallel tests never collide.
fn temp_log(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bi-cluster-{}-{tag}-{n}.log", std::process::id()))
}

#[test]
fn a_disk_backed_server_reboots_warm_and_byte_identical() {
    let path = temp_log("warm");
    let disk_config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        disk_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let games = light_workload(101, 50);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();

    // First life: solve the whole pool cold over the socket.
    let first_run: Vec<Vec<u8>> = {
        let handle = Server::bind(disk_config.clone())
            .expect("bind disk-backed server")
            .start()
            .expect("start");
        let responses: Vec<Vec<u8>> = bodies
            .iter()
            .map(|body| {
                let response = call(handle.addr(), "POST", "/solve", body);
                assert_eq!(response.status, 200);
                response.body
            })
            .collect();
        handle.service().sync_disk();
        handle.stop();
        responses
    };

    // Second life: same log, every replay must be a warm hit with the
    // exact bytes of the first life.
    let handle = Server::bind(disk_config)
        .expect("rebind on the same log")
        .start()
        .expect("restart");
    let mut hits = 0usize;
    for (body, expected) in bodies.iter().zip(&first_run) {
        let response = call(handle.addr(), "POST", "/solve", body);
        assert_eq!(response.status, 200);
        if response.header("x-cache") == Some("hit") {
            hits += 1;
        }
        assert_eq!(
            &response.body, expected,
            "a disk-recovered report must be byte-identical"
        );
    }
    let hit_rate = hits as f64 / bodies.len() as f64;
    assert!(
        hit_rate >= 0.99,
        "warm restart must serve from the recovered log: hit rate {hit_rate}"
    );
    let metrics = call(handle.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let disk = doc.get("disk").expect("disk section in metrics");
    assert_eq!(
        disk.get("recovered_records").and_then(|v| v.as_u64()),
        Some(bodies.len() as u64)
    );
    handle.stop();
    std::fs::remove_file(&path).ok();
}
