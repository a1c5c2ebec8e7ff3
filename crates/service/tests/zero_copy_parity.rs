//! The zero-copy acceptance parity suite: for every game in the codec
//! fixture corpus (plus a seeded workload sweep), the raw-byte fast path
//! and the parse→canonicalize path must produce **byte-identical**
//! responses — and both must match the in-process engine exactly.
//!
//! This is what makes the hot path safe: `canon_check` accuracy is an
//! efficiency concern only, because the raw index is keyed by exact body
//! bytes. These tests pin the end-to-end consequence.
//!
//! The raw index and the router's key cache are looked up before any
//! canonicality check, which is sound only because nothing
//! non-canonical is ever inserted into them. The last tests pin that
//! invariant: non-canonical spellings sent through `/solve`, and as the
//! request bytes of `/cache_put`, never become zero-copy or key-cache
//! hits, while the canonical body still does.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use bi_core::solve::{Solver, SolverConfig};
use bi_core::{BayesianGame, MatrixFormGame};
use bi_ncs::BayesianNcsGame;
use bi_obs::TraceCtx;
use bi_service::cache::CacheConfig;
use bi_service::http::{read_response, write_request, ClientResponse};
use bi_service::workload::mixed_workload;
use bi_service::{
    FastOutcome, GameSpec, Router, RouterConfig, Server, ServerConfig, SolveRequest, SolveService,
};
use bi_util::{Decode, Encode, Json};

/// Every game the codec fixture corpus contains, decoded.
fn fixture_games() -> Vec<GameSpec> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("fixture readable");
    vec![
        GameSpec::Matrix(
            BayesianGame::decode_str(&read("bayesian_game.json")).expect("matrix fixture decodes"),
        ),
        GameSpec::Ncs(
            BayesianNcsGame::decode_str(&read("ncs_game.json")).expect("ncs fixture decodes"),
        ),
    ]
}

/// The corpus: both fixtures plus a seeded mix of generated games.
fn corpus() -> Vec<GameSpec> {
    let mut games = fixture_games();
    games.extend(mixed_workload(90, 6));
    games
}

/// Non-canonical spellings of `body` that decode to the same request.
fn respellings(body: &[u8]) -> Vec<Vec<u8>> {
    let text = std::str::from_utf8(body).expect("canonical JSON is UTF-8");
    vec![
        // Leading whitespace defeats the canonical scanner outright.
        format!(" {text}").into_bytes(),
        format!("{text}\n").into_bytes(),
        // Whitespace after the first `{` keeps the body valid JSON but
        // non-canonical.
        text.replacen('{', "{ ", 1).into_bytes(),
    ]
}

fn served_bytes(service: &SolveService, body: &[u8]) -> (Vec<u8>, bool) {
    match service
        .try_serve_fast(body, TraceCtx::NONE)
        .expect("body decodes")
    {
        FastOutcome::Hit(served) => (served.body.to_vec(), served.zero_copy),
        FastOutcome::Miss(prepared) => (
            service
                .complete_solve(*prepared)
                .expect("solvable corpus game")
                .body
                .to_vec(),
            false,
        ),
    }
}

#[test]
fn zero_copy_and_parsed_paths_answer_byte_identically() {
    let service = SolveService::new(CacheConfig::default());
    for (i, game) in corpus().iter().enumerate() {
        let request = SolveRequest {
            game: game.clone(),
            config: SolverConfig::default(),
        };
        let body = request.canonical_bytes();
        // Cold: decode path, engine runs.
        let (cold, cold_zero) = served_bytes(&service, &body);
        assert!(!cold_zero, "game {i}: first sighting cannot be zero-copy");
        // Warm, byte-identical body: the zero-copy path.
        let (zero_copy, was_zero) = served_bytes(&service, &body);
        assert!(was_zero, "game {i}: resubmission must ride the raw index");
        // Warm, every non-canonical respelling: the parse path.
        for (j, respelled) in respellings(&body).iter().enumerate() {
            let (parsed, parsed_zero) = served_bytes(&service, respelled);
            assert!(
                !parsed_zero,
                "game {i} respelling {j}: non-canonical bodies must be parsed"
            );
            assert_eq!(
                parsed, zero_copy,
                "game {i} respelling {j}: parsed and zero-copy responses must be byte-identical"
            );
        }
        assert_eq!(
            cold, zero_copy,
            "game {i}: cold and hot responses must be byte-identical"
        );
        // And all of it equals the in-process engine, byte for byte.
        let direct = match game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        };
        assert_eq!(
            zero_copy,
            direct.canonical_bytes(),
            "game {i}: service bytes must match the engine"
        );
    }
}

#[test]
fn canonical_bodies_pass_the_scanner_and_respellings_fail_it() {
    // The corpus-wide sanity check on the scanner itself: every
    // canonical printing is accepted, every respelling rejected — so the
    // fast path actually engages on real traffic shapes.
    for game in corpus() {
        let body = SolveRequest {
            game,
            config: SolverConfig::default(),
        }
        .canonical_bytes();
        assert!(
            bi_util::json::canon_check(&body),
            "canonical printing must pass the scanner"
        );
        for respelled in respellings(&body) {
            assert!(
                !bi_util::json::canon_check(&respelled),
                "respelling must fail the scanner"
            );
        }
    }
}

#[test]
fn near_aliases_never_collide_in_the_raw_index() {
    // Two requests that differ only in the thread count share a primary
    // cache entry but have different raw bytes — the raw index must keep
    // them distinct while both answer with the same report bytes.
    let service = SolveService::new(CacheConfig::default());
    let game = mixed_workload(91, 1).remove(0);
    let one = SolveRequest {
        game: game.clone(),
        config: SolverConfig {
            threads: 1,
            ..SolverConfig::default()
        },
    };
    let four = SolveRequest {
        game,
        config: SolverConfig {
            threads: 4,
            ..SolverConfig::default()
        },
    };
    let body_one = one.canonical_bytes();
    let body_four = four.canonical_bytes();
    assert_ne!(body_one, body_four);
    let (cold, _) = served_bytes(&service, &body_one);
    // The threads=4 spelling decodes to the same content address: a
    // parsed-path hit with identical bytes, never a raw-index collision.
    let (other, zero) = served_bytes(&service, &body_four);
    assert!(!zero, "different raw bytes must not alias in the raw index");
    assert_eq!(cold, other);
    // Resubmitting each spelling is now zero-copy for both.
    assert!(served_bytes(&service, &body_one).1);
    assert!(served_bytes(&service, &body_four).1);
    // And what came back is a well-formed report document.
    assert!(Json::parse(std::str::from_utf8(&cold).unwrap()).is_ok());
}

/// A request whose canonical body contains the number `1.5`.
fn one_and_a_half_request() -> SolveRequest {
    let g = MatrixFormGame::from_fn(2, &[2, 2], |i, a| 1.5 * (1 + i + a[0] + 2 * a[1]) as f64);
    SolveRequest {
        game: GameSpec::Matrix(BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, g)]).unwrap()),
        config: SolverConfig::default(),
    }
}

/// Spellings of `request` that decode to it but are not canonical:
/// added whitespace, reordered keys, and `1.5` written `1.50`.
fn non_canonical_spellings(request: &SolveRequest) -> Vec<Vec<u8>> {
    let body = request.canonical_bytes();
    let text = std::str::from_utf8(&body).unwrap();
    assert!(text.contains("1.5,"), "{text}");
    let spellings = vec![
        text.replacen(':', ": ", 1).into_bytes(),
        format!("{text}\t").into_bytes(),
        // Insertion order puts `game` before `config`.
        request.encode().to_string().into_bytes(),
        text.replacen("1.5,", "1.50,", 1).into_bytes(),
    ];
    for spelling in &spellings {
        assert!(!bi_util::json::canon_check(spelling));
        let decoded = SolveRequest::decode_str(std::str::from_utf8(spelling).unwrap()).unwrap();
        assert_eq!(
            decoded.canonical_bytes(),
            body,
            "a spelling of the same request"
        );
    }
    spellings
}

fn zero_copy_hits(service: &SolveService) -> u64 {
    service.metrics().zero_copy_hits.load(Ordering::Relaxed)
}

#[test]
fn non_canonical_solve_bodies_never_enter_the_raw_index() {
    let service = SolveService::new(CacheConfig::default());
    let request = one_and_a_half_request();
    let body = request.canonical_bytes();
    let (cold, _) = served_bytes(&service, &body);
    for spelling in non_canonical_spellings(&request) {
        // Each spelling is a parsed hit, the second time as the first:
        // serving it did not insert it.
        for _ in 0..2 {
            let (served, zero_copy) = served_bytes(&service, &spelling);
            assert!(!zero_copy, "{}", String::from_utf8_lossy(&spelling));
            assert_eq!(served, cold);
        }
    }
    assert_eq!(zero_copy_hits(&service), 0);
    assert!(
        served_bytes(&service, &body).1,
        "the canonical body still hits"
    );
    assert_eq!(zero_copy_hits(&service), 1);
    // A spelling solved cold stores the request under its canonical
    // bytes, never under its own.
    for spelling in non_canonical_spellings(&request) {
        let fresh = SolveService::new(CacheConfig::default());
        assert_eq!(served_bytes(&fresh, &spelling), (cold.clone(), false));
        for _ in 0..2 {
            assert_eq!(served_bytes(&fresh, &spelling), (cold.clone(), false));
        }
        assert_eq!(served_bytes(&fresh, &body), (cold.clone(), true));
        assert_eq!(zero_copy_hits(&fresh), 1);
    }
}

#[test]
fn non_canonical_cache_put_requests_never_enter_the_raw_index() {
    let request = one_and_a_half_request();
    let body = request.canonical_bytes();
    let (answer, _) = served_bytes(&SolveService::new(CacheConfig::default()), &body);
    let replica = SolveService::new(CacheConfig::default());
    for spelling in non_canonical_spellings(&request) {
        replica.cache_put(&spelling, &answer).unwrap();
        for _ in 0..2 {
            let (served, zero_copy) = served_bytes(&replica, &spelling);
            assert!(!zero_copy, "{}", String::from_utf8_lossy(&spelling));
            assert_eq!(served, answer);
        }
    }
    // The canonical body was never put, so it first takes the parse
    // path (warming the raw index), then rides it.
    assert!(!served_bytes(&replica, &body).1);
    assert!(served_bytes(&replica, &body).1);
    assert_eq!(replica.metrics().solves_computed.load(Ordering::Relaxed), 0);
    // A canonical `cache_put` warms the raw index directly.
    let warmed = SolveService::new(CacheConfig::default());
    warmed.cache_put(&body, &answer).unwrap();
    assert_eq!(served_bytes(&warmed, &body), (answer, true));
}

/// One request over a fresh connection. The read timeout turns a
/// server thread that died mid-request into a failure, not a hang.
fn call(addr: std::net::SocketAddr, body: &[u8]) -> ClientResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request(&mut writer, "POST", "/solve", body, false).expect("write request");
    read_response(&mut reader).expect("read response")
}

#[test]
fn non_canonical_bodies_never_enter_the_router_key_cache() {
    let backend = Server::bind(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind backend")
    .start()
    .expect("start backend");
    let router = Router::bind(RouterConfig {
        backends: vec![backend.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");
    let key_cache = |field: &str| {
        router
            .metrics_json()
            .get("key_cache")
            .and_then(|k| k.get(field))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let request = one_and_a_half_request();
    let body = request.canonical_bytes();
    let cold = call(router.addr(), &body);
    assert_eq!(cold.status, 200);
    assert_eq!((key_cache("hits"), key_cache("entries")), (0, 1));
    let spellings = non_canonical_spellings(&request);
    for spelling in &spellings {
        for _ in 0..2 {
            let served = call(router.addr(), spelling);
            assert_eq!(served.status, 200);
            assert_eq!(served.body, cold.body);
        }
    }
    // Every spelling missed the key cache both times and left no entry;
    // the router forwarded the canonical bytes it keyed, so the backend
    // answered each off its raw index.
    let forwarded = 2 * spellings.len() as u64;
    assert_eq!((key_cache("hits"), key_cache("entries")), (0, 1));
    assert_eq!(key_cache("misses"), 1 + forwarded);
    assert_eq!(zero_copy_hits(&backend.service()), forwarded);
    // The canonical body still hits both tables.
    assert_eq!(call(router.addr(), &body).body, cold.body);
    assert_eq!(key_cache("hits"), 1);
    assert_eq!(zero_copy_hits(&backend.service()), forwarded + 1);
    router.stop();
    backend.stop();
}
