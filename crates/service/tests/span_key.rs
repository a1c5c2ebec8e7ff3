//! The span-key contract: a canonical `/solve` body is looked up by the
//! key its own bytes spell ([`SolveService::span_key`]) and decoded only
//! on a true miss, on the solver pool.
//!
//! These tests pin what that must not change:
//! * the span key equals [`SolveService::cache_key`] of the decoded
//!   request, byte for byte, for random matrix and NCS requests under
//!   random configs (so disk logs keyed by `cache_key` stay valid);
//! * non-canonical spellings of one request (key order, whitespace,
//!   `1` against `1.0`, `-0` against `-0.0`, a missing config) reach
//!   the same key and byte-identical answers;
//! * a canonical body the decoder rejects answers `400` with the
//!   decoder's text, on a node and through a router, every time it is
//!   sent, and leaves no trace in any cache or in `solves_computed`.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use bi_core::random_games::random_bayesian_potential_game;
use bi_core::solve::{Backend, Budget, SolverConfig};
use bi_core::{BayesianGame, MatrixFormGame};
use bi_obs::TraceCtx;
use bi_service::http::{read_response, write_request, ClientResponse};
use bi_service::workload::ncs_game;
use bi_service::{
    CacheConfig, FastOutcome, GameSpec, Router, RouterConfig, Server, ServerConfig, SolveRequest,
    SolveService,
};
use bi_util::{Decode, Encode, Json};
use proptest::prelude::*;

/// A small random matrix game (`kind` even) or a workload NCS game.
fn random_game(seed: u64, kind: usize) -> GameSpec {
    if kind % 2 == 1 {
        return ncs_game(seed);
    }
    let types = [1 + (seed % 2) as usize, 1 + (seed / 2 % 2) as usize];
    let actions = [2 + (seed / 4 % 2) as usize, 2 + (seed / 8 % 3) as usize];
    let support = 1 + (seed / 24 % (types[0] * types[1]) as u64) as usize;
    GameSpec::Matrix(random_bayesian_potential_game(&types, &actions, support, seed).0)
}

fn random_config(backend: usize, seed: u64, threads: usize, profiles: u64) -> SolverConfig {
    let backend = match backend % 3 {
        0 => Backend::ExhaustiveEnum,
        1 => Backend::BestResponseDynamics {
            restarts: 1 + (seed % 7) as u32,
            seed,
        },
        _ => Backend::MonteCarloSampling {
            samples: 1 + (seed % 64) as u32,
            seed,
        },
    };
    SolverConfig {
        backend,
        budget: Budget {
            max_profiles: u128::from(profiles),
            max_iterations: profiles / 3 + 1,
        },
        threads,
    }
}

/// `v` as JSON, respelled: object keys in reverse order, whitespace
/// around every separator, and/or integral numbers with a `.0`. Each
/// option alone makes a canonical document non-canonical, and none
/// changes the value the decoder reads.
fn respell(v: &Json, reverse: bool, spaced: bool, dotted: bool, out: &mut String) {
    let sep = if spaced { " , " } else { "," };
    match v {
        Json::Num(x) if dotted && x.is_finite() && x.fract() == 0.0 => {
            out.push_str(&format!("{x}.0"));
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                respell(item, reverse, spaced, dotted, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            let mut pairs: Vec<&(String, Json)> = pairs.iter().collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            if reverse {
                pairs.reverse();
            }
            out.push('{');
            for (i, (key, value)) in pairs.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                out.push_str(&Json::str(key.clone()).to_string());
                out.push_str(if spaced { " : " } else { ":" });
                respell(value, reverse, spaced, dotted, out);
            }
            out.push('}');
        }
        other => out.push_str(&other.canonical_string()),
    }
}

/// Non-canonical spellings of `request`, plus its config-less body when
/// its config is the default.
fn spellings(request: &SolveRequest) -> Vec<Vec<u8>> {
    let tree = request.encode();
    let mut out = Vec::new();
    for (reverse, spaced, dotted) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let mut text = String::new();
        respell(&tree, reverse, spaced, dotted, &mut text);
        out.push(text.into_bytes());
    }
    if request.config == SolverConfig::default() {
        let bare = Json::Obj(vec![("game".into(), request.game.encode())]);
        out.push(bare.canonical_bytes());
    }
    out
}

/// The key a node looks `body` up by.
fn node_key(body: &[u8]) -> Vec<u8> {
    SolveService::span_key(body).unwrap_or_else(|| {
        let request = SolveRequest::decode_str(std::str::from_utf8(body).unwrap()).unwrap();
        SolveService::cache_key(&request.game, &request.config)
    })
}

/// Serves `body` through the fast path: its answer and whether the
/// cache answered.
fn serve(service: &SolveService, body: &[u8]) -> (Vec<u8>, bool) {
    match service.try_serve_fast(body, TraceCtx::NONE).unwrap() {
        FastOutcome::Hit(served) => (served.body.to_vec(), true),
        FastOutcome::Miss(prepared) => {
            let served = service.complete_solve(*prepared).unwrap();
            (served.body.to_vec(), false)
        }
    }
}

/// Every spelling of `request` reaches the canonical body's key, and a
/// service that solved the canonical body answers each from its cache
/// with the same bytes.
fn check_spellings(request: &SolveRequest) -> Result<(), TestCaseError> {
    let canonical = request.canonical_bytes();
    let key = SolveService::span_key(&canonical).expect("encoder bodies are keyed by spans");
    prop_assert_eq!(
        &key,
        &SolveService::cache_key(&request.game, &request.config)
    );
    let service = SolveService::new(CacheConfig::default());
    let (cold, hit) = serve(&service, &canonical);
    prop_assert!(!hit);
    for spelling in spellings(request) {
        let text = String::from_utf8_lossy(&spelling).into_owned();
        prop_assert!(spelling != canonical, "not a respelling: {text}");
        prop_assert_eq!(&node_key(&spelling), &key);
        let (answer, hit) = serve(&service, &spelling);
        prop_assert!(hit, "a respelling missed the cache: {text}");
        prop_assert!(answer == cold, "a respelling answered other bytes: {text}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn span_keys_equal_cache_keys_of_the_decoded_request(
        seed in 0u64..u64::MAX,
        kind in 0usize..2,
        backend in 0usize..3,
        threads in 0usize..17,
        profiles in 1u64..u64::MAX,
    ) {
        let request = SolveRequest {
            game: random_game(seed, kind),
            config: random_config(backend, seed, threads, profiles),
        };
        let key = SolveService::span_key(&request.canonical_bytes());
        prop_assert_eq!(key, Some(SolveService::cache_key(&request.game, &request.config)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn respellings_reach_the_same_key_and_answer(seed in 0u64..u64::MAX, kind in 0usize..2) {
        check_spellings(&SolveRequest {
            game: random_game(seed, kind),
            config: SolverConfig::default(),
        })?;
    }
}

#[test]
fn negative_zero_respelled_reaches_the_same_key_and_answer() {
    // A game whose costs include -0.0: canonically `-0`, respelled
    // `-0.0` by `respell`'s `.0` option.
    let g = MatrixFormGame::from_fn(2, &[2, 2], |i, a| match (i, a) {
        (0, [0, 0]) => -0.0,
        _ => (a[0] + 2 * a[1] + i) as f64,
    });
    let game = BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, g)]).unwrap();
    let request = SolveRequest {
        game: GameSpec::Matrix(game),
        config: SolverConfig::default(),
    };
    let canonical = String::from_utf8(request.canonical_bytes()).unwrap();
    assert!(canonical.contains("-0,"), "{canonical}");
    check_spellings(&request).unwrap();
}

fn call(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> ClientResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let method = if body.is_empty() { "GET" } else { "POST" };
    write_request(&mut writer, method, path, body, false).expect("write request");
    read_response(&mut reader).expect("read response")
}

/// Canonical bodies the decoder rejects, each with the `400` body that
/// a node and a router both answer it with: an unknown game kind, a
/// string-valued `threads`, and a non-UTF-8 byte inside a legacy
/// `config.symmetry` string. The
/// last two carry the game of `valid`, whose key is cached, so a span
/// lookup that ignored them would answer `200`.
fn invalid_canonical_bodies(valid: &SolveRequest) -> Vec<(Vec<u8>, String)> {
    let game = valid.game.encode().canonical_string();
    let config = valid.config.encode().canonical_string();
    let threads = format!(r#""threads":{}"#, valid.config.threads);
    let string_threads = config.replacen(&threads, r#""threads":"1""#, 1);
    let symmetry = config.replacen(&threads, &format!(r#""symmetry":"auto",{threads}"#), 1);
    let mut non_utf8 = format!(r#"{{"config":{symmetry},"game":{game}}}"#).into_bytes();
    let at = non_utf8.windows(4).position(|w| w == b"auto").unwrap();
    non_utf8[at] = 0xff;
    let bodies = vec![
        br#"{"game":{"game":{},"kind":"cubic"}}"#.to_vec(),
        format!(r#"{{"config":{string_threads},"game":{game}}}"#).into_bytes(),
        non_utf8,
    ];
    bodies
        .into_iter()
        .map(|body| {
            assert!(bi_util::json::canon_check(&body));
            let error = match std::str::from_utf8(&body) {
                Ok(text) => SolveRequest::decode_str(text).unwrap_err().to_string(),
                Err(_) => "decode error: request body is not valid UTF-8".to_string(),
            };
            let answer = Json::Obj(vec![("error".into(), Json::str(error))]).canonical_bytes();
            (body, String::from_utf8(answer).unwrap())
        })
        .collect()
}

#[test]
fn canonical_bodies_that_do_not_decode_answer_400_and_are_never_cached() {
    let log = std::env::temp_dir().join(format!("bi-span-invalid-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let node = Server::bind(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        disk_path: Some(log.clone()),
        ..ServerConfig::default()
    })
    .expect("bind node")
    .start()
    .expect("start node");
    let router = Router::bind(RouterConfig {
        backends: vec![node.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");
    let valid = SolveRequest {
        game: random_game(5, 0),
        config: SolverConfig::default(),
    };
    assert_eq!(
        call(node.addr(), "/solve", &valid.canonical_bytes()).status,
        200
    );
    let service = node.service();
    let counts = || {
        service.sync_disk();
        let doc = service.metrics_json();
        let get = |section: &str, field: &str| {
            doc.get(section)
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
        };
        (
            service.metrics().solves_computed.load(Ordering::Relaxed),
            get("cache", "insertions"),
            get("raw_index", "insertions"),
            get("disk", "appends"),
        )
    };
    let before = counts();
    assert_eq!(before, (1, Some(1), Some(1), Some(1)));
    let key_cache = || {
        router
            .metrics_json()
            .get("key_cache")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_u64()
    };
    assert_eq!(key_cache(), Some(0));
    for (body, error) in invalid_canonical_bodies(&valid) {
        for _ in 0..2 {
            for addr in [node.addr(), router.addr()] {
                let answer = call(addr, "/solve", &body);
                assert_eq!(answer.status, 400, "{error}");
                assert_eq!(String::from_utf8(answer.body).unwrap(), error);
            }
        }
        assert_eq!(counts(), before, "{error}: nothing may be solved or cached");
        assert_eq!(
            key_cache(),
            Some(0),
            "{error}: the router must not cache it"
        );
    }
    // The node still answers the valid body from its raw index.
    let warm = call(router.addr(), "/solve", &valid.canonical_bytes());
    assert_eq!((warm.status, warm.header("x-cache")), (200, Some("hit")));
    assert_eq!(service.metrics().zero_copy_hits.load(Ordering::Relaxed), 1);
    router.stop();
    node.stop();
    let _ = std::fs::remove_file(&log);
}
