//! Wire-codec safety net: property-based round-trips over random games
//! of both representations, golden-file fixtures pinning the canonical
//! format, and malformed-input error cases.
//!
//! The invariant the solve service's content-addressed cache rests on:
//! `decode(encode(g))` is indistinguishable from `g` — same canonical
//! bytes (the cache key) and same solve results.

use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{Backend, Budget, SolverConfig};
use bayesian_ignorance::core::{BayesianGame, Solver};
use bayesian_ignorance::graph::{generators, Direction, NodeId};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
use bayesian_ignorance::util::json::Json;
use bayesian_ignorance::util::{Decode, Encode};
use bi_bench::Unreduced;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matrix-form Bayesian games round-trip bit-for-bit: canonical
    /// bytes are preserved and the decoded game solves identically.
    #[test]
    fn bayesian_games_round_trip(seed in 0u64..400, support in 1usize..4) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 3], support, seed);
        let decoded = BayesianGame::decode(&game.encode()).unwrap();
        prop_assert_eq!(decoded.canonical_bytes(), game.canonical_bytes());
        let a = Solver::default().solve(&game).unwrap();
        let b = Solver::default().solve(&decoded).unwrap();
        prop_assert_eq!(a.measures, b.measures);
        prop_assert_eq!(a.profiles_evaluated, b.profiles_evaluated);
    }

    /// Bayesian NCS games over random connected graphs round-trip the
    /// same way (skipping seeds whose random terminals are infeasible).
    #[test]
    fn ncs_games_round_trip(seed in 0u64..400) {
        let g = generators::gnp_connected(Direction::Directed, 4, 0.5, (0.5, 2.0), seed);
        let prior = Prior::independent(vec![
            vec![((NodeId::new(0), NodeId::new(3)), 1.0)],
            vec![
                ((NodeId::new(0), NodeId::new(3)), 0.5),
                ((NodeId::new(0), NodeId::new(0)), 0.5),
            ],
        ]);
        let Ok(game) = BayesianNcsGame::new(g, prior) else { return Ok(()) };
        let decoded = BayesianNcsGame::decode(&game.encode()).unwrap();
        prop_assert_eq!(decoded.canonical_bytes(), game.canonical_bytes());
        if let (Ok(a), Ok(b)) = (game.measures(), decoded.measures()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Solver configurations of every backend round-trip exactly,
    /// including extreme seeds and budgets beyond f64 precision, with or
    /// without the retired `symmetry` field older clients still send.
    #[test]
    fn solver_configs_round_trip(
        samples in 1u32..1000,
        seed in 0u64..u64::MAX,
        max_profiles in 0u64..u64::MAX,
        threads in 0usize..16,
        legacy_symmetry in prop::sample::select(vec![None, Some("off"), Some("auto")]),
    ) {
        for backend in [
            Backend::ExhaustiveEnum,
            Backend::BestResponseDynamics { restarts: samples, seed },
            Backend::MonteCarloSampling { samples, seed },
        ] {
            let config = SolverConfig {
                backend,
                budget: Budget {
                    max_profiles: u128::from(max_profiles) << 32,
                    max_iterations: seed,
                },
                threads,
            };
            let mut wire = config.encode();
            if let (Some(mode), Json::Obj(fields)) = (legacy_symmetry, &mut wire) {
                fields.push(("symmetry".into(), Json::str(mode)));
            }
            let decoded = SolverConfig::decode(&wire).unwrap();
            prop_assert_eq!(decoded, config);
        }
    }
}

/// The canonical form of a fixture file: parse + canonical reprint (the
/// committed files are already canonical; this keeps the assertion
/// independent of incidental whitespace).
fn canonical(text: &str) -> String {
    Json::parse(text)
        .expect("fixture parses")
        .canonical_string()
}

#[test]
fn golden_bayesian_game_fixture_is_stable() {
    let text = include_str!("fixtures/bayesian_game.json");
    let game = BayesianGame::decode_str(text).expect("fixture decodes");
    assert_eq!(
        game.encode().canonical_string(),
        canonical(text),
        "re-encoding the fixture must reproduce it byte-for-byte"
    );
    // A format change that breaks decoding of committed wire data (or
    // changes solve results) must show up here.
    let report = Solver::default().solve(&game).unwrap();
    assert_eq!(
        report.encode().canonical_string(),
        canonical(include_str!("fixtures/solve_report.json")),
        "the solved report of the fixture game is itself golden"
    );
    // And the unreduced sweep writes those same bytes.
    let unreduced = Solver::default().solve(&Unreduced(game)).unwrap();
    assert_eq!(unreduced, report, "unreduced and reduced reports agree");
}

#[test]
fn golden_ncs_game_fixture_is_stable() {
    let text = include_str!("fixtures/ncs_game.json");
    let game = BayesianNcsGame::decode_str(text).expect("fixture decodes");
    assert_eq!(game.encode().canonical_string(), canonical(text));
    let m = game.measures().unwrap();
    m.verify_chain().unwrap();
    // The diamond game of the bi-ncs test suite: sharing via the middle
    // node is optimal under both information regimes.
    assert!((m.opt_p - 2.0).abs() < 1e-9);
    assert!((m.opt_c - 2.0).abs() < 1e-9);
}

#[test]
fn non_canonical_spelling_decodes_to_the_same_content() {
    // Same game as the fixture, but pretty-printed, reordered keys, and
    // redundant number spellings — the canonical bytes must coincide.
    let pretty = r#"{
        "type_counts": [1, 2],
        "support": [
            {
                "prob": 0.50,
                "types": [0, 0],
                "game": {"costs": [[0, 2.0, 2, 0], [0, 2, 2, 0]], "action_counts": [2, 2]}
            },
            {
                "prob": 5e-1,
                "types": [0, 1],
                "game": {"costs": [[2, 0, 0, 2], [2, 0, 0, 2]], "action_counts": [2, 2]}
            }
        ]
    }"#;
    let game = BayesianGame::decode_str(pretty).unwrap();
    assert_eq!(
        game.encode().canonical_string(),
        canonical(include_str!("fixtures/bayesian_game.json"))
    );
}

#[test]
fn malformed_documents_fail_with_useful_errors() {
    // Parse-level failures.
    assert!(BayesianGame::decode_str("").is_err());
    assert!(BayesianGame::decode_str("{\"type_counts\": [1,").is_err());
    // Shape-level failures.
    let err = BayesianGame::decode_str(r#"{"support":[]}"#).unwrap_err();
    assert!(err.to_string().contains("type_counts"));
    let err = BayesianNcsGame::decode_str(r#"{"graph":{},"prior":{}}"#).unwrap_err();
    assert!(err.to_string().contains("graph"));
    // Semantic failures go through the constructors.
    let unnormalized = r#"{"type_counts":[1],"support":[
        {"types":[0],"prob":0.25,"game":{"action_counts":[1],"costs":[[0]]}}
    ]}"#;
    let err = BayesianGame::decode_str(unnormalized).unwrap_err();
    assert!(err.to_string().contains("invalid Bayesian game"));
    // NaN never crosses the wire in either direction.
    assert!(Json::parse(r#"{"x": NaN}"#).is_err());
}

#[test]
fn solve_reports_round_trip_through_the_facade() {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, 99);
    let report = Solver::default().solve(&game).unwrap();
    let decoded = bayesian_ignorance::core::SolveReport::decode(&report.encode()).unwrap();
    assert_eq!(decoded, report);
}
