//! Parity of the complete-information side (`optC`, `best-eqC`,
//! `worst-eqC`) against the per-state enumerators it replaced, **bit for
//! bit**.
//!
//! The solver now sweeps every support state's game `G_t` through the
//! same compiled exhaustive sweep as the Bayesian side
//! ([`Solver::complete_info`]). The references below are verbatim copies
//! of the loops that computed this side before: `nash::social_optimum` /
//! `nash::equilibrium_cost_range` per matrix state, and
//! `bi_ncs::analysis::analyze` per NCS state, weighted by the state
//! probabilities in state order.
//!
//! Covered: random potential and general matrix games (general games
//! include states with no pure equilibrium — the error and its `state`
//! index must match), random Bayesian NCS games on directed and
//! undirected networks (also with length-limited path enumeration), and
//! both `G_worst` families for k = 3..12. Every case is checked across
//! 1/2/4 threads, orbit-reduced and through [`Unreduced`] (every profile
//! swept), and under budgets and backends that must not affect this
//! side.

use bayesian_ignorance::constructions::gworst::{GWorstGame, GWorstVariant};
use bayesian_ignorance::constructions::universal::random_bayesian_ncs;
use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::{EnumerationError, MatrixFormGame};
use bayesian_ignorance::core::model::CompleteInfo;
use bayesian_ignorance::core::random_games::{random_bayesian_potential_game, random_game};
use bayesian_ignorance::core::solve::{Backend, SolveError, Solver};
use bayesian_ignorance::core::BayesianModel;
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::{Direction, Graph};
use bayesian_ignorance::ncs::{analysis, BayesianNcsGame, NcsError, Prior};
use bayesian_ignorance::util::approx_le;
use bi_bench::Unreduced;
use proptest::prelude::*;

/// The former `nash::social_optimum`, verbatim.
fn social_optimum(game: &MatrixFormGame) -> (f64, Vec<usize>) {
    let mut best = f64::INFINITY;
    let mut best_profile = vec![0; game.num_agents()];
    for p in game.profiles() {
        let k = game.social_cost(&p);
        if k < best {
            best = k;
            best_profile = p;
        }
    }
    (best, best_profile)
}

/// `nash::is_nash`, verbatim (kept local so the reference does not move
/// if the library's copy does).
fn is_nash(game: &MatrixFormGame, profile: &[usize]) -> bool {
    let mut work = profile.to_vec();
    for i in 0..game.num_agents() {
        let current = game.cost(i, profile);
        for a in 0..game.num_actions(i) {
            if a == profile[i] {
                continue;
            }
            work[i] = a;
            let dev = game.cost(i, &work);
            if dev < current && !approx_le(current, dev) {
                return false;
            }
        }
        work[i] = profile[i];
    }
    true
}

/// The former `nash::equilibrium_cost_range`, verbatim.
fn equilibrium_cost_range(game: &MatrixFormGame) -> Option<(f64, f64)> {
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    let mut found = false;
    for p in game.profiles() {
        if is_nash(game, &p) {
            found = true;
            let k = game.social_cost(&p);
            best = best.min(k);
            worst = worst.max(k);
        }
    }
    found.then_some((best, worst))
}

/// The former `BayesianGame::complete_info`, verbatim over the public
/// state accessors.
fn legacy_matrix_complete_info(game: &BayesianGame) -> Result<CompleteInfo, SolveError> {
    let mut opt_c = 0.0;
    let mut best_eq_c = 0.0;
    let mut worst_eq_c = 0.0;
    for idx in 0..game.support_len() {
        let (_, prob, state_game) = game.state(idx);
        let (opt, _) = social_optimum(state_game);
        opt_c += prob * opt;
        let (best, worst) = equilibrium_cost_range(state_game)
            .ok_or(SolveError::NoStateEquilibrium { state: idx })?;
        best_eq_c += prob * best;
        worst_eq_c += prob * worst;
    }
    Ok(CompleteInfo {
        opt_c,
        best_eq_c,
        worst_eq_c,
    })
}

/// The former `BayesianNcsGame::complete_info`, verbatim over the public
/// state accessors (`limits` must be the game's own path limits).
fn legacy_ncs_complete_info(
    game: &BayesianNcsGame,
    limits: PathLimits,
) -> Result<CompleteInfo, SolveError> {
    let mut opt_c = 0.0;
    let mut best_eq_c = 0.0;
    let mut worst_eq_c = 0.0;
    for (idx, (_, prob)) in game.support().iter().enumerate() {
        let a = analysis::analyze(&game.underlying_game(idx), limits).map_err(|e| match e {
            NcsError::NoEquilibrium { .. } => SolveError::NoStateEquilibrium { state: idx },
            other => SolveError::Model(Box::new(other)),
        })?;
        opt_c += prob * a.opt;
        best_eq_c += prob * a.best_eq;
        worst_eq_c += prob * a.worst_eq;
    }
    Ok(CompleteInfo {
        opt_c,
        best_eq_c,
        worst_eq_c,
    })
}

/// A comparable form of an outcome: the measures' bit patterns, or the
/// error's full debug rendering (variant, state index, wrapped model
/// error).
fn outcome(result: Result<CompleteInfo, SolveError>) -> Result<[u64; 3], String> {
    result
        .map(|ci| {
            [
                ci.opt_c.to_bits(),
                ci.best_eq_c.to_bits(),
                ci.worst_eq_c.to_bits(),
            ]
        })
        .map_err(|e| format!("{e:?}"))
}

/// Checks the new path against `reference` under every thread count,
/// reduced and unreduced, through the trait's own `complete_info`, and
/// under a budget and backends that must not touch this side. When the
/// game is solvable, the full report must carry the same three measures.
fn assert_parity<M: BayesianModel + Clone>(
    game: &M,
    reference: Result<CompleteInfo, SolveError>,
    context: &str,
) {
    let expected = outcome(reference);
    assert_eq!(
        outcome(game.complete_info()),
        expected,
        "{context}: trait complete_info"
    );
    let unreduced = Unreduced(game.clone());
    for threads in [1usize, 2, 4] {
        let solver = Solver::builder().threads(threads).build();
        assert_eq!(
            outcome(solver.complete_info(game)),
            expected,
            "{context}: {threads} threads"
        );
        assert_eq!(
            outcome(solver.complete_info(&unreduced)),
            expected,
            "{context}: {threads} threads, unreduced"
        );
    }
    for backend in [
        Backend::ExhaustiveEnum,
        Backend::MonteCarloSampling {
            samples: 4,
            seed: 3,
        },
    ] {
        let solver = Solver::builder().backend(backend).max_profiles(1).build();
        assert_eq!(
            outcome(solver.complete_info(game)),
            expected,
            "{context}: {backend:?} with a 1-profile budget"
        );
    }
    if let Ok(report) = Solver::default().solve(game) {
        let m = report.measures;
        let from_report = outcome(Ok(CompleteInfo {
            opt_c: m.opt_c,
            best_eq_c: m.best_eq_c,
            worst_eq_c: m.worst_eq_c,
        }));
        assert_eq!(from_report, expected, "{context}: solve report");
    }
}

/// A Bayesian game over `types` whose support states carry independent
/// random *general* games (no potential structure, so some states have no
/// pure Nash equilibrium), with costs in `[0, 2)` and — when `infinite`
/// — every cost above 1.8 replaced by `∞`.
fn general_bayesian_game(
    types: &[usize],
    actions: &[usize],
    support: usize,
    infinite: bool,
    seed: u64,
) -> BayesianGame {
    use rand::Rng;
    let mut rng = bayesian_ignorance::util::rng::seeded(seed);
    let k = types.len();
    let mut profiles: Vec<Vec<usize>> = Vec::new();
    while profiles.len() < support {
        let p: Vec<usize> = types.iter().map(|&c| rng.random_range(0..c)).collect();
        if !profiles.contains(&p) {
            profiles.push(p);
        }
    }
    let weights: Vec<f64> = (0..support).map(|_| rng.random_range(0.2..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let states = profiles
        .into_iter()
        .zip(weights)
        .enumerate()
        .map(|(idx, (p, w))| {
            let raw = random_game(k, actions, (0.0, 2.0), seed * 31 + idx as u64);
            let game = MatrixFormGame::from_fn(k, actions, |i, a| {
                let c = raw.cost(i, a);
                if infinite && c > 1.8 {
                    f64::INFINITY
                } else {
                    c
                }
            });
            (p, w / total, game)
        })
        .collect();
    BayesianGame::new(types.to_vec(), states).expect("valid by construction")
}

/// `k` interchangeable agents with `actions` actions each paying a
/// permutation-invariant congestion cost, over `states` support states
/// that differ only by a cost scale — `Auto` reduces each state's sweep.
fn symmetric_congestion_game(k: usize, actions: usize, states: usize) -> BayesianGame {
    let support = (0..states)
        .map(|t| {
            let scale = (t + 1) as f64;
            let game = MatrixFormGame::from_fn(k, &vec![actions; k], |i, a| {
                let same = a.iter().filter(|&&x| x == a[i]).count() as f64;
                scale * same + (a[i] * a[i]) as f64 * 0.25
            });
            (vec![t; k], 1.0 / states as f64, game)
        })
        .collect();
    BayesianGame::new(vec![states; k], support).expect("valid by construction")
}

/// A complete undirected 5-vertex network with seeded random costs and a
/// 2-agent × 2-type prior, built with explicit path limits.
fn complete_network_game(seed: u64, limits: PathLimits) -> BayesianNcsGame {
    use rand::Rng;
    let mut rng = bayesian_ignorance::util::rng::seeded(seed);
    let mut g = Graph::new(Direction::Undirected);
    let nodes: Vec<_> = (0..5).map(|_| g.add_node()).collect();
    for a in 0..nodes.len() {
        for b in (a + 1)..nodes.len() {
            g.add_edge(nodes[a], nodes[b], rng.random_range(0.5..2.0));
        }
    }
    let mut pick = || {
        (
            nodes[rng.random_range(0..nodes.len())],
            nodes[rng.random_range(0..nodes.len())],
        )
    };
    let mut agent_types = Vec::new();
    for _ in 0..2 {
        let first = pick();
        let mut second = pick();
        while second == first {
            second = pick();
        }
        agent_types.push(vec![(first, 0.5), (second, 0.5)]);
    }
    BayesianNcsGame::with_limits(g, Prior::independent(agent_types), limits)
        .expect("complete graph is connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn potential_matrix_games_match_the_legacy_loop(seed in 0u64..5000, support in 1usize..5) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], support, seed);
        assert_parity(&game, legacy_matrix_complete_info(&game), "potential 2x3");
        let (game, _) = random_bayesian_potential_game(&[2, 1, 2], &[2, 3, 2], support, seed);
        assert_parity(&game, legacy_matrix_complete_info(&game), "potential 3 agents");
    }

    #[test]
    fn general_matrix_games_match_including_errors(seed in 0u64..5000, support in 1usize..5) {
        let game = general_bayesian_game(&[2, 2], &[2, 2], support, false, seed);
        assert_parity(&game, legacy_matrix_complete_info(&game), "general 2x2");
        let game = general_bayesian_game(&[2, 2], &[3, 2], support, true, seed);
        assert_parity(&game, legacy_matrix_complete_info(&game), "general with infinities");
    }

    #[test]
    fn directed_ncs_games_match_the_legacy_loop(seed in 0u64..2000) {
        let game = random_bayesian_ncs(Direction::Directed, 5, 0.4, 2, 2, seed)
            .expect("connected generator");
        let reference = legacy_ncs_complete_info(&game, PathLimits::default());
        assert_parity(&game, reference, "directed ncs");
    }

    #[test]
    fn undirected_ncs_games_match_the_legacy_loop(seed in 0u64..2000) {
        let game = random_bayesian_ncs(Direction::Undirected, 4, 0.5, 3, 2, seed)
            .expect("connected generator");
        let reference = legacy_ncs_complete_info(&game, PathLimits::default());
        assert_parity(&game, reference, "undirected ncs");
    }

    /// Length-limited enumeration: candidate sets miss some simple paths,
    /// so stability checks take the kernel's Dijkstra branch.
    #[test]
    fn length_limited_ncs_games_match_the_legacy_loop(seed in 0u64..500) {
        let limits = PathLimits { max_paths: 100_000, max_len: 2 };
        let game = complete_network_game(seed, limits);
        assert_parity(&game, legacy_ncs_complete_info(&game, limits), "ncs max_len=2");
    }
}

/// A path-count limit the enumeration hits: the same model error, at the
/// same agent, from both paths.
#[test]
fn truncated_path_enumeration_reports_the_same_error() {
    let limits = PathLimits {
        max_paths: 2,
        max_len: usize::MAX,
    };
    let game = complete_network_game(7, limits);
    let reference = legacy_ncs_complete_info(&game, limits);
    assert!(reference.is_err(), "the fixture must truncate");
    assert_parity(&game, reference, "ncs max_paths=2");
}

#[test]
fn gworst_families_match_the_legacy_loop() {
    for k in 3..=12 {
        for variant in [GWorstVariant::InvK, GWorstVariant::Half] {
            let gworst = GWorstGame::new(k, variant).expect("valid k");
            let game = gworst.game();
            let reference = legacy_ncs_complete_info(game, PathLimits::default());
            assert!(reference.is_ok(), "k={k} {variant:?}");
            assert_parity(game, reference, &format!("G_worst k={k} {variant:?}"));
        }
    }
}

/// States of 4^7 = 16,384 profiles: large enough for the work-stealing
/// sweep when unreduced, symmetric enough for the orbit sweep to reduce
/// them.
#[test]
fn large_symmetric_states_match_across_threads_and_symmetry() {
    for states in [1, 2] {
        let game = symmetric_congestion_game(7, 4, states);
        let reference = legacy_matrix_complete_info(&game);
        assert_parity(&game, reference, &format!("symmetric 7x4, {states} states"));
    }
}

/// A state without a pure equilibrium behind solvable ones: the error
/// names that state, not the first.
#[test]
fn no_equilibrium_error_names_the_failing_state() {
    let coordination =
        MatrixFormGame::from_fn(2, &[2, 2], |_, a| if a[0] == a[1] { 0.0 } else { 1.0 });
    let pennies = MatrixFormGame::from_fn(2, &[2, 2], |i, a| {
        let matched = a[0] == a[1];
        if (i == 0) == matched {
            0.0
        } else {
            1.0
        }
    });
    let game = BayesianGame::new(
        vec![3, 1],
        vec![
            (vec![0, 0], 0.5, coordination.clone()),
            (vec![1, 0], 0.25, coordination),
            (vec![2, 0], 0.25, pennies),
        ],
    )
    .expect("valid game");
    let reference = legacy_matrix_complete_info(&game);
    assert!(matches!(
        reference,
        Err(SolveError::NoStateEquilibrium { state: 2 })
    ));
    assert_parity(&game, reference, "pennies in state 2");
}

/// Each state of `G_worst` with k = 23 has 2^24 (or 2^23) profiles, over
/// the enumeration limit. The complete-information side is always exact,
/// so even the sampling backend — which never sizes the Bayesian space —
/// must refuse it, with the NCS error, before sweeping anything.
#[test]
fn per_state_enumeration_bound_holds_under_sampling() {
    let gworst = GWorstGame::new(23, GWorstVariant::InvK).expect("valid k");
    let solver = Solver::builder()
        .backend(Backend::MonteCarloSampling {
            samples: 4,
            seed: 1,
        })
        .max_profiles(u128::MAX)
        .build();
    let unreduced = Unreduced(gworst.game().clone());
    for (label, result) in [
        ("reduced", gworst.solve_with(&solver)),
        ("unreduced", solver.solve(&unreduced)),
    ] {
        match result {
            Err(SolveError::Model(inner)) => assert_eq!(
                inner.downcast_ref::<NcsError>(),
                Some(&NcsError::TooLarge(EnumerationError { required: 1 << 24 })),
                "{label}"
            ),
            other => panic!("{label}: expected the per-state bound, got {other:?}"),
        }
    }
}
