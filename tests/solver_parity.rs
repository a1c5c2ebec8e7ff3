//! Parity and bracketing properties of the unified solver engine.
//!
//! * [`Backend::ExhaustiveEnum`] must reproduce the legacy `measures()`
//!   algorithm **bit-for-bit** on random games, for both representations
//!   ([`BayesianGame`], [`BayesianNcsGame`]); the reference values are
//!   recomputed here by the pre-redesign enumeration loop, written against
//!   the public iteration APIs.
//! * Threaded sweeps must agree with single-threaded sweeps bit-for-bit.
//! * The sampling backends must bracket the exact measures from inside:
//!   genuine but possibly non-extremal equilibria, `optP` from above.
//! * A budget-exceeding game must *fail* under the exhaustive backend and
//!   *solve* (inexactly) under Monte Carlo sampling.

use bayesian_ignorance::constructions::universal::random_bayesian_ncs;
use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::{MatrixFormGame, ProfileIter};
use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{Backend, SolveError, Solver};
use bayesian_ignorance::core::{nash, BayesianModel, Measures};
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::Direction;
use bayesian_ignorance::ncs::{analysis, BayesianNcsGame, Path};
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

/// The former `nash::equilibrium_cost_range`, verbatim.
fn equilibrium_cost_range(game: &MatrixFormGame) -> Option<(f64, f64)> {
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    let mut found = false;
    for p in game.profiles() {
        if nash::is_nash(game, &p) {
            found = true;
            let k = game.social_cost(&p);
            best = best.min(k);
            worst = worst.max(k);
        }
    }
    found.then_some((best, worst))
}

/// The pre-redesign `BayesianGame::measures()` loop, verbatim, over the
/// public strategy iterator and per-state Nash analysis.
fn reference_matrix_measures(game: &BayesianGame) -> Measures {
    let mut opt_p = f64::INFINITY;
    let mut best_eq_p = f64::INFINITY;
    let mut worst_eq_p = f64::NEG_INFINITY;
    let mut found_eq = false;
    for s in game.strategies().expect("small game") {
        let k = game.social_cost(&s);
        opt_p = opt_p.min(k);
        if game.is_bayesian_equilibrium(&s) {
            found_eq = true;
            best_eq_p = best_eq_p.min(k);
            worst_eq_p = worst_eq_p.max(k);
        }
    }
    assert!(found_eq, "random potential games always have equilibria");
    let mut opt_c = 0.0;
    let mut best_eq_c = 0.0;
    let mut worst_eq_c = 0.0;
    for idx in 0..game.support_len() {
        let (_, prob, state_game) = game.state(idx);
        let (opt, _) = social_optimum(state_game);
        opt_c += prob * opt;
        let (best, worst) = equilibrium_cost_range(state_game).expect("potential game");
        best_eq_c += prob * best;
        worst_eq_c += prob * worst;
    }
    Measures {
        opt_p,
        best_eq_p,
        worst_eq_p,
        opt_c,
        best_eq_c,
        worst_eq_c,
    }
}

/// The pre-redesign `BayesianNcsGame::measures()` loop, verbatim, over the
/// public strategy sets and per-state analysis.
fn reference_ncs_measures(game: &BayesianNcsGame) -> Measures {
    let sets = game.strategy_sets().expect("enumerable");
    let slot_sizes: Vec<usize> = sets.iter().flatten().map(Vec::len).collect();
    let mut slots = Vec::new();
    for (i, types) in game.agent_types().iter().enumerate() {
        for tau in 0..types.len() {
            slots.push((i, tau));
        }
    }
    let mut opt_p = f64::INFINITY;
    let mut best_eq_p = f64::INFINITY;
    let mut worst_eq_p = f64::NEG_INFINITY;
    let mut found_eq = false;
    for assignment in ProfileIter::new(slot_sizes) {
        let mut s: Vec<Vec<Path>> = game
            .agent_types()
            .iter()
            .map(|types| vec![Path::new(); types.len()])
            .collect();
        for (&(i, tau), &choice) in slots.iter().zip(&assignment) {
            s[i][tau] = sets[i][tau][choice].clone();
        }
        let k = game.social_cost(&s);
        opt_p = opt_p.min(k);
        if game.is_bayesian_equilibrium(&s) {
            found_eq = true;
            best_eq_p = best_eq_p.min(k);
            worst_eq_p = worst_eq_p.max(k);
        }
    }
    assert!(found_eq, "NCS games are potential games");
    let mut opt_c = 0.0;
    let mut best_eq_c = 0.0;
    let mut worst_eq_c = 0.0;
    for (idx, (_, prob)) in game.support().iter().enumerate() {
        let a = analysis::analyze(&game.underlying_game(idx), PathLimits::default())
            .expect("analyzable");
        opt_c += prob * a.opt;
        best_eq_c += prob * a.best_eq;
        worst_eq_c += prob * a.worst_eq;
    }
    Measures {
        opt_p,
        best_eq_p,
        worst_eq_p,
        opt_c,
        best_eq_c,
        worst_eq_c,
    }
}

/// Componentwise bit-level equality of two measure sets.
fn bits(m: Measures) -> [u64; 6] {
    [
        m.opt_p.to_bits(),
        m.best_eq_p.to_bits(),
        m.worst_eq_p.to_bits(),
        m.opt_c.to_bits(),
        m.best_eq_c.to_bits(),
        m.worst_eq_c.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Solver` with `ExhaustiveEnum` (both through the wrapper and
    /// directly) reproduces the legacy matrix-form measures bit-for-bit.
    #[test]
    fn exhaustive_matches_legacy_matrix_measures(seed in 0u64..5000, support in 1usize..5) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], support, seed);
        let reference = reference_matrix_measures(&game);
        let wrapper = game.measures().expect("solvable");
        let direct = Solver::default().solve(&game).expect("solvable");
        prop_assert_eq!(bits(reference), bits(wrapper));
        prop_assert_eq!(bits(reference), bits(direct.measures));
        prop_assert!(direct.exact);
        prop_assert_eq!(
            direct.profiles_evaluated,
            game.strategy_space_size().expect("fits in u128")
        );
    }

    /// Same parity for the graph-form representation.
    #[test]
    fn exhaustive_matches_legacy_ncs_measures(seed in 0u64..2000) {
        let game = random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let reference = reference_ncs_measures(&game);
        let wrapper = game.measures().expect("solvable");
        let direct = Solver::default().solve(&game).expect("solvable");
        prop_assert_eq!(bits(reference), bits(wrapper));
        prop_assert_eq!(bits(reference), bits(direct.measures));
    }

    /// Chunked multi-threaded sweeps agree with the single-threaded sweep
    /// bit-for-bit, for any thread count.
    #[test]
    fn threaded_sweep_is_deterministic(seed in 0u64..2000, threads in 2usize..7) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
        let single = Solver::builder().threads(1).build().solve(&game).expect("solvable");
        let multi = Solver::builder().threads(threads).build().solve(&game).expect("solvable");
        prop_assert_eq!(bits(single.measures), bits(multi.measures));
        prop_assert_eq!(single.profiles_evaluated, multi.profiles_evaluated);
    }

    /// Monte Carlo sampling brackets the exact measures from inside:
    /// every reported equilibrium is genuine, so `best-eqP` is approached
    /// from above and `worst-eqP` from below; `optP` from above.
    #[test]
    fn monte_carlo_brackets_exact_measures(seed in 0u64..1000) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed);
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let mc = Solver::builder()
            .backend(Backend::MonteCarloSampling { samples: 64, seed: seed ^ 0xbeef })
            .build()
            .solve(&game)
            .expect("solvable");
        prop_assert!(!mc.exact);
        let m = mc.measures;
        prop_assert!(exact.opt_p <= m.opt_p + 1e-12);
        prop_assert!(exact.best_eq_p <= m.best_eq_p + 1e-12);
        prop_assert!(m.best_eq_p <= exact.worst_eq_p + 1e-12);
        prop_assert!(exact.best_eq_p <= m.worst_eq_p + 1e-12);
        prop_assert!(m.worst_eq_p <= exact.worst_eq_p + 1e-12);
        m.verify_chain().expect("Observation 2.2 survives sampling");
    }

    /// Monte Carlo on NCS games also brackets the exact measures.
    #[test]
    fn monte_carlo_brackets_exact_ncs_measures(seed in 0u64..500) {
        let game = random_bayesian_ncs(Direction::Undirected, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let mc = Solver::builder()
            .backend(Backend::MonteCarloSampling { samples: 32, seed })
            .build()
            .solve(&game)
            .expect("solvable");
        prop_assert!(exact.opt_p <= mc.measures.opt_p + 1e-12);
        prop_assert!(exact.best_eq_p <= mc.measures.best_eq_p + 1e-12);
        prop_assert!(mc.measures.worst_eq_p <= exact.worst_eq_p + 1e-12);
    }
}

/// The acceptance scenario: a game whose strategy space exceeds the
/// budget errors under exhaustive enumeration but solves (inexactly)
/// under Monte Carlo sampling.
#[test]
fn budget_exceeding_game_solves_with_sampling() {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, 7);
    let space = game.strategy_space_size().unwrap();
    assert!(space > 4);

    let exhaustive = Solver::builder().max_profiles(4).build().solve(&game);
    match exhaustive {
        Err(SolveError::BudgetExceeded {
            required,
            max_profiles,
        }) => {
            assert_eq!(required, space);
            assert_eq!(max_profiles, 4);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    let report = Solver::builder()
        .max_profiles(4)
        .backend(Backend::MonteCarloSampling {
            samples: 32,
            seed: 1,
        })
        .build()
        .solve(&game)
        .expect("sampling ignores the profile budget");
    assert!(!report.exact);
    assert!(report.profiles_evaluated > 0);
    report.measures.verify_chain().unwrap();
}

/// One generic entry point serves both game representations — the core of
/// the API redesign.
#[test]
fn one_solver_entry_point_serves_both_representations() {
    fn solve_any<M: BayesianModel>(model: &M) -> Measures {
        Solver::builder()
            .threads(2)
            .build()
            .solve(model)
            .expect("solvable")
            .measures
    }

    let (matrix_game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, 3);
    let ncs_game =
        random_bayesian_ncs(Direction::Directed, 4, 0.5, 2, 2, 3).expect("connected generator");
    let a = solve_any(&matrix_game);
    let b = solve_any(&ncs_game);
    a.verify_chain().unwrap();
    b.verify_chain().unwrap();
}

/// Best-response-dynamics restarts find genuine equilibria whose costs lie
/// within the exact equilibrium range.
#[test]
fn brd_backend_reports_genuine_equilibria() {
    for seed in 0..8 {
        let game =
            random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, 100 + seed).expect("generator");
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let brd = Solver::builder()
            .backend(Backend::BestResponseDynamics {
                restarts: 6,
                seed: 42,
            })
            .build()
            .solve(&game)
            .expect("potential games converge");
        assert!(!brd.exact);
        assert!(
            exact.best_eq_p <= brd.measures.best_eq_p + 1e-12,
            "seed {seed}"
        );
        assert!(
            brd.measures.worst_eq_p <= exact.worst_eq_p + 1e-12,
            "seed {seed}"
        );
    }
}
