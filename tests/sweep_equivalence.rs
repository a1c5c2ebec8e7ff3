//! Tentpole parity layer of the work-stealing + symmetry-orbit sweep:
//! the optimized sweep paths are **bit-for-bit** equivalent to the
//! reference paths, proven on the canonical wire encoding.
//!
//! Two equivalences, each over random games *and* construction games,
//! every backend, and thread counts 1/2/4/8:
//!
//! * **work-stealing ≡ sequential** — the full [`bayesian_ignorance::core::SolveReport`]
//!   encodes to identical canonical bytes whatever the thread count,
//!   including on spaces large enough to actually cross the
//!   work-stealing threshold ([`PARALLEL_SWEEP_MIN_PROFILES`]);
//! * **orbit-reduced ≡ unreduced** — the solver's orbit-reduced solve
//!   encodes to the same canonical bytes as the solve of the same model
//!   through [`Unreduced`] (every profile swept), and
//!   [`Symmetry::detect`] finds strictly fewer orbits than profiles.
//!
//! Sampling backends don't sweep, so for them the invariance is that
//! the knobs are inert: thread count and symmetry must not change the
//! report at all.

use bayesian_ignorance::constructions::gworst::{GWorstGame, GWorstVariant};
use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{Backend, PARALLEL_SWEEP_MIN_PROFILES};
use bayesian_ignorance::core::{
    BayesianGame, BayesianModel, CompiledSpace, MatrixFormGame, SolveError, SolveReport, Solver,
    Symmetry,
};
use bayesian_ignorance::util::Encode;
use bi_bench::Unreduced;

/// The canonical wire bytes of a report — the equality notion of this
/// whole test file. Two reports with equal canonical bytes are
/// indistinguishable to every downstream consumer (cache, service,
/// bench baselines).
fn canonical(report: &SolveReport) -> String {
    report.encode().canonical_string()
}

fn solver(backend: Backend, threads: usize) -> Solver {
    Solver::builder().backend(backend).threads(threads).build()
}

/// Solves `model` at every thread count and asserts all reports encode
/// to the same canonical bytes as the sequential (threads = 1) one.
fn assert_thread_parity<M: BayesianModel>(model: &M, backend: Backend) {
    let baseline = solver(backend, 1).solve(model).unwrap();
    let want = canonical(&baseline);
    for threads in [2usize, 4, 8] {
        let report = solver(backend, threads).solve(model).unwrap();
        assert_eq!(
            canonical(&report),
            want,
            "threads={threads} must be bit-for-bit identical to sequential (backend {backend:?})"
        );
    }
}

/// The symmetry the solver's exhaustive sweep reduces `model` by.
fn symmetry_of<M: BayesianModel>(model: &M) -> Symmetry {
    Symmetry::detect(model, &CompiledSpace::compile(model).unwrap())
}

/// Asserts the orbit-reduced solve is equivalent to the unreduced one:
/// identical canonical report bytes, `profiles_evaluated` included.
/// Returns the detected symmetry for the caller's orbit assertions.
fn assert_orbit_equivalence<M: BayesianModel + Clone>(model: &M) -> Symmetry {
    let full = Solver::default().solve(&Unreduced(model.clone())).unwrap();
    let reduced = Solver::default().solve(model).unwrap();
    assert_eq!(
        canonical(&reduced),
        canonical(&full),
        "orbit-reduced report must be bit-for-bit the unreduced one"
    );
    let symmetry = symmetry_of(model);
    let orbits = symmetry.orbit_count().unwrap();
    if symmetry.is_trivial() {
        assert_eq!(orbits, full.profiles_evaluated);
    } else {
        assert!(orbits < full.profiles_evaluated);
        assert!(symmetry.group_order_saturating() >= 2);
        // `Budget::max_profiles` gates the orbits actually swept: a cap
        // of exactly `orbits` admits the solve, one less refuses it.
        let capped = |cap: u128| Solver::builder().max_profiles(cap).build().solve(model);
        assert_eq!(canonical(&capped(orbits).unwrap()), canonical(&reduced));
        match capped(orbits - 1) {
            Err(SolveError::BudgetExceeded { required, .. }) => assert_eq!(required, orbits),
            other => panic!("a cap below the orbit count must refuse the solve: {other:?}"),
        }
    }
    symmetry
}

/// A fully symmetric `k`-agent game: every agent has one type and the
/// same action count, and the cost of a profile depends only on the
/// *multiset* of actions (plus a seed-mixed term), so all agents are
/// interchangeable.
fn symmetric_game(k: usize, actions: usize, seed: u64) -> BayesianGame {
    let counts = vec![actions; k];
    let matrix = MatrixFormGame::from_fn(k, &counts, move |_, a| {
        let mut sorted: Vec<u32> = a.iter().map(|&x| x as u32).collect();
        sorted.sort_unstable();
        let mut acc = 1.0;
        for (rank, &x) in sorted.iter().enumerate() {
            acc += ((u64::from(x) + 1) * (rank as u64 + 2) + seed % 7) as f64;
        }
        acc
    });
    BayesianGame::new(vec![1; k], vec![(vec![0; k], 1.0, matrix)]).unwrap()
}

/// An asymmetric exact-potential game big enough to cross the
/// work-stealing threshold: 7 agents × 4 actions = 4^7 = 16384 profiles.
/// Separable own-cost plus a common term guarantees a pure equilibrium.
fn large_asymmetric_game() -> BayesianGame {
    let k = 7;
    let matrix = MatrixFormGame::from_fn(k, &[4; 7], |i, a| {
        let own = ((i + 1) * (a[i] * a[i] + 3 * a[i] + 1)) % 13;
        let common = a
            .iter()
            .enumerate()
            .map(|(j, &x)| (x + 1) * (j + 3))
            .sum::<usize>()
            % 17;
        (own + common) as f64
    });
    BayesianGame::new(vec![1; k], vec![(vec![0; k], 1.0, matrix)]).unwrap()
}

/// A game whose *orbit domain* crosses the work-stealing threshold: two
/// interchangeable binary agents in front of seven asymmetric 4-action
/// agents. Full space 2·2·4^7 = 65536; orbits 3·4^7 = 49152 ≥ 2^14, so
/// the symmetry-reduced sweep itself runs under work-stealing.
fn large_partially_symmetric_game() -> BayesianGame {
    let mut counts = vec![2usize, 2];
    counts.extend(std::iter::repeat_n(4, 7));
    let matrix = MatrixFormGame::from_fn(9, &counts, |i, a| {
        // Symmetric in agents 0 and 1 (multiset dependence), asymmetric
        // beyond; exact-potential shape as above.
        let front = (a[0] + a[1]) * 5 + a[0] * a[1];
        let own = if i < 2 {
            front
        } else {
            ((i - 1) * (a[i] * a[i] + 3 * a[i] + 1)) % 13
        };
        let common = a
            .iter()
            .enumerate()
            .skip(2)
            .map(|(j, &x)| (x + 1) * (j + 1))
            .sum::<usize>()
            % 17;
        (own + common) as f64
    });
    BayesianGame::new(vec![1; 9], vec![(vec![0; 9], 1.0, matrix)]).unwrap()
}

#[test]
fn random_games_are_thread_invariant_on_every_backend() {
    for seed in [3u64, 17, 92] {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 3], 2, seed);
        for backend in [
            Backend::ExhaustiveEnum,
            Backend::BestResponseDynamics { restarts: 4, seed },
            Backend::MonteCarloSampling { samples: 32, seed },
        ] {
            assert_thread_parity(&game, backend);
            assert_thread_parity(&Unreduced(game.clone()), backend);
        }
    }
}

#[test]
fn symmetric_random_games_orbit_sweep_is_equivalent() {
    for (k, actions, seed) in [(3usize, 2usize, 5u64), (4, 3, 11), (5, 2, 23)] {
        let game = symmetric_game(k, actions, seed);
        let symmetry = assert_orbit_equivalence(&game);
        let factorial: u128 = (2..=k as u128).product();
        assert_eq!(symmetry.group_order_saturating(), factorial);
        assert_eq!(symmetry.classes().len(), 1, "one class of all agents");
        // Orbit-reduced sweeps are thread-invariant too.
        assert_thread_parity(&game, Backend::ExhaustiveEnum);
    }
}

#[test]
fn asymmetric_random_games_degrade_gracefully_under_auto() {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 3], 2, 41);
    let symmetry = assert_orbit_equivalence(&game);
    assert!(symmetry.is_trivial(), "no symmetry to exploit");
}

#[test]
fn gworst_construction_orbit_sweep_is_equivalent() {
    for variant in [GWorstVariant::Half, GWorstVariant::InvK] {
        let g = GWorstGame::new(5, variant).unwrap();
        let symmetry = assert_orbit_equivalence(g.game());
        assert_eq!(
            symmetry.group_order_saturating(),
            120,
            "S_5 on the u→w agents"
        );
        assert_thread_parity(g.game(), Backend::ExhaustiveEnum);
        // Sampling backends must treat threads and symmetry as inert on
        // the construction too.
        let backend = Backend::MonteCarloSampling {
            samples: 16,
            seed: 7,
        };
        let a = solver(backend, 1)
            .solve(&Unreduced(g.game().clone()))
            .unwrap();
        let b = solver(backend, 4).solve(g.game()).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
    }
}

#[test]
fn work_stealing_crosses_the_threshold_bit_for_bit() {
    let game = large_asymmetric_game();
    let space = CompiledSpace::compile(&game).unwrap();
    assert!(
        space.space_size().unwrap() >= PARALLEL_SWEEP_MIN_PROFILES,
        "the fixture must actually exercise the parallel path"
    );
    assert_thread_parity(&game, Backend::ExhaustiveEnum);
}

#[test]
fn work_stealing_over_the_orbit_domain_is_bit_for_bit() {
    let game = large_partially_symmetric_game();
    let symmetry = assert_orbit_equivalence(&game);
    assert_eq!(symmetry.group_order_saturating(), 2);
    assert!(
        symmetry.orbit_count().unwrap() >= PARALLEL_SWEEP_MIN_PROFILES,
        "the reduced domain itself must cross the work-stealing threshold"
    );
    assert_thread_parity(&game, Backend::ExhaustiveEnum);
    // The unreduced sweep of the same game crosses it too.
    assert_thread_parity(&Unreduced(game), Backend::ExhaustiveEnum);
}
