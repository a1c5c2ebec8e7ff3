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
//!
//! Under both sits the check the orbit sweep's equilibrium test rests
//! on: at every canonical profile, skipping the slots of agents that
//! repeat their class predecessor's tuple
//! ([`Symmetry::mark_repeats`]) leaves the verdict of the full check.

use bayesian_ignorance::constructions::gworst::{GWorstGame, GWorstVariant};
use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{Backend, PARALLEL_SWEEP_MIN_PROFILES};
use bayesian_ignorance::core::{
    BayesianGame, BayesianModel, CompiledSpace, MatrixFormGame, SolveError, SolveReport, Solver,
    Symmetry,
};
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::{Direction, Graph};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
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
    BayesianGame::new(
        vec![1; k],
        vec![(vec![0; k], 1.0, symmetric_matrix(k, actions, seed))],
    )
    .unwrap()
}

/// A `k`-agent matrix game whose cost depends only on the multiset of
/// actions (plus a seed-mixed term): every agent's table is the same and
/// invariant under any permutation of the agents.
fn symmetric_matrix(k: usize, actions: usize, seed: u64) -> MatrixFormGame {
    MatrixFormGame::from_fn(k, &vec![actions; k], move |_, a| {
        let mut sorted: Vec<u32> = a.iter().map(|&x| x as u32).collect();
        sorted.sort_unstable();
        let mut acc = 1.0;
        for (rank, &x) in sorted.iter().enumerate() {
            acc += ((u64::from(x) + 1) * (rank as u64 + 2) + seed % 7) as f64;
        }
        acc
    })
}

/// Two-type agents that are interchangeable: all agents share their type
/// in both states, and each state's cost is symmetric. An agent's tuple
/// is then two digits, one per type.
fn symmetric_two_type_game(k: usize, actions: usize, seed: u64) -> BayesianGame {
    BayesianGame::new(
        vec![2; k],
        vec![
            (vec![0; k], 0.25, symmetric_matrix(k, actions, seed)),
            (vec![1; k], 0.75, symmetric_matrix(k, actions, seed + 3)),
        ],
    )
    .unwrap()
}

/// A 4-vertex network (a square `0-1-2-3-0` with the chord `0-2`) in which
/// agents 0, 1 and 2 share their terminal pairs: in every state they all
/// travel `0→3` or all `1→2`, while agent 3 travels `0→2` or `1→3` on its
/// own coin. So agents 0–2 form one class of interchangeable agents.
fn shared_terminals_game(limits: PathLimits) -> BayesianNcsGame {
    let mut g = Graph::new(Direction::Undirected);
    let n = g.add_nodes(4);
    for (a, b, cost) in [
        (0, 1, 1.0),
        (1, 2, 1.5),
        (2, 3, 0.75),
        (3, 0, 2.0),
        (0, 2, 1.25),
    ] {
        g.add_edge(n[a], n[b], cost);
    }
    let mut support = Vec::new();
    for (shared, p) in [((n[0], n[3]), 0.6), ((n[1], n[2]), 0.4)] {
        for (own, q) in [((n[0], n[2]), 0.5), ((n[1], n[3]), 0.5)] {
            support.push((vec![shared, shared, shared, own], p * q));
        }
    }
    BayesianNcsGame::with_limits(g, Prior::joint(support), limits).unwrap()
}

/// Walks every canonical profile of `model`, and of each of its state
/// games that has interchangeable agents, with one kernel stepped as the
/// orbit sweep steps it. At each profile it checks that the equilibrium
/// check without the repeats [`Symmetry::mark_repeats`] marks equals the
/// AND over every slot's verdict (and the model's own
/// [`BayesianModel::is_equilibrium`]), and that class neighbours playing
/// equal tuples get equal verdicts slot by slot, while only they are
/// marked.
fn assert_repeat_verdicts<M: BayesianModel>(model: &M, context: &str) {
    let mut walks = vec![(context.to_string(), walk_repeat_verdicts(model, context))];
    for t in 0..model.state_count() {
        let state = model.state_model(t, 1.0);
        let space = CompiledSpace::compile(&state).unwrap();
        if !Symmetry::detect(&state, &space).is_trivial() {
            let context = format!("{context}, state {t}");
            walks.push((context.clone(), walk_repeat_verdicts(&state, &context)));
        }
    }
    // The model itself must exercise both sides of the check: a profile
    // refuted while some slot is skipped, and an equilibrium found so.
    let (skipped_refuted, skipped_equilibria) = walks[0].1;
    assert!(skipped_refuted > 0, "{context}: no refutation with a skip");
    assert!(
        skipped_equilibria > 0,
        "{context}: no equilibrium with a skip"
    );
}

/// One walk of [`assert_repeat_verdicts`]; returns how many profiles
/// with a marked slot were refuted and how many were equilibria.
fn walk_repeat_verdicts<M: BayesianModel>(model: &M, context: &str) -> (usize, usize) {
    let space = CompiledSpace::compile(model).unwrap();
    let sym = Symmetry::detect(model, &space);
    assert!(!sym.is_trivial(), "{context}: no interchangeable agents");
    let n = space.num_slots();
    let mut agent_slots = vec![Vec::new(); space.num_agents()];
    for j in 0..n {
        agent_slots[space.slot(j).0].push(j);
    }
    let lowered = model.lower(&space);
    lowered.prepare_sweep();
    let mut kernel = lowered.kernel();
    let mut digits = vec![0u32; n];
    sym.decode_canonical(0, &mut digits);
    kernel.seed(&digits);
    let mut repeats = vec![false; n];
    let (mut refuted, mut equilibria) = (0, 0);
    loop {
        let at = format!("{context}: digits {digits:?}");
        sym.mark_repeats(&digits, 0, &mut repeats);
        let skipping = kernel.is_equilibrium_except(&repeats);
        let verdicts: Vec<bool> = (0..n).map(|j| kernel.slot_is_stable(j)).collect();
        let full = (0..n).all(|j| space.weight(j) == 0.0 || verdicts[j]);
        assert_eq!(skipping, full, "{at}: skipping repeats changed the verdict");
        assert_eq!(kernel.is_equilibrium(), full, "{at}: full check");
        let profile = space.materialize(&digits);
        assert_eq!(model.is_equilibrium(&profile), full, "{at}: model check");
        for class in sym.classes() {
            for pair in class.windows(2) {
                let (pred, member) = (&agent_slots[pair[0]], &agent_slots[pair[1]]);
                let equal = pred
                    .iter()
                    .zip(member)
                    .all(|(&x, &y)| digits[x] == digits[y]);
                for (&x, &y) in pred.iter().zip(member) {
                    assert_eq!(repeats[y], equal, "{at}: slot {y} marked");
                    if equal {
                        assert_eq!(verdicts[y], verdicts[x], "{at}: slots {x} and {y}");
                    }
                }
            }
        }
        if repeats.contains(&true) {
            if full {
                equilibria += 1;
            } else {
                refuted += 1;
            }
        }
        if !sym.next_canonical(&mut digits, |j, old, new| kernel.advance(j, old, new)) {
            return (refuted, equilibria);
        }
    }
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

#[test]
fn repeats_keep_the_equilibrium_verdict_at_every_canonical_profile() {
    for (k, actions, seed) in [(3usize, 2usize, 5u64), (4, 3, 11), (5, 2, 23)] {
        assert_repeat_verdicts(&symmetric_game(k, actions, seed), "symmetric matrix");
    }
    assert_repeat_verdicts(&symmetric_two_type_game(3, 3, 7), "two-type matrix");
    for variant in [GWorstVariant::Half, GWorstVariant::InvK] {
        for k in [3, 5] {
            let g = GWorstGame::new(k, variant).unwrap();
            assert_repeat_verdicts(g.game(), &format!("G_worst {variant:?} k={k}"));
        }
    }
    // Complete candidates (the scan) and length-limited ones (Dijkstra).
    for max_len in [3, 2] {
        let limits = PathLimits {
            max_paths: 100_000,
            max_len,
        };
        let game = shared_terminals_game(limits);
        assert_repeat_verdicts(&game, &format!("shared terminals, max_len={max_len}"));
        assert_orbit_equivalence(&game);
    }
}
