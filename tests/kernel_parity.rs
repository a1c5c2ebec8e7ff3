//! Parity of the compiled evaluation kernels (`bi_core::compiled`)
//! against the pre-compiled evaluation strategy, **bit for bit**.
//!
//! Two independent reference axes:
//!
//! * a verbatim reimplementation of the pre-change sweep (nested-profile
//!   odometer, `social_cost`/`is_equilibrium` recomputed from scratch per
//!   profile) over the public iteration APIs — the historical ground
//!   truth;
//! * an [`Uncompiled`] wrapper that forwards every model primitive but
//!   *not* the `lower` override, forcing the solver through the generic
//!   clone-based kernel — so compiled-vs-generic parity is checked on the
//!   same engine for **all three backends**, not just the sweep.
//!
//! Both representations are covered (matrix form and NCS graph form),
//! across 1/2/4 worker threads, including NCS games with restrictive
//! path-length limits (where stability checks must fall back to the
//! legacy per-slot Dijkstra instead of the candidate scan).

use bayesian_ignorance::constructions::universal::random_bayesian_ncs;
use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::ProfileIter;
use bayesian_ignorance::core::model::Profile;
use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{Backend, SolveError, SolveReport, Solver};
use bayesian_ignorance::core::{BayesianModel, Measures};
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::{Direction, Graph};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
use bi_bench::Unreduced;
use proptest::prelude::*;

/// Forwards every [`BayesianModel`] primitive (including the fused
/// overrides) but *not* `lower`, so the solver uses the generic
/// clone-based kernel — the pre-compiled evaluation strategy on the
/// modern engine. Its state models are wrapped too, so the
/// complete-information sweeps run on the generic kernel as well. Nor
/// does it forward `agents_interchangeable`, so its sweeps are
/// unreduced, like [`Unreduced`]'s.
struct Uncompiled<M>(M);

impl<M: BayesianModel> BayesianModel for Uncompiled<M> {
    type Action = M::Action;

    fn num_agents(&self) -> usize {
        self.0.num_agents()
    }

    fn type_count(&self, agent: usize) -> usize {
        self.0.type_count(agent)
    }

    fn type_weight(&self, agent: usize, tau: usize) -> f64 {
        self.0.type_weight(agent, tau)
    }

    fn candidate_actions(&self, agent: usize, tau: usize) -> Result<Vec<M::Action>, SolveError> {
        self.0.candidate_actions(agent, tau)
    }

    fn candidate_count(&self, agent: usize, tau: usize) -> Result<usize, SolveError> {
        self.0.candidate_count(agent, tau)
    }

    fn social_cost(&self, profile: &Profile<Self>) -> f64 {
        self.0.social_cost(profile)
    }

    fn interim_cost(
        &self,
        agent: usize,
        tau: usize,
        action: &M::Action,
        profile: &Profile<Self>,
    ) -> f64 {
        self.0.interim_cost(agent, tau, action, profile)
    }

    fn best_response(&self, agent: usize, tau: usize, profile: &Profile<Self>) -> (M::Action, f64) {
        self.0.best_response(agent, tau, profile)
    }

    fn slot_is_stable(&self, agent: usize, tau: usize, profile: &Profile<Self>) -> bool {
        self.0.slot_is_stable(agent, tau, profile)
    }

    fn slot_improvement(
        &self,
        agent: usize,
        tau: usize,
        profile: &Profile<Self>,
    ) -> Option<M::Action> {
        self.0.slot_improvement(agent, tau, profile)
    }

    fn state_count(&self) -> usize {
        self.0.state_count()
    }

    fn state_prob(&self, idx: usize) -> f64 {
        self.0.state_prob(idx)
    }

    fn state_model(&self, idx: usize, prob: f64) -> Self {
        Uncompiled(self.0.state_model(idx, prob))
    }

    fn state_too_large(&self, required: u128) -> SolveError {
        self.0.state_too_large(required)
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

fn assert_reports_identical(a: &SolveReport, b: &SolveReport, context: &str) {
    assert_eq!(bits(a.measures), bits(b.measures), "{context}: measures");
    assert_eq!(
        a.profiles_evaluated, b.profiles_evaluated,
        "{context}: profiles"
    );
    assert_eq!(a.sample_cap, b.sample_cap, "{context}: sample cap");
    assert_eq!(a.exact, b.exact, "{context}: exactness");
}

/// The pre-change exhaustive sweep, verbatim, over the generic model API:
/// candidate odometer with per-profile recomputation. Returns the three
/// partial-information extrema.
fn reference_sweep<M: BayesianModel>(model: &M) -> (f64, f64, f64, u128) {
    let mut slots = Vec::new();
    let mut sets: Vec<Vec<M::Action>> = Vec::new();
    for i in 0..model.num_agents() {
        for tau in 0..model.type_count(i) {
            slots.push((i, tau));
            sets.push(model.candidate_actions(i, tau).expect("enumerable"));
        }
    }
    let sizes: Vec<usize> = sets.iter().map(Vec::len).collect();
    let mut opt_p = f64::INFINITY;
    let mut best_eq_p = f64::INFINITY;
    let mut worst_eq_p = f64::NEG_INFINITY;
    let mut evaluated = 0u128;
    for assignment in ProfileIter::new(sizes) {
        let mut profile: Profile<M> = (0..model.num_agents()).map(|_| Vec::new()).collect();
        for (&(i, _), (set, &choice)) in slots.iter().zip(sets.iter().zip(&assignment)) {
            profile[i].push(set[choice].clone());
        }
        let k = model.social_cost(&profile);
        evaluated += 1;
        opt_p = opt_p.min(k);
        if model.is_equilibrium(&profile) {
            best_eq_p = best_eq_p.min(k);
            worst_eq_p = worst_eq_p.max(k);
        }
    }
    (opt_p, best_eq_p, worst_eq_p, evaluated)
}

/// The reference sweep against the solver's compiled sweep, both
/// orbit-reduced and through [`Unreduced`].
fn assert_sweep_parity<M: BayesianModel + Clone>(model: &M, context: &str) {
    let (opt_p, best_eq_p, worst_eq_p, evaluated) = reference_sweep(model);
    let unreduced = Unreduced(model.clone());
    for threads in [1usize, 2, 4] {
        let solver = Solver::builder().threads(threads).build();
        let report = solver.solve(model).expect("solvable");
        assert_reports_identical(
            &report,
            &solver.solve(&unreduced).expect("solvable"),
            &format!("{context}: reduced vs unreduced, {threads} threads"),
        );
        assert_eq!(
            opt_p.to_bits(),
            report.measures.opt_p.to_bits(),
            "{context}: optP, {threads} threads"
        );
        assert_eq!(
            best_eq_p.to_bits(),
            report.measures.best_eq_p.to_bits(),
            "{context}: best-eqP, {threads} threads"
        );
        assert_eq!(
            worst_eq_p.to_bits(),
            report.measures.worst_eq_p.to_bits(),
            "{context}: worst-eqP, {threads} threads"
        );
        assert_eq!(evaluated, report.profiles_evaluated, "{context}: profiles");
    }
}

/// A complete undirected 5-vertex network with seeded random costs plus a
/// 2-agent × 2-type independent prior — built with explicit [`PathLimits`]
/// so the restrictive-limit tests can force the kernels off the
/// candidate-scan fast path.
fn complete_network_game(seed: u64, limits: PathLimits) -> BayesianNcsGame {
    use rand::Rng;
    let mut rng = bayesian_ignorance::util::rng::seeded(seed);
    let mut g = Graph::new(Direction::Undirected);
    let nodes: Vec<_> = (0..5).map(|_| g.add_node()).collect();
    for a in 0..nodes.len() {
        for b in (a + 1)..nodes.len() {
            let cost = rng.random_range(0.5..2.0);
            g.add_edge(nodes[a], nodes[b], cost);
        }
    }
    let mut pick_pair = || {
        let s = nodes[rng.random_range(0..nodes.len())];
        let t = nodes[rng.random_range(0..nodes.len())];
        (s, t)
    };
    let mut agent_types = Vec::new();
    for _ in 0..2 {
        let first = pick_pair();
        let mut second = pick_pair();
        while second == first {
            second = pick_pair();
        }
        agent_types.push(vec![(first, 0.5), (second, 0.5)]);
    }
    let prior = Prior::independent(agent_types);
    BayesianNcsGame::with_limits(g, prior, limits).expect("complete graph is connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled matrix kernels reproduce the pre-change sweep bit-for-bit
    /// across 1/2/4 threads. With 3–6 actions, and a 3-agent shape, the
    /// odometer's inner cycle is long enough for a memoized interim
    /// vector to be reused and then invalidated.
    #[test]
    fn matrix_kernel_matches_reference_sweep(
        seed in 0u64..5000,
        support in 1usize..5,
        actions in 2usize..7,
        three_agents in 0usize..2,
    ) {
        let (types, action_counts) = if three_agents == 1 {
            (vec![1, 2, 2], vec![actions; 3])
        } else {
            (vec![2, 2], vec![actions; 2])
        };
        let (game, _) = random_bayesian_potential_game(&types, &action_counts, support, seed);
        assert_sweep_parity(&game, &format!("matrix {types:?} x {actions} actions"));
    }

    /// Compiled NCS kernels reproduce the pre-change sweep bit-for-bit
    /// across 1/2/4 threads.
    #[test]
    fn ncs_kernel_matches_reference_sweep(seed in 0u64..2000) {
        let game = random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        assert_sweep_parity(&game, "ncs");
    }

    /// Same parity when path enumeration is length-limited: the candidate
    /// sets no longer cover every simple path, so the kernel's stability
    /// checks must run the legacy per-slot Dijkstra — and still agree.
    #[test]
    fn length_limited_ncs_kernel_matches_reference_sweep(seed in 0u64..500) {
        let limits = PathLimits { max_paths: 100_000, max_len: 2 };
        let game = complete_network_game(seed, limits);
        assert_sweep_parity(&game, "ncs/max_len=2");
    }

    /// The matrix kernel agrees with the generic kernel after every step
    /// of a seeded walk of single-slot moves on arbitrary slots — the
    /// non-odometer orders of orbit sweeps and dynamics, which must still
    /// invalidate every memoized interim vector that reads the moved digit.
    #[test]
    fn matrix_kernel_tracks_generic_kernel_under_arbitrary_moves(seed in 0u64..2000) {
        use bayesian_ignorance::core::compiled::{CompiledSpace, GenericLowered, Lowered};
        use rand::Rng;
        let game = pinned_infinite_game(seed);
        let space = CompiledSpace::compile(&game).expect("compiles");
        let compiled = game.lower(&space);
        let generic = GenericLowered::new(&game, &space);
        let mut kernel = compiled.kernel();
        let mut reference = generic.kernel();
        let mut rng = bayesian_ignorance::util::rng::seeded(seed ^ 0x5eed);
        let mut digits = vec![0u32; space.num_slots()];
        space.random_digits(&mut rng, &mut digits);
        kernel.seed(&digits);
        reference.seed(&digits);
        let movable: Vec<usize> = (0..space.num_slots())
            .filter(|&j| space.slot_size(j) > 1)
            .collect();
        for step in 0..64 {
            let context = format!("seed {seed}, step {step}, digits {digits:?}");
            assert_eq!(
                kernel.social_cost().to_bits(),
                reference.social_cost().to_bits(),
                "{context}: social cost"
            );
            assert_eq!(
                kernel.is_equilibrium(),
                reference.is_equilibrium(),
                "{context}: equilibrium"
            );
            for j in 0..space.num_slots() {
                assert_eq!(
                    kernel.slot_improvement(j),
                    reference.slot_improvement(j),
                    "{context}: improvement at slot {j}"
                );
            }
            let slot = movable[rng.random_range(0..movable.len())];
            let old = digits[slot];
            let new = (old + rng.random_range(1..space.slot_size(slot))) % space.slot_size(slot);
            digits[slot] = new;
            kernel.advance(slot, old, new);
            reference.advance(slot, old, new);
        }
    }

    /// All three backends produce identical reports through the compiled
    /// kernels and through the generic clone-based kernel (forced via a
    /// wrapper that hides the `lower` override) — matrix form.
    #[test]
    fn matrix_backends_match_generic_kernel(seed in 0u64..2000) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
        let generic = Uncompiled(game.clone());
        for backend in [
            Backend::ExhaustiveEnum,
            Backend::BestResponseDynamics { restarts: 4, seed },
            Backend::MonteCarloSampling { samples: 24, seed },
        ] {
            let solver = Solver::builder().backend(backend).build();
            let compiled = solver.solve(&game).expect("solvable");
            let reference = solver.solve(&generic).expect("solvable");
            assert_reports_identical(&compiled, &reference, &format!("{backend:?}"));
            let unreduced = solver.solve(&Unreduced(game.clone())).expect("solvable");
            assert_reports_identical(&unreduced, &reference, &format!("{backend:?}, unreduced"));
        }
    }

    /// All three backends produce identical reports through the compiled
    /// kernels and through the generic clone-based kernel — NCS form.
    #[test]
    fn ncs_backends_match_generic_kernel(seed in 0u64..500) {
        let game = random_bayesian_ncs(Direction::Undirected, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let generic = Uncompiled(game.clone());
        for backend in [
            Backend::ExhaustiveEnum,
            Backend::BestResponseDynamics { restarts: 4, seed },
            Backend::MonteCarloSampling { samples: 16, seed },
        ] {
            let solver = Solver::builder().backend(backend).build();
            let compiled = solver.solve(&game).expect("solvable");
            let reference = solver.solve(&generic).expect("solvable");
            assert_reports_identical(&compiled, &reference, &format!("{backend:?}"));
            let unreduced = solver.solve(&Unreduced(game.clone())).expect("solvable");
            assert_reports_identical(&unreduced, &reference, &format!("{backend:?}, unreduced"));
        }
    }
}

/// A 3-agent matrix game with type counts `[1, 2, 3]` and 3–5 actions per
/// agent. Its support is 2–4 type profiles that never use agent 2's third
/// type, so that slot (and sometimes agent 1's second type) is pinned at
/// zero marginal. About one cost entry in twelve is `f64::INFINITY`.
fn pinned_infinite_game(seed: u64) -> BayesianGame {
    use bayesian_ignorance::core::game::MatrixFormGame;
    use rand::Rng;
    let mut rng = bayesian_ignorance::util::rng::seeded(seed);
    let actions: Vec<usize> = (0..3).map(|_| rng.random_range(3..6)).collect();
    let mut profiles = vec![vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 0], vec![0, 1, 1]];
    let keep = rng.random_range(2..5);
    while profiles.len() > keep {
        profiles.remove(rng.random_range(0..profiles.len()));
    }
    let weights: Vec<f64> = profiles
        .iter()
        .map(|_| rng.random_range(0.2..1.0))
        .collect();
    let total: f64 = weights.iter().sum();
    let support = profiles
        .into_iter()
        .zip(&weights)
        .map(|(types, &w)| {
            let game = MatrixFormGame::from_fn(3, &actions, |_, _| {
                if rng.random_range(0..12) == 0 {
                    f64::INFINITY
                } else {
                    f64::from(rng.random_range(0u32..10))
                }
            });
            (types, w / total, game)
        })
        .collect();
    BayesianGame::new(vec![1, 2, 3], support).expect("valid game")
}

/// The profile budget and space sizing behave identically through the
/// kernels (the lowering happens after the budget gate).
#[test]
fn budget_gate_is_unchanged_by_lowering() {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, 5);
    let space = game.strategy_space_size().unwrap();
    let err = Solver::builder()
        .max_profiles(space - 1)
        .build()
        .solve(&game)
        .unwrap_err();
    assert!(matches!(err, SolveError::BudgetExceeded { required, .. } if required == space));
}

/// An exact-potential matrix game with 4^7 = 16384 profiles — exactly at
/// [`PARALLEL_SWEEP_MIN_PROFILES`], so threads > 1 take the work-stealing
/// path rather than the small-space sequential fallback.
fn threshold_sized_game() -> BayesianGame {
    use bayesian_ignorance::core::game::MatrixFormGame;
    let matrix = MatrixFormGame::from_fn(7, &[4; 7], |i, a| {
        let own = ((i + 1) * (a[i] * a[i] + 3 * a[i] + 1)) % 13;
        let common = a
            .iter()
            .enumerate()
            .map(|(j, &x)| (x + 1) * (j + 3))
            .sum::<usize>()
            % 17;
        (own + common) as f64
    });
    BayesianGame::new(vec![1; 7], vec![(vec![0; 7], 1.0, matrix)]).unwrap()
}

/// The work-stealing scheduler produces **byte-identical** canonical
/// report encodings across 1/2/4/8 threads — the wire form, not just the
/// in-memory measures, is thread-invariant.
#[test]
fn work_stealing_reports_encode_identically_across_thread_counts() {
    use bayesian_ignorance::core::solve::PARALLEL_SWEEP_MIN_PROFILES;
    use bayesian_ignorance::util::Encode;
    let game = threshold_sized_game();
    assert!(game.strategy_space_size().unwrap() >= PARALLEL_SWEEP_MIN_PROFILES);
    let baseline = Solver::builder().threads(1).build().solve(&game).unwrap();
    let want = baseline.encode().canonical_string();
    for threads in [2usize, 4, 8] {
        let report = Solver::builder()
            .threads(threads)
            .build()
            .solve(&game)
            .unwrap();
        assert_eq!(
            report.encode().canonical_string(),
            want,
            "{threads} threads: canonical report bytes"
        );
    }
}

/// Budget exhaustion under work-stealing is deterministic and identical
/// to the sequential engine: the gate fires before any sweeping, with
/// the same `required` count at every thread count, and at exactly the
/// required budget the sweep succeeds byte-identically.
#[test]
fn budget_exhaustion_is_identical_under_work_stealing() {
    use bayesian_ignorance::util::Encode;
    let game = threshold_sized_game();
    let space = game.strategy_space_size().unwrap();
    let want = Solver::builder()
        .threads(1)
        .max_profiles(space)
        .build()
        .solve(&game)
        .unwrap()
        .encode()
        .canonical_string();
    for threads in [1usize, 2, 4, 8] {
        let err = Solver::builder()
            .threads(threads)
            .max_profiles(space - 1)
            .build()
            .solve(&game)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::BudgetExceeded { required, max_profiles }
                    if required == space && max_profiles == space - 1
            ),
            "{threads} threads: {err:?}"
        );
        let report = Solver::builder()
            .threads(threads)
            .max_profiles(space)
            .build()
            .solve(&game)
            .unwrap();
        assert_eq!(report.profiles_evaluated, space, "{threads} threads");
        assert_eq!(
            report.encode().canonical_string(),
            want,
            "{threads} threads"
        );
    }
}

/// Zero-weight (pinned) slots stay pinned through the compiled sweep.
#[test]
fn pinned_types_stay_pinned_through_kernels() {
    use bayesian_ignorance::core::game::MatrixFormGame;
    let g = MatrixFormGame::from_fn(1, &[3], |_, a| a[0] as f64);
    // Type space of size 2 but only type 0 in the support.
    let game = BayesianGame::new(vec![2], vec![(vec![0], 1.0, g)]).unwrap();
    let report = Solver::default().solve(&game).unwrap();
    assert_eq!(report.profiles_evaluated, 3);
    assert_eq!(report.measures.opt_p, 0.0);
    report.measures.verify_chain().unwrap();
}
