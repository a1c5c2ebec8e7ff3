//! Parity of the agent-eliminating exhaustive sweep, **bit for bit**.
//!
//! When orbit detection finds no interchangeable agents, the matrix
//! kernel's sweep enumerates the other agents' profiles `s₋ₙ` only and
//! scans one agent's actions once per type; `optP` rests on a rounding
//! certificate (see `bi_core::solve`). Two oracles check it:
//!
//! * the same solve through [`Unreduced`], which hides the elimination
//!   (and the orbit reduction and the state split), so its one odometer
//!   visits every profile: compared on the canonical report bytes, or
//!   the error, at 1, 2 and 4 threads;
//! * [`baseline_sweep`], the pre-kernel odometer over the model's trait
//!   methods, which shares no code with the kernels: compared on the bits
//!   of `optP`, `best-eqP` and `worst-eqP` and on the profile count.
//!
//! The random games have 2–3 agents with 1–3 types and 2–4 actions each
//! and a random support, so some types are in no state (zero weight).
//! Their costs come from five palettes: uniform (general games, many
//! without an equilibrium), the `±0`/`∞` and all-zeros palettes of the
//! state-split suite, one with mostly `-0.0` (zero extrema of both
//! signs), and near-ties, whose social costs differ by a few ulps so that
//! the fold's minimum depends on rounding.

use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::MatrixFormGame;
use bayesian_ignorance::core::random_games::random_bayesian_potential_game;
use bayesian_ignorance::core::solve::{SolveError, SolveReport, Solver};
use bayesian_ignorance::core::{BayesianModel, CompiledSpace, Symmetry};
use bayesian_ignorance::util::rng::seeded;
use bayesian_ignorance::util::Encode;
use bi_bench::{baseline_sweep, Unreduced};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Largest whole space of a random case, so the unreduced oracle stays
/// quick in debug builds.
const MAX_CASE_PROFILES: u128 = 4096;

/// Cost palettes of [`random_game`].
#[derive(Clone, Copy, Debug)]
enum Costs {
    /// Uniform in `[0, 2)`.
    Uniform,
    /// Uniform in `[-1, 2)`, with one entry in ten each `-0.0`, `+0.0`
    /// and `∞`.
    Mixed,
    /// Only `-0.0`, `+0.0` and `1.0`: exact ties everywhere, and zero
    /// totals of either sign.
    Zeros,
    /// `-0.0` in eight entries of ten, else `+0.0` or `1.0`: zero totals
    /// of both signs compete for the extrema, and which one a fold keeps
    /// depends on the order it meets them.
    NegativeZeros,
    /// The state's base cost times `1 + kε` for `k` in `0..4`: every
    /// profile's social cost within a few ulps of every other's.
    NearTie,
}

const PALETTES: [Costs; 5] = [
    Costs::Uniform,
    Costs::Mixed,
    Costs::Zeros,
    Costs::NegativeZeros,
    Costs::NearTie,
];

fn draw(costs: Costs, base: f64, rng: &mut StdRng) -> f64 {
    match (costs, rng.random_range(0..10)) {
        (Costs::Uniform, _) => rng.random_range(0.0..2.0),
        (Costs::Mixed, 0) | (Costs::Zeros, 0..=3) | (Costs::NegativeZeros, 0..=7) => -0.0,
        (Costs::Mixed, 1) | (Costs::Zeros, 4..=7) | (Costs::NegativeZeros, 8) => 0.0,
        (Costs::Mixed, 2) => f64::INFINITY,
        (Costs::Mixed, _) => rng.random_range(-1.0..2.0),
        (Costs::Zeros | Costs::NegativeZeros, _) => 1.0,
        (Costs::NearTie, _) => base * (1.0 + f64::from(rng.random_range(0..4u8)) * f64::EPSILON),
    }
}

/// A random game of the palette, or `None` when its whole space exceeds
/// [`MAX_CASE_PROFILES`]. The support is a random set of type profiles,
/// so agents' types usually share states (the state split does not
/// apply) and some types are in none.
fn random_game(seed: u64, costs: Costs) -> Option<BayesianGame> {
    let mut rng = seeded(seed);
    let agents = rng.random_range(2..4usize);
    let actions: Vec<usize> = (0..agents).map(|_| rng.random_range(2..5)).collect();
    let types: Vec<usize> = (0..agents).map(|_| rng.random_range(1..4)).collect();
    let profiles: usize = types.iter().product();
    let states = rng.random_range(1..=profiles.min(6));
    let mut chosen: Vec<usize> = Vec::with_capacity(states);
    while chosen.len() < states {
        let pick = rng.random_range(0..profiles);
        if !chosen.contains(&pick) {
            chosen.push(pick);
        }
    }
    let weights: Vec<f64> = (0..states).map(|_| rng.random_range(0.2..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let support = chosen
        .iter()
        .zip(&weights)
        .map(|(&pick, &w)| {
            let mut rest = pick;
            let tuple: Vec<usize> = types
                .iter()
                .map(|&count| {
                    let t = rest % count;
                    rest /= count;
                    t
                })
                .collect();
            let base = [0.1, 0.3, 1.0 / 3.0, 0.7][rng.random_range(0..4usize)];
            let game =
                MatrixFormGame::from_fn(agents, &actions, |_, _| draw(costs, base, &mut rng));
            (tuple, w / total, game)
        })
        .collect();
    let game = BayesianGame::new(types, support).ok()?;
    (game.strategy_space_size().ok()? <= MAX_CASE_PROFILES).then_some(game)
}

/// A game whose fold minimum the group sums of the eliminated agent
/// misorder. Agent 0 has two types of one action each; agent 1, the
/// eliminated one, has two types of 3–4 actions. Agent 1's type 0 is in
/// states 0 and 2, its type 1 in state 1, so the social-cost fold adds a
/// type-1 term between the two terms of type 0's group sum. Priors are
/// `1/4, 1/2, 1/4` and every social cost `K_t(a)` is a target in
/// `[1, 2)` within 8 ulps of its state's base, each computed exactly
/// (agent 0 pays `K_t(a) − C_1(a)`), so regrouping alone decides which
/// profile is cheapest. Agent 1 pays 0 for one action per type and 1 for
/// the others, so only that action is stable: the rest are visited only
/// if the certificate keeps them.
fn crossed_tie_game(seed: u64) -> BayesianGame {
    let mut rng = seeded(seed);
    let actions = rng.random_range(3..5usize);
    let cheap = [rng.random_range(0..actions), rng.random_range(0..actions)];
    let support = [([0, 0], 0.25), ([0, 1], 0.5), ([1, 0], 0.25)]
        .into_iter()
        .map(|(types, prob)| {
            let base = [1.0, 1.1, 1.3, 1.7, 1.9][rng.random_range(0..5usize)];
            let targets: Vec<f64> = (0..actions)
                .map(|_| base * (1.0 + f64::from(rng.random_range(0..8u8)) * f64::EPSILON))
                .collect();
            let own = |a: usize| if a == cheap[types[1]] { 0.0 } else { 1.0 };
            let game = MatrixFormGame::from_fn(2, &[1, actions], |i, a| {
                let own = own(a[1]);
                if i == 1 {
                    own
                } else {
                    targets[a[1]] - own
                }
            });
            (types.to_vec(), prob, game)
        })
        .collect();
    BayesianGame::new(vec![2, 2], support).expect("valid by construction")
}

/// A comparable form of a solve: the report's canonical bytes, or the
/// error's debug rendering.
fn outcome(result: Result<SolveReport, SolveError>) -> Result<String, String> {
    result
        .map(|report| report.encode().canonical_string())
        .map_err(|e| format!("{e:?}"))
}

/// Checks the solve of `game` at 1, 2 and 4 threads against the
/// unreduced odometer and returns the oracle's outcome.
fn assert_parity(game: &BayesianGame, context: &str) -> Result<String, String> {
    let oracle = outcome(Solver::default().solve(&Unreduced(game.clone())));
    for threads in [1usize, 2, 4] {
        let solver = Solver::builder().threads(threads).build();
        assert_eq!(
            outcome(solver.solve(game)),
            oracle,
            "{context}: {threads} threads"
        );
    }
    oracle
}

/// Whether the exhaustive sweep of `game` can eliminate an agent: no
/// interchangeable agents, and some agent with at least 8 strategies.
fn eliminates(game: &BayesianGame) -> bool {
    let space = CompiledSpace::compile(game).unwrap();
    let most = (0..game.num_agents())
        .map(|agent| {
            (0..space.num_slots())
                .filter(|&j| space.slot(j).0 == agent)
                .map(|j| space.slot_size(j))
                .product::<u32>()
        })
        .max()
        .unwrap();
    most >= 8 && Symmetry::detect(game, &space).is_trivial()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The eliminating solve encodes to the unreduced solve's bytes, or
    /// fails with the same error, at every thread count.
    #[test]
    fn eliminated_sweep_matches_the_unreduced_odometer(
        seed in 0u64..u64::MAX,
        costs in prop::sample::select(PALETTES.to_vec()),
    ) {
        if let Some(game) = random_game(seed, costs) {
            let _ = assert_parity(&game, &format!("{costs:?} seed {seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Games whose cheapest profile only the certificate's `2e` window
    /// keeps: the eliminating solve still matches the unreduced one.
    #[test]
    fn crossed_near_ties_match_the_unreduced_odometer(seed in 0u64..u64::MAX) {
        let game = crossed_tie_game(seed);
        prop_assert!(eliminates(&game));
        let context = format!("crossed seed {seed}");
        prop_assert!(assert_parity(&game, &context).is_ok());
    }
}

/// The palettes reach every case the parity property is about: the
/// elimination applies, types of zero weight, games without an
/// equilibrium, and zero extrema of either sign.
#[test]
fn the_generators_cover_every_case() {
    let (mut eliminating, mut zero_weight, mut no_equilibrium) = (0, 0, 0);
    let (mut positive_zero, mut negative_zero) = (0, 0);
    for costs in PALETTES {
        for seed in 0..48 {
            let Some(game) = random_game(seed, costs) else {
                continue;
            };
            eliminating += usize::from(eliminates(&game));
            zero_weight += usize::from(
                (0..game.num_agents())
                    .any(|i| (0..game.type_count(i)).any(|t| game.type_weight(i, t) == 0.0)),
            );
            match assert_parity(&game, &format!("{costs:?} seed {seed}")) {
                Err(e) if e == format!("{:?}", SolveError::NoEquilibrium) => no_equilibrium += 1,
                Err(_) => {}
                Ok(_) => {
                    let m = Solver::default().solve(&game).unwrap().measures;
                    for x in [m.opt_p, m.best_eq_p, m.worst_eq_p] {
                        positive_zero += usize::from(x.to_bits() == 0.0f64.to_bits());
                        negative_zero += usize::from(x.to_bits() == (-0.0f64).to_bits());
                    }
                }
            }
        }
    }
    assert!(eliminating >= 40, "{eliminating} eliminating games");
    assert!(
        zero_weight >= 20,
        "{zero_weight} games with zero-weight types"
    );
    assert!(
        no_equilibrium >= 10,
        "{no_equilibrium} games without an equilibrium"
    );
    assert!(positive_zero >= 5, "{positive_zero} +0 extrema");
    assert!(negative_zero >= 5, "{negative_zero} -0 extrema");
}

/// The kernel-free oracle on zero totals of both signs: a state whose
/// agents' costs are all `-0.0` contributes `-0.0` to the social cost,
/// as [`BayesianGame::social_cost`] folds it, and zero extrema keep the
/// sign the odometer meets first.
#[test]
fn signed_zero_extrema_match_the_kernel_free_baseline() {
    let mut negative = 0;
    for seed in 0..48 {
        let Some(game) = random_game(seed, Costs::NegativeZeros) else {
            continue;
        };
        let base = baseline_sweep(&game);
        let Ok(report) = Solver::default().solve(&game) else {
            continue;
        };
        let m = report.measures;
        let bits = [m.opt_p, m.best_eq_p, m.worst_eq_p].map(f64::to_bits);
        assert_eq!(
            bits,
            [base.opt_p, base.best_eq_p, base.worst_eq_p].map(f64::to_bits),
            "seed {seed}"
        );
        negative += bits.iter().filter(|&&b| b == (-0.0f64).to_bits()).count();
    }
    assert!(negative >= 5, "{negative} -0 extrema");
}

/// A zero optimum reached with both signs, when the eliminated agent is
/// not the last: agent 0 (8 actions) is eliminated before agent 1 (2
/// actions). The odometer meets `(0, 1)`, of social cost `-0.0`, before
/// `(1, 0)`, of cost `+0.0`; the elimination, outer profile first, would
/// meet them the other way round. The minimum keeps the zero met first,
/// so the solve must report the odometer's `-0.0`.
#[test]
fn a_zero_optimum_keeps_the_odometer_sign() {
    let g = MatrixFormGame::from_fn(2, &[8, 2], |i, a| match (a[0], a[1], i) {
        (0, 1, _) => -0.0,
        (1, 0, 0) => 0.0,
        (1, 0, _) => -0.0,
        _ => 1.0,
    });
    let game = BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, g)]).unwrap();
    assert!(eliminates(&game));
    let base = baseline_sweep(&game);
    assert_eq!(base.opt_p.to_bits(), (-0.0f64).to_bits());
    let _ = assert_parity(&game, "zero optimum");
    let report = Solver::default().solve(&game);
    assert_eq!(
        report.unwrap().measures.opt_p.to_bits(),
        base.opt_p.to_bits()
    );
}

/// The kernel-free oracle: the quick-suite matrix shape and the
/// `solve-matrix` shape agree with [`baseline_sweep`] on the bits of the
/// partial-information measures and on the profile count.
#[test]
fn solver_matches_the_kernel_free_baseline() {
    let shapes: [(&[usize], &[usize], usize, u64); 2] =
        [(&[2, 2], &[3, 3], 3, 11), (&[2, 2], &[12, 12], 4, 1)];
    for (types, actions, support, seed) in shapes {
        let (game, _) = random_bayesian_potential_game(types, actions, support, seed);
        assert!(
            eliminates(&game),
            "{actions:?}: the sweep eliminates an agent"
        );
        let base = baseline_sweep(&game);
        let report = Solver::default().solve(&game).unwrap();
        let m = report.measures;
        assert_eq!(
            [m.opt_p, m.best_eq_p, m.worst_eq_p].map(f64::to_bits),
            [base.opt_p, base.best_eq_p, base.worst_eq_p].map(f64::to_bits),
            "{actions:?}"
        );
        assert_eq!(report.profiles_evaluated, base.evaluated, "{actions:?}");
    }
}
