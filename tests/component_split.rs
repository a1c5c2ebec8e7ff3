//! Parity of the split exhaustive sweep against the whole-space sweep,
//! **bit for bit**.
//!
//! When every agent's type reveals the state (no `(agent, type)` slot
//! appears in two support states), the solver sweeps each state's game
//! `G_t` at prior `p(t)` on its own and folds the per-state extrema in
//! state order: Σ_t |G_t| profiles instead of Π_t |G_t|. The oracle is
//! the same solve through [`Unreduced`], which forwards neither
//! `state_types` nor `agents_interchangeable`, so its one sweep visits
//! every profile of the whole space.
//!
//! Covered: random diagonal matrix games with unused types, `±0` and `∞`
//! costs and states without a pure equilibrium; diagonal NCS games on
//! directed and undirected networks, also with length-limited path
//! enumeration; 1/2/4 threads; the budget semantics of the split; and
//! Observation 2.2 on diagonal support (the partial-information measures
//! equal the complete-information ones).

use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::MatrixFormGame;
use bayesian_ignorance::core::random_games::random_potential_game;
use bayesian_ignorance::core::solve::{SolveError, SolveReport, Solver};
use bayesian_ignorance::core::BayesianModel;
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::{generators, Direction, NodeId};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
use bayesian_ignorance::util::approx_eq;
use bayesian_ignorance::util::rng::{derive_seed, seeded};
use bi_bench::Unreduced;
use rand::rngs::StdRng;
use rand::Rng;

/// A comparable form of a solve: the six measures' bit patterns and the
/// covered profile count, or the error's debug rendering.
type Outcome = Result<([u64; 6], u128), String>;

fn outcome(result: Result<SolveReport, SolveError>) -> Outcome {
    result
        .map(|report| {
            let m = report.measures;
            let bits = [
                m.opt_p,
                m.best_eq_p,
                m.worst_eq_p,
                m.opt_c,
                m.best_eq_c,
                m.worst_eq_c,
            ]
            .map(f64::to_bits);
            (bits, report.profiles_evaluated)
        })
        .map_err(|e| format!("{e:?}"))
}

/// `Σ_t |G_t|`: the profiles of the state games, unreduced.
fn state_sum<M: BayesianModel>(model: &M) -> u128 {
    (0..model.state_count())
        .map(|t| {
            let game = model.state_model(t, model.state_prob(t));
            game.strategy_space_size().expect("state space fits")
        })
        .sum()
}

/// Checks the solve of `model` against the unreduced whole-space oracle
/// under 1, 2 and 4 threads, and that the split really ran: a budget of
/// `Σ_t |G_t|` profiles must admit the model, however large its whole
/// space. Returns the oracle's outcome.
fn assert_split_parity<M: BayesianModel + Clone>(model: &M, context: &str) -> Outcome {
    let oracle = outcome(Solver::default().solve(&Unreduced(model.clone())));
    for threads in [1usize, 2, 4] {
        let solver = Solver::builder().threads(threads).build();
        assert_eq!(
            outcome(solver.solve(model)),
            oracle,
            "{context}: {threads} threads"
        );
    }
    let budgeted = Solver::builder()
        .max_profiles(state_sum(model))
        .build()
        .solve(model);
    assert_eq!(outcome(budgeted), oracle, "{context}: budget of Σ_t |G_t|");
    oracle
}

/// Cost palettes of [`diagonal_matrix_game`].
#[derive(Clone, Copy, Debug)]
enum Costs {
    /// Uniform in `[-1, 2)`, with one entry in ten each `-0.0`, `+0.0`
    /// and `∞`.
    Mixed,
    /// Only `-0.0`, `+0.0` and `1.0`: exact ties everywhere, and zero
    /// totals of either sign.
    Zeros,
}

fn draw(costs: Costs, rng: &mut StdRng) -> f64 {
    match (costs, rng.random_range(0..10)) {
        (Costs::Mixed, 0) | (Costs::Zeros, 0..=3) => -0.0,
        (Costs::Mixed, 1) | (Costs::Zeros, 4..=7) => 0.0,
        (Costs::Mixed, 2) => f64::INFINITY,
        (Costs::Mixed, _) => rng.random_range(-1.0..2.0),
        (Costs::Zeros, _) => 1.0,
    }
}

/// A Bayesian game whose `states` support states each carry an
/// independent random general game (so some have no pure equilibrium),
/// and in which every agent has a type of its own per state, assigned in
/// a random order, plus up to two types in no state.
fn diagonal_matrix_game(agents: usize, states: usize, costs: Costs, seed: u64) -> BayesianGame {
    let mut rng = seeded(seed);
    let actions: Vec<usize> = (0..agents).map(|_| rng.random_range(1..4)).collect();
    let type_counts: Vec<usize> = (0..agents)
        .map(|_| states + rng.random_range(0..3usize))
        .collect();
    let assignments: Vec<Vec<usize>> = type_counts
        .iter()
        .map(|&count| {
            let mut types: Vec<usize> = (0..count).collect();
            for i in (1..count).rev() {
                types.swap(i, rng.random_range(0..=i));
            }
            types
        })
        .collect();
    let weights: Vec<f64> = (0..states).map(|_| rng.random_range(0.2..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let support = (0..states)
        .map(|t| {
            let types = assignments.iter().map(|a| a[t]).collect();
            let game = MatrixFormGame::from_fn(agents, &actions, |_, _| draw(costs, &mut rng));
            (types, weights[t] / total, game)
        })
        .collect();
    BayesianGame::new(type_counts, support).expect("valid by construction")
}

/// Agent and state counts of the random matrix cases: whole spaces of at
/// most 3^9 profiles, so the oracle stays quick.
const SHAPES: [(usize, usize); 7] = [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)];

/// Runs the parity check over `cases` random diagonal games of the
/// palette and returns how many solved, and how many had no equilibrium.
fn matrix_parity(costs: Costs, cases: u64) -> (usize, usize) {
    let (mut solved, mut no_equilibrium) = (0, 0);
    for seed in 0..cases {
        let (agents, states) = SHAPES[seed as usize % SHAPES.len()];
        let game = diagonal_matrix_game(agents, states, costs, seed);
        let context = format!("{costs:?} seed {seed} ({agents} agents, {states} states)");
        match assert_split_parity(&game, &context) {
            Ok(_) => solved += 1,
            Err(e) if e == "NoEquilibrium" => no_equilibrium += 1,
            Err(_) => {}
        }
    }
    (solved, no_equilibrium)
}

#[test]
fn mixed_cost_matrix_games_match_the_whole_sweep() {
    let (solved, no_equilibrium) = matrix_parity(Costs::Mixed, 240);
    assert!(solved > 0, "no case solved");
    assert!(no_equilibrium > 0, "no case without an equilibrium");
}

#[test]
fn signed_zero_matrix_games_match_the_whole_sweep() {
    let (solved, _) = matrix_parity(Costs::Zeros, 240);
    assert!(solved > 0, "no case solved");
}

#[test]
fn negative_zero_totals_keep_their_sign() {
    // The smallest negative subnormal times p = 0.5 rounds to -0.0, so
    // both states' terms are -0.0 and so is the whole fold, which starts
    // from the empty sum (-0.0). A fold from a literal 0.0 would give
    // +0.0. The complete-information side adds 0.5·K_t to a literal 0.0,
    // so optC is +0.0: equal to optP as f64, not as bits.
    let cost = -f64::from_bits(1);
    let state = || MatrixFormGame::from_fn(1, &[1], |_, _| cost);
    let game = BayesianGame::new(
        vec![2],
        vec![(vec![0], 0.5, state()), (vec![1], 0.5, state())],
    )
    .expect("valid");
    let report = Solver::default().solve(&game).expect("one profile");
    let m = report.measures;
    for value in [m.opt_p, m.best_eq_p, m.worst_eq_p] {
        assert_eq!(value.to_bits(), (-0.0f64).to_bits());
    }
    assert_eq!(m.opt_c.to_bits(), 0.0f64.to_bits());
    assert_eq!(
        outcome(Ok(report)),
        outcome(Solver::default().solve(&Unreduced(game)))
    );
}

#[test]
fn churn_shaped_game_matches_the_whole_sweep() {
    // Two agents with five types each that always agree, three actions:
    // the 59,049-profile space becomes five 9-profile sweeps.
    let support = (0..5)
        .map(|t| {
            let game = random_potential_game(2, &[3, 3], 40 + t as u64).0;
            (vec![t, t], 0.2, game)
        })
        .collect();
    let game = BayesianGame::new(vec![5, 5], support).expect("valid");
    let oracle = assert_split_parity(&game, "churn shape");
    assert_eq!(oracle.expect("potential games solve").1, 59_049);
}

/// A Bayesian NCS game on a seeded connected 4-node network in which
/// each of `agents` agents has its own `(source, destination)` type per
/// state (so every type reveals the state), with random state weights.
/// Under a path-length limit below 3 the network is complete, so every
/// type keeps a candidate path.
fn diagonal_ncs_game(
    direction: Direction,
    agents: usize,
    states: usize,
    limits: PathLimits,
    seed: u64,
) -> BayesianNcsGame {
    let nodes = 4;
    let edge_prob = if limits.max_len < nodes - 1 { 1.0 } else { 0.5 };
    let graph = generators::gnp_connected(
        direction,
        nodes,
        edge_prob,
        (0.5, 2.0),
        derive_seed(seed, "graph"),
    );
    let mut rng = seeded(derive_seed(seed, "prior"));
    let per_agent: Vec<Vec<(NodeId, NodeId)>> = (0..agents)
        .map(|_| {
            let mut types = Vec::new();
            while types.len() < states {
                let s = NodeId::new(rng.random_range(0..nodes));
                let d = NodeId::new(rng.random_range(0..nodes));
                if s != d && !types.contains(&(s, d)) {
                    types.push((s, d));
                }
            }
            types
        })
        .collect();
    let weights: Vec<f64> = (0..states).map(|_| rng.random_range(0.2..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let support = (0..states)
        .map(|t| {
            let types = per_agent.iter().map(|types| types[t]).collect();
            (types, weights[t] / total)
        })
        .collect();
    BayesianNcsGame::with_limits(graph, Prior::joint(support), limits).expect("connected generator")
}

#[test]
fn diagonal_ncs_games_match_the_whole_sweep() {
    let limited = PathLimits {
        max_len: 2,
        ..PathLimits::default()
    };
    for seed in 0..12u64 {
        let states = 2 + seed as usize % 2;
        for (direction, limits) in [
            (Direction::Directed, PathLimits::default()),
            (Direction::Undirected, PathLimits::default()),
            (Direction::Undirected, limited),
        ] {
            let game = diagonal_ncs_game(direction, 2, states, limits, seed);
            let context = format!("seed {seed}, {direction:?}, {limits:?}");
            assert_split_parity(&game, &context).expect("NCS games have equilibria");
        }
    }
}

#[test]
fn budget_gates_the_sum_of_the_state_sweeps() {
    // Three diagonal states of 3×3 potential games: 729 profiles in all,
    // 3 · 9 = 27 swept. This game used to fail under a 27-profile budget.
    let support = (0..3)
        .map(|t| {
            let game = random_potential_game(2, &[3, 3], 7 + t as u64).0;
            (vec![t, t], [0.5, 0.3, 0.2][t], game)
        })
        .collect();
    let game = BayesianGame::new(vec![3, 3], support).expect("valid");
    assert_eq!(game.strategy_space_size().unwrap(), 729);
    assert_eq!(state_sum(&game), 27);
    let report = Solver::builder()
        .max_profiles(27)
        .build()
        .solve(&game)
        .expect("the state sweeps fit the budget");
    assert_eq!(report.profiles_evaluated, 729);
    assert_eq!(
        outcome(Ok(report)),
        outcome(Solver::default().solve(&Unreduced(game.clone())))
    );
    let err = Solver::builder()
        .max_profiles(26)
        .build()
        .solve(&game)
        .unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::BudgetExceeded {
                required: 27,
                max_profiles: 26
            }
        ),
        "{err:?}"
    );
}

/// Observation 2.2 on diagonal support: every agent knows the state, so
/// the partial-information measures are the complete-information ones.
///
/// `optP == optC` holds as f64 `==`: both are the state-order sum of
/// `p(t)·min K_t`, and rounding is monotone, so `min p·K_t = p·min K_t`.
/// The two folds start from different zeros (the empty sum and a literal
/// `0.0`), so they may differ in the sign of a zero total, which `==`
/// ignores. The equilibrium sides are compared with `approx_eq` only:
/// the partial side tests each deviation on `p(t)·C` and `G_t` tests it
/// on `C`, both with a tolerance that is absolute below 1, so a
/// near-tie can be an equilibrium on one side and not the other.
fn assert_observation_2_2(report: &SolveReport, context: &str) {
    let m = report.measures;
    assert!(
        m.opt_p == m.opt_c,
        "{context}: optP {} optC {}",
        m.opt_p,
        m.opt_c
    );
    assert!(approx_eq(m.best_eq_p, m.best_eq_c), "{context}: best-eq");
    assert!(approx_eq(m.worst_eq_p, m.worst_eq_c), "{context}: worst-eq");
}

#[test]
fn diagonal_support_satisfies_observation_2_2() {
    for seed in 0..48u64 {
        let states = 2 + seed as usize % 3;
        let agents = 1 + seed as usize % 3;
        let support = (0..states)
            .map(|t| {
                let game = random_potential_game(agents, &vec![3; agents], seed * 8 + t as u64).0;
                (vec![t; agents], 1.0 / states as f64, game)
            })
            .collect();
        let game = BayesianGame::new(vec![states; agents], support).expect("valid");
        let report = Solver::default()
            .solve(&game)
            .expect("potential games solve");
        assert_observation_2_2(&report, &format!("matrix seed {seed}"));

        let direction = [Direction::Directed, Direction::Undirected][seed as usize % 2];
        let game = diagonal_ncs_game(direction, 2, 2, PathLimits::default(), seed);
        let report = Solver::default().solve(&game).expect("NCS games solve");
        assert_observation_2_2(&report, &format!("ncs seed {seed}"));
    }
}
