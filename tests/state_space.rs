//! The contract the solver's state spaces rest on: a state game's
//! compiled space cut from its parent's
//! ([`CompiledSpace::state_space`]) equals the state game compiled on its
//! own, slot for slot.
//!
//! The solver compiles a model once and cuts every state game `G_t`
//! from it, at prior `1.0` on the complete-information side and at
//! `p(t)` in the split sweep. That is exact only if slot `(i, 0)` of
//! `state_model(t, p)` has exactly the parent's candidates at
//! `(i, types_t[i])` ([`BayesianModel::state_model`]). Each case below
//! checks slots, sizes, weight bits and candidate lists at both priors,
//! for every support state.
//!
//! Covered: random Bayesian matrix games with types of zero marginal,
//! churn-shaped diagonal games, both `G_worst` families, and random
//! Bayesian NCS games on directed and undirected networks, also with
//! length-limited path enumeration.

use std::fmt::Debug;

use bayesian_ignorance::constructions::gworst::{GWorstGame, GWorstVariant};
use bayesian_ignorance::constructions::universal::random_bayesian_ncs;
use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::random_games::{
    random_bayesian_potential_game, random_potential_game,
};
use bayesian_ignorance::core::{BayesianModel, CompiledSpace};
use bayesian_ignorance::graph::paths::PathLimits;
use bayesian_ignorance::graph::Direction;
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};

/// Asserts that `a` and `b` have the same agents, slots, sizes, weight
/// bits and candidates.
fn assert_same_space<A: Clone + PartialEq + Debug>(
    a: &CompiledSpace<A>,
    b: &CompiledSpace<A>,
    context: &str,
) {
    assert_eq!(a.num_agents(), b.num_agents(), "{context}: agents");
    assert_eq!(a.num_slots(), b.num_slots(), "{context}: slots");
    for j in 0..a.num_slots() {
        assert_eq!(a.slot(j), b.slot(j), "{context}: slot {j}");
        assert_eq!(a.slot_size(j), b.slot_size(j), "{context}: size {j}");
        assert_eq!(
            a.weight(j).to_bits(),
            b.weight(j).to_bits(),
            "{context}: weight {j}"
        );
        assert_eq!(
            a.slot_actions(j),
            b.slot_actions(j),
            "{context}: candidates {j}"
        );
    }
}

/// Checks every support state of `model` at priors `1.0` and `p(t)`.
fn assert_state_spaces<M: BayesianModel>(model: &M, context: &str)
where
    M::Action: Debug,
{
    let parent = CompiledSpace::compile(model).expect("the parent compiles");
    for t in 0..model.state_count() {
        let types = model.state_types(t).expect("the model names its states");
        for prob in [1.0, model.state_prob(t)] {
            let state = model.state_model(t, prob);
            let compiled = CompiledSpace::compile(&state).expect("the state compiles");
            let derived = parent.state_space(types, &state);
            assert_same_space(
                &derived,
                &compiled,
                &format!("{context}, state {t}, p={prob}"),
            );
        }
    }
}

/// Whether some type of `game` is in no support state.
fn has_zero_marginal(game: &BayesianGame) -> bool {
    (0..game.num_agents())
        .any(|i| (0..game.type_counts()[i]).any(|tau| game.marginal(i, tau) == 0.0))
}

#[test]
fn random_matrix_games_cut_their_state_spaces() {
    let mut zero_marginals = 0;
    for seed in 0..40 {
        for support in 1..5 {
            // Three types per agent over at most four states: many
            // types are in no state.
            let (game, _) = random_bayesian_potential_game(&[3, 2, 3], &[2, 3, 2], support, seed);
            zero_marginals += usize::from(has_zero_marginal(&game));
            assert_state_spaces(&game, &format!("matrix seed {seed}, {support} states"));
        }
    }
    assert!(zero_marginals > 0, "no case had a type of zero marginal");
}

#[test]
fn churn_shaped_games_cut_their_state_spaces() {
    for seed in 0..8 {
        // Two agents with five types each that always agree.
        let support = (0..5)
            .map(|t| {
                let game = random_potential_game(2, &[3, 3], seed * 10 + t).0;
                (vec![t as usize; 2], 0.2, game)
            })
            .collect();
        let game = BayesianGame::new(vec![5, 5], support).expect("valid");
        assert_state_spaces(&game, &format!("churn seed {seed}"));
    }
}

#[test]
fn gworst_games_cut_their_state_spaces() {
    for k in [3, 7, 12] {
        for variant in [GWorstVariant::InvK, GWorstVariant::Half] {
            let gworst = GWorstGame::new(k, variant).expect("valid k");
            assert_state_spaces(gworst.game(), &format!("G_worst k={k} {variant:?}"));
        }
    }
}

#[test]
fn random_ncs_games_cut_their_state_spaces() {
    let limited = PathLimits {
        max_paths: 100_000,
        max_len: 2,
    };
    for seed in 0..30 {
        let directed =
            random_bayesian_ncs(Direction::Directed, 5, 0.4, 2, 2, seed).expect("connected");
        assert_state_spaces(&directed, &format!("directed ncs seed {seed}"));
        let undirected =
            random_bayesian_ncs(Direction::Undirected, 4, 0.5, 3, 2, seed).expect("connected");
        assert_state_spaces(&undirected, &format!("undirected ncs seed {seed}"));
        // On a complete network every type keeps a path of at most two
        // edges, while the limit drops the three-edge ones.
        let complete =
            random_bayesian_ncs(Direction::Undirected, 4, 1.0, 3, 2, seed).expect("connected");
        let prior = Prior::joint(complete.support().to_vec());
        let short = BayesianNcsGame::with_limits(complete.graph().clone(), prior, limited)
            .expect("connected");
        assert_state_spaces(&short, &format!("length-limited ncs seed {seed}"));
    }
}
