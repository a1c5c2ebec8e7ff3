//! Seeded random-game workloads for the load generator, benches, and
//! end-to-end tests.
//!
//! A workload is a deterministic function of `(seed, size)`: a mix of
//! matrix-form Bayesian potential games (three shapes, heavier strategy
//! spaces than the unit-test games so a cold solve meaningfully
//! outweighs HTTP overhead) and Bayesian NCS games (parallel-route
//! graphs with randomized costs and an independent travel prior).
//! Replaying the same seed reproduces the same request bytes, so a
//! `bi-loadgen` run replays exactly across commits.

use bi_core::random_games::random_bayesian_potential_game;
use bi_graph::{Direction, Graph};
use bi_ncs::{BayesianNcsGame, Prior};
use bi_util::rng::{derive_seed, seeded};
use rand::Rng;

use crate::service::GameSpec;

/// A deterministic matrix-form workload game. The shape cycles with the
/// seed so one workload exercises several strategy-space sizes
/// (16807–20736 profiles — big enough that a cold solve dominates
/// per-request transport cost, which is what makes the cache speedup
/// measurable, while wire bodies stay small: body size grows with
/// `actions²·states`, solve cost with `actions^slots`).
#[must_use]
pub fn matrix_game(seed: u64) -> GameSpec {
    let (types, actions, support): (&[usize], &[usize], usize) = match seed % 3 {
        0 => (&[2, 2], &[12, 12], 3),
        1 => (&[3, 2], &[7, 7], 3),
        _ => (&[2, 2], &[12, 12], 4),
    };
    let (game, _) =
        random_bayesian_potential_game(types, actions, support, derive_seed(seed, "matrix"));
    GameSpec::Matrix(game)
}

/// A deterministic NCS workload game: `routes` parallel two-hop routes
/// plus a direct edge, randomized costs, agent 0 always traveling and
/// agent 1 traveling with probability 1/2 (the diamond family of the
/// paper, scaled).
#[must_use]
pub fn ncs_game(seed: u64) -> GameSpec {
    let mut rng = seeded(derive_seed(seed, "ncs"));
    let routes = 5 + (seed % 3) as usize; // 5..=7 parallel routes
    let mut g = Graph::new(Direction::Directed);
    let s = g.add_node();
    let t = g.add_node();
    for _ in 0..routes {
        let mid = g.add_node();
        g.add_edge(s, mid, rng.random_range(0.5..2.0));
        g.add_edge(mid, t, rng.random_range(0.5..2.0));
    }
    g.add_edge(s, t, rng.random_range(2.0..4.0));
    let p = rng.random_range(0.3..0.7);
    let prior = Prior::independent(vec![
        vec![((s, t), 1.0)],
        vec![((s, t), p), ((s, s), 1.0 - p)],
    ]);
    GameSpec::Ncs(BayesianNcsGame::new(g, prior).expect("workload graphs are feasible"))
}

/// A deterministic *light* matrix game: 2×2 actions, 2×2 types, tiny
/// enough that generating and solving 100k of them stays in seconds.
/// Cluster benches use this profile so the unique-key count (which is
/// what exercises routing and the disk tier) can be pushed far past
/// what the heavyweight mixed profile affords.
#[must_use]
pub fn light_game(seed: u64) -> GameSpec {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, derive_seed(seed, "light"));
    GameSpec::Matrix(game)
}

/// The light workload: `size` distinct tiny matrix games, fully
/// determined by `seed`. Every key is unique, so a replay of the same
/// seed is an all-hits pass and a fresh seed is an all-misses pass.
#[must_use]
pub fn light_workload(seed: u64, size: usize) -> Vec<GameSpec> {
    (0..size as u64)
        .map(|i| light_game(derive_seed(seed, &format!("light{i}"))))
        .collect()
}

/// The standard mixed workload: `size` distinct games, two thirds
/// matrix-form and one third NCS, fully determined by `seed`.
#[must_use]
pub fn mixed_workload(seed: u64, size: usize) -> Vec<GameSpec> {
    (0..size as u64)
        .map(|i| {
            let game_seed = derive_seed(seed, &format!("game{i}"));
            if i % 3 == 2 {
                ncs_game(game_seed)
            } else {
                matrix_game(game_seed)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_util::Encode;

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = mixed_workload(7, 6);
        let b = mixed_workload(7, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.canonical_bytes(), y.canonical_bytes());
        }
        let c = mixed_workload(8, 6);
        assert_ne!(
            a[0].canonical_bytes(),
            c[0].canonical_bytes(),
            "different seeds give different games"
        );
    }

    #[test]
    fn workloads_mix_representations() {
        let games = mixed_workload(1, 9);
        let ncs = games
            .iter()
            .filter(|g| matches!(g, GameSpec::Ncs(_)))
            .count();
        assert_eq!(ncs, 3);
        assert_eq!(games.len(), 9);
    }

    #[test]
    fn workload_games_are_solvable() {
        use bi_core::solve::Solver;
        for game in mixed_workload(3, 3) {
            let report = match &game {
                GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
                GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
            };
            report.measures.verify_chain().unwrap();
        }
    }
}
