//! Exhaustive pure-Nash analysis of complete-information games.

use bi_util::approx_le;

use crate::game::MatrixFormGame;

/// Whether `profile` is a pure Nash equilibrium: no agent can strictly
/// lower her cost by a unilateral deviation (up to the workspace
/// tolerance).
///
/// # Panics
///
/// Panics if the profile shape does not match the game.
///
/// # Examples
///
/// ```
/// use bi_core::game::MatrixFormGame;
///
/// // Coordination: both agents want to match.
/// let g = MatrixFormGame::from_fn(2, &[2, 2], |_, a| {
///     if a[0] == a[1] { 0.0 } else { 1.0 }
/// });
/// assert!(bi_core::nash::is_nash(&g, &[0, 0]));
/// assert!(!bi_core::nash::is_nash(&g, &[0, 1]));
/// ```
#[must_use]
pub fn is_nash(game: &MatrixFormGame, profile: &[usize]) -> bool {
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

/// All pure Nash equilibria, by exhaustive enumeration.
///
/// # Examples
///
/// ```
/// use bi_core::game::MatrixFormGame;
///
/// let g = MatrixFormGame::from_fn(2, &[2, 2], |_, a| {
///     if a[0] == a[1] { 0.0 } else { 1.0 }
/// });
/// assert_eq!(bi_core::nash::enumerate_nash(&g).len(), 2);
/// ```
#[must_use]
pub fn enumerate_nash(game: &MatrixFormGame) -> Vec<Vec<usize>> {
    game.profiles().filter(|p| is_nash(game, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayesian::BayesianGame;
    use crate::model::{BayesianModel, CompleteInfo};

    /// Social optimum and best/worst equilibrium cost of one game, as the
    /// solver's complete-information side computes them (a one-state
    /// Bayesian game at prior 1).
    fn complete_info(game: &MatrixFormGame) -> Result<CompleteInfo, crate::solve::SolveError> {
        let agents = game.num_agents();
        BayesianGame::new(vec![1; agents], vec![(vec![0; agents], 1.0, game.clone())])
            .expect("one-state game")
            .complete_info()
    }

    /// Prisoner's dilemma in cost form: defect (action 1) dominates.
    fn prisoners_dilemma() -> MatrixFormGame {
        MatrixFormGame::from_fn(2, &[2, 2], |i, a| {
            let (mine, theirs) = (a[i], a[1 - i]);
            match (mine, theirs) {
                (0, 0) => 1.0, // both cooperate
                (0, 1) => 3.0, // I cooperate, they defect
                (1, 0) => 0.0, // I defect, they cooperate
                (1, 1) => 2.0, // both defect
                _ => unreachable!(),
            }
        })
    }

    #[test]
    fn prisoners_dilemma_has_unique_defect_equilibrium() {
        let g = prisoners_dilemma();
        let eqs = enumerate_nash(&g);
        assert_eq!(eqs, vec![vec![1, 1]]);
        let ci = complete_info(&g).unwrap();
        assert_eq!(ci.best_eq_c, 4.0);
        assert_eq!(ci.worst_eq_c, 4.0);
        assert_eq!(ci.opt_c, 2.0);
    }

    #[test]
    fn matching_pennies_has_no_pure_equilibrium() {
        let g = MatrixFormGame::from_fn(2, &[2, 2], |i, a| {
            let matched = a[0] == a[1];
            match (i, matched) {
                (0, true) | (1, false) => 0.0,
                _ => 1.0,
            }
        });
        assert!(enumerate_nash(&g).is_empty());
        assert!(matches!(
            complete_info(&g),
            Err(crate::solve::SolveError::NoStateEquilibrium { state: 0 })
        ));
    }

    #[test]
    fn equilibria_with_infinite_costs_elsewhere() {
        // Action 1 is infeasible (infinite): only [0,0] matters.
        let g =
            MatrixFormGame::from_fn(
                2,
                &[2, 2],
                |_, a| {
                    if a.contains(&1) {
                        f64::INFINITY
                    } else {
                        1.0
                    }
                },
            );
        let eqs = enumerate_nash(&g);
        assert!(eqs.contains(&vec![0, 0]));
        assert_eq!(complete_info(&g).unwrap().opt_c, 2.0);
    }

    #[test]
    fn indifferent_deviations_do_not_break_equilibrium() {
        let g = MatrixFormGame::from_fn(1, &[3], |_, _| 5.0);
        assert!(is_nash(&g, &[0]));
        assert_eq!(enumerate_nash(&g).len(), 3);
    }

    #[test]
    fn best_and_worst_equilibria_differ_in_coordination_games() {
        // Two equilibria of different quality.
        let g = MatrixFormGame::from_fn(2, &[2, 2], |_, a| match (a[0], a[1]) {
            (0, 0) => 1.0,
            (1, 1) => 2.0,
            _ => 5.0,
        });
        let ci = complete_info(&g).unwrap();
        assert_eq!(ci.best_eq_c, 2.0);
        assert_eq!(ci.worst_eq_c, 4.0);
    }
}
