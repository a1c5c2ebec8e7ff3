//! [`baseline_sweep`]: the pre-kernel exhaustive sweep, kept verbatim
//! as an oracle.

use bi_core::model::{BayesianModel, Profile};

/// Extrema of one baseline sweep (mirrors the solver's internal stats).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineStats {
    /// Least social cost over every profile.
    pub opt_p: f64,
    /// Least social cost over the equilibria (`+∞` if there is none).
    pub best_eq_p: f64,
    /// Greatest social cost over the equilibria (`−∞` if there is none).
    pub worst_eq_p: f64,
    /// Profiles visited: the whole candidate space.
    pub evaluated: u128,
}

/// The pre-compiled exhaustive sweep, verbatim: nested-profile odometer
/// with one action clone per tick, `social_cost` and `is_equilibrium`
/// recomputed from scratch on every profile.
///
/// It shares no code with the solver's sweep: no compiled space, no
/// kernel, no symmetry, state split or agent elimination. Only the
/// model's own trait methods. That makes it the oracle the parity suites
/// and `bench_solver_sweep` check the solver against, bit for bit.
///
/// # Panics
///
/// Panics if a slot's candidates cannot be enumerated.
///
/// # Examples
///
/// ```
/// use bi_bench::baseline_sweep;
/// use bi_core::random_games::random_bayesian_potential_game;
/// use bi_core::solve::Solver;
///
/// let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], 3, 1);
/// let base = baseline_sweep(&game);
/// let report = Solver::default().solve(&game).unwrap();
/// assert_eq!(base.opt_p.to_bits(), report.measures.opt_p.to_bits());
/// assert_eq!(base.evaluated, report.profiles_evaluated);
/// ```
pub fn baseline_sweep<M: BayesianModel>(model: &M) -> BaselineStats {
    let mut slots = Vec::new();
    let mut sets: Vec<Vec<M::Action>> = Vec::new();
    for i in 0..model.num_agents() {
        for tau in 0..model.type_count(i) {
            slots.push((i, tau));
            sets.push(model.candidate_actions(i, tau).expect("enumerable"));
        }
    }
    let sizes: Vec<usize> = sets.iter().map(Vec::len).collect();
    let size: u128 = sizes.iter().map(|&s| s as u128).product();
    let mut profile: Profile<M> = (0..model.num_agents()).map(|_| Vec::new()).collect();
    for (&(i, _), set) in slots.iter().zip(&sets) {
        profile[i].push(set[0].clone());
    }
    let mut digits = vec![0usize; sizes.len()];
    let mut stats = BaselineStats {
        opt_p: f64::INFINITY,
        best_eq_p: f64::INFINITY,
        worst_eq_p: f64::NEG_INFINITY,
        evaluated: 0,
    };
    loop {
        let k = model.social_cost(&profile);
        stats.evaluated += 1;
        stats.opt_p = stats.opt_p.min(k);
        if model.is_equilibrium(&profile) {
            stats.best_eq_p = stats.best_eq_p.min(k);
            stats.worst_eq_p = stats.worst_eq_p.max(k);
        }
        if stats.evaluated == size {
            return stats;
        }
        let mut j = digits.len();
        loop {
            assert!(j > 0, "odometer overflow");
            j -= 1;
            let (i, tau) = slots[j];
            digits[j] += 1;
            if digits[j] < sizes[j] {
                profile[i][tau] = sets[j][digits[j]].clone();
                break;
            }
            digits[j] = 0;
            profile[i][tau] = sets[j][0].clone();
        }
    }
}
