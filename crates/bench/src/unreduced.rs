//! [`Unreduced`]: a model wrapper that hides agent symmetry, the state
//! split and agent elimination from the solver.

use bi_core::compiled::{CompiledSpace, EvalKernel, Lowered};
use bi_core::model::{BayesianModel, Profile};
use bi_core::solve::SolveError;

/// A model wrapper that hides agent symmetry, the state split and agent
/// elimination from the solver, so the exhaustive sweep's odometer
/// visits every profile of the whole space.
///
/// The solver reduces every exhaustive sweep by the interchangeable
/// agents [`BayesianModel::agents_interchangeable`] reports, splits it
/// into one sweep per support state when [`BayesianModel::state_types`]
/// shows that no `(agent, type)` slot is in two states, and otherwise
/// eliminates one agent when the model's kernels answer slot scans
/// ([`Lowered::scans_slots`]). Wrapping a model in [`Unreduced`]
/// forwards every hook to it, its compiled kernels included, except
/// those three: the first two stay at the trait's defaults (`false` and
/// `None`), and the lowering hands out the model's own kernels from a
/// factory that does not offer slot scans. `complete_info` keeps its
/// default too, which runs the solver on the wrapper; with no state
/// types named, each state game is compiled on its own rather than cut
/// from the model's compiled space. Solving the wrapper is therefore the
/// full, unreduced sweep of the same model: the oracle the parity suites
/// compare reduced, split and eliminating solves against, and the "full"
/// side of `bench_solver_sweep`'s orbit suites.
///
/// # Examples
///
/// ```
/// use bi_bench::Unreduced;
/// use bi_core::game::MatrixFormGame;
/// use bi_core::random_games::random_bayesian_potential_game;
/// use bi_core::solve::{SolveError, Solver};
/// use bi_core::BayesianGame;
///
/// // Three interchangeable agents: 8 profiles, 4 orbits.
/// let g = MatrixFormGame::from_fn(3, &[2, 2, 2], |_, a| a.iter().sum::<usize>() as f64);
/// let game = BayesianGame::new(vec![1; 3], vec![(vec![0; 3], 1.0, g)]).unwrap();
/// let reduced = Solver::default().solve(&game).unwrap();
/// let full = Solver::default().solve(&Unreduced(game)).unwrap();
/// assert_eq!(reduced, full);
///
/// // Two agents whose types reveal the state: 2^4 = 16 profiles in all,
/// // but each of the two states' games has only 4.
/// let g = MatrixFormGame::from_fn(2, &[2, 2], |i, a| (a[0] + 2 * a[1] + i) as f64);
/// let game = BayesianGame::new(
///     vec![2, 2],
///     vec![(vec![0, 0], 0.5, g.clone()), (vec![1, 1], 0.5, g)],
/// )
/// .unwrap();
/// let split = Solver::builder().max_profiles(8).build().solve(&game).unwrap();
/// assert_eq!(split.profiles_evaluated, 16);
/// let whole = Solver::builder().max_profiles(8).build().solve(&Unreduced(game.clone()));
/// assert!(matches!(whole, Err(SolveError::BudgetExceeded { required: 16, .. })));
/// assert_eq!(split, Solver::default().solve(&Unreduced(game)).unwrap());
///
/// // Two agents of 3^2 = 9 strategies each: the solve scans the last
/// // agent's actions for each of the other's 9 strategies; the wrapper's
/// // odometer visits all 81 profiles. The reports are the same bytes.
/// let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], 4, 7);
/// let eliminated = Solver::default().solve(&game).unwrap();
/// assert_eq!(eliminated.profiles_evaluated, 81);
/// assert_eq!(eliminated, Solver::default().solve(&Unreduced(game)).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct Unreduced<M>(pub M);

impl<M: BayesianModel> BayesianModel for Unreduced<M> {
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

    fn state_count(&self) -> usize {
        self.0.state_count()
    }

    fn state_prob(&self, idx: usize) -> f64 {
        self.0.state_prob(idx)
    }

    /// Wrapped too, so the complete-information side is unreduced as well.
    fn state_model(&self, idx: usize, prob: f64) -> Self {
        Unreduced(self.0.state_model(idx, prob))
    }

    fn state_too_large(&self, required: u128) -> SolveError {
        self.0.state_too_large(required)
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

    fn is_equilibrium(&self, profile: &Profile<Self>) -> bool {
        self.0.is_equilibrium(profile)
    }

    fn best_response_dynamics(
        &self,
        start: Profile<Self>,
        max_rounds: usize,
    ) -> Option<Profile<Self>> {
        self.0.best_response_dynamics(start, max_rounds)
    }

    fn strategy_space_size(&self) -> Result<u128, SolveError> {
        self.0.strategy_space_size()
    }

    /// The model's own kernels, behind a factory that does not offer
    /// slot scans, so the sweep eliminates no agent.
    fn lower<'a>(&'a self, space: &'a CompiledSpace<M::Action>) -> Box<dyn Lowered + 'a> {
        Box::new(FullSweep(self.0.lower(space)))
    }
}

/// A [`Lowered`] that forwards its kernels and sweep tables and leaves
/// [`Lowered::scans_slots`] at its default `false`.
struct FullSweep<'a>(Box<dyn Lowered + 'a>);

impl Lowered for FullSweep<'_> {
    fn kernel(&self) -> Box<dyn EvalKernel + '_> {
        self.0.kernel()
    }

    fn prepare_sweep(&self) {
        self.0.prepare_sweep();
    }
}
