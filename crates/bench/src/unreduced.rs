//! [`Unreduced`]: a model wrapper that hides agent symmetry from the
//! solver.

use bi_core::compiled::{CompiledSpace, Lowered};
use bi_core::model::{BayesianModel, Profile};
use bi_core::solve::SolveError;

/// A model wrapper that hides agent symmetry from the solver, so the
/// exhaustive sweep visits every profile.
///
/// The solver reduces every exhaustive sweep by the interchangeable
/// agents [`BayesianModel::agents_interchangeable`] reports. Wrapping a
/// model in [`Unreduced`] forwards every hook to it, its compiled
/// kernels included, except that one, which stays at the trait's
/// default `false`. `complete_info` keeps its default too, which runs
/// the solver on the wrapper. Solving the wrapper is therefore the full,
/// unreduced sweep of the same model: the oracle the parity suites
/// compare orbit-reduced solves against, and the "full" side of
/// `bench_solver_sweep --orbits`.
///
/// # Examples
///
/// ```
/// use bi_bench::Unreduced;
/// use bi_core::game::MatrixFormGame;
/// use bi_core::solve::Solver;
/// use bi_core::BayesianGame;
///
/// // Three interchangeable agents: 8 profiles, 4 orbits.
/// let g = MatrixFormGame::from_fn(3, &[2, 2, 2], |_, a| a.iter().sum::<usize>() as f64);
/// let game = BayesianGame::new(vec![1; 3], vec![(vec![0; 3], 1.0, g)]).unwrap();
/// let reduced = Solver::default().solve(&game).unwrap();
/// let full = Solver::default().solve(&Unreduced(game)).unwrap();
/// assert_eq!(reduced, full);
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
    fn state_model(&self, idx: usize) -> Self {
        Unreduced(self.0.state_model(idx))
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

    fn lower<'a>(&'a self, space: &'a CompiledSpace<M::Action>) -> Box<dyn Lowered + 'a> {
        self.0.lower(space)
    }
}
