//! The [`BayesianModel`] trait: the single abstraction the unified solver
//! engine ([`crate::solve`]) understands.
//!
//! The paper's six ignorance measures are defined identically for every
//! representation of a Bayesian game — only the primitives differ: what an
//! *action* is (a matrix column index, a path in a graph), how a strategy
//! profile's social cost is computed, and how an agent's interim best
//! response is found. This trait captures exactly those primitives;
//! everything built on top of them — equilibrium checking, best-response
//! dynamics, strategy-space sizing, and the full measure computation in
//! [`crate::solve::Solver`] — is shared **default-method** logic, written
//! once.
//!
//! Both [`crate::bayesian::BayesianGame`] (matrix form) and
//! `bi_ncs::BayesianNcsGame` (network cost-sharing form) implement this
//! trait, so one `Solver` serves both.

use bi_util::{approx_le, EPS};

use crate::compiled::{CompiledSpace, GenericLowered, Lowered};
use crate::game::EnumerationError;
use crate::solve::{SolveError, Solver};

/// A pure strategy profile of a model: `profile[i][τ]` is the action agent
/// `i` plays on observing her `τ`-th type.
pub type Profile<M> = Vec<Vec<<M as BayesianModel>::Action>>;

/// The complete-information side of the six measures: prior-expected
/// optimum and best/worst pure-Nash social cost of the underlying games.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompleteInfo {
    /// `optC = Σ_t p(t)·min_a K_t(a)`.
    pub opt_c: f64,
    /// `best-eqC = Σ_t p(t)·min over Nash equilibria of K_t`.
    pub best_eq_c: f64,
    /// `worst-eqC = Σ_t p(t)·max over Nash equilibria of K_t`.
    pub worst_eq_c: f64,
}

/// A finite Bayesian game, seen through the primitives the unified solver
/// needs.
///
/// # Contract
///
/// * Type indices `τ` range over `0..type_count(i)`; every
///   positive-probability type of agent `i` appears exactly once.
/// * [`candidate_actions`](Self::candidate_actions) returns a non-empty
///   set per `(agent, type)` slot containing every action relevant for
///   *optimization* (a social optimum and all equilibria of interest are
///   attained on the candidate product space). Equilibrium *checks* are
///   exact over the full action space via
///   [`best_response`](Self::best_response), which need not be restricted
///   to candidates.
/// * [`interim_cost`](Self::interim_cost) may be unnormalized by the type
///   marginal (the normalization cancels when comparing actions).
pub trait BayesianModel: Sync {
    /// One action of one agent (a matrix column index, a path, …).
    ///
    /// Equality is used by the compiled evaluation layer
    /// ([`crate::compiled`]) to map actions produced by
    /// [`best_response`](Self::best_response) back onto flat candidate
    /// indices.
    type Action: Clone + Send + Sync + PartialEq;

    /// Number of agents `k`.
    fn num_agents(&self) -> usize;

    /// Number of type slots of agent `i`.
    fn type_count(&self, agent: usize) -> usize;

    /// Prior marginal weight of agent `agent`'s type `tau`; slots with
    /// weight `0.0` are pinned (skipped by equilibrium checks and
    /// dynamics — their action never affects any cost).
    fn type_weight(&self, agent: usize, tau: usize) -> f64;

    /// The candidate actions of agent `agent` at type `tau` that exact
    /// optimization enumerates.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] when the action set cannot be enumerated
    /// completely (e.g. path-enumeration limits).
    fn candidate_actions(&self, agent: usize, tau: usize) -> Result<Vec<Self::Action>, SolveError>;

    /// Number of candidate actions at a slot, without materializing them.
    ///
    /// # Errors
    ///
    /// Same as [`candidate_actions`](Self::candidate_actions).
    fn candidate_count(&self, agent: usize, tau: usize) -> Result<usize, SolveError> {
        self.candidate_actions(agent, tau).map(|a| a.len())
    }

    /// Ex-ante social cost `K(s) = E_t[K_t(s(t))]`.
    fn social_cost(&self, profile: &Profile<Self>) -> f64;

    /// Interim cost of agent `agent` playing `action` at type `tau` while
    /// everyone else follows `profile` (possibly unnormalized by the type
    /// marginal).
    fn interim_cost(
        &self,
        agent: usize,
        tau: usize,
        action: &Self::Action,
        profile: &Profile<Self>,
    ) -> f64;

    /// Agent `agent`'s exact interim best response at type `tau`:
    /// `(action, interim cost)`, minimizing over the **full** action
    /// space (not just candidates).
    fn best_response(
        &self,
        agent: usize,
        tau: usize,
        profile: &Profile<Self>,
    ) -> (Self::Action, f64);

    /// Number of support states `t` (complete-information games `G_t`).
    fn state_count(&self) -> usize;

    /// Prior probability `p(t)` of support state `idx`.
    fn state_prob(&self, idx: usize) -> f64;

    /// The type index of each agent in support state `idx`, when the
    /// model can name it. The exhaustive sweep uses it to split a model
    /// whose states share no `(agent, type)` slot into one sub-sweep per
    /// state ([`crate::solve`]), and every state game's compiled space is
    /// cut from the model's by it ([`CompiledSpace::state_space`]). The
    /// default `None` means never split, and compile each state game on
    /// its own.
    ///
    /// A model that names state types must keep the contract of
    /// [`state_model`](Self::state_model).
    fn state_types(&self, idx: usize) -> Option<&[usize]> {
        let _ = idx;
        None
    }

    /// `G_t` of support state `idx` as a model of its own: the same
    /// agents with one type each (of marginal weight `prob`), one state
    /// at prior `prob`.
    ///
    /// The complete-information side asks for `prob = 1.0`. The split
    /// sweep asks for `p(t)`, so that every cost term of the state game
    /// is bit for bit the `p(t)·C` term the whole model computes for
    /// that state. That is why `prob` is not renormalized to `1.0`.
    ///
    /// # Contract
    ///
    /// When [`state_types`](Self::state_types) names state `idx`'s type
    /// tuple `types`, slot `(i, 0)` of `state_model(idx, prob)` has
    /// exactly the candidates of this model's slot `(i, types[i])`, in
    /// the same order, for every agent `i` and every `prob`. The solver
    /// relies on it: it cuts the state game's compiled space from this
    /// model's ([`CompiledSpace::state_space`]) instead of enumerating
    /// the candidates again. The weights are the state model's own
    /// ([`type_weight`](Self::type_weight)`(i, 0)`).
    fn state_model(&self, idx: usize, prob: f64) -> Self
    where
        Self: Sized;

    /// The error of a state game past the exact-enumeration limit.
    fn state_too_large(&self, required: u128) -> SolveError {
        SolveError::Model(Box::new(EnumerationError { required }))
    }

    /// The complete-information side: [`Solver::complete_info`], one thread.
    ///
    /// # Errors
    ///
    /// See [`Solver::complete_info`].
    fn complete_info(&self) -> Result<CompleteInfo, SolveError>
    where
        Self: Sized,
    {
        Solver::default().complete_info(self)
    }

    /// Whether agents `a` and `b` are **exactly interchangeable**:
    /// swapping their entire strategies (the two agents' per-type action
    /// assignments) in any profile leaves [`social_cost`](Self::social_cost)
    /// and every interim-cost comparison **bit-for-bit** unchanged — the
    /// same floating-point terms combined in the same order, not merely
    /// equal values.
    ///
    /// The symmetry-reduced sweep ([`crate::symmetry`]) relies on this
    /// contract to evaluate only one canonical representative per orbit.
    /// It also relies on its per-slot consequence: on a profile where `a`
    /// and `b` play equal strategies (the same action at each type), the
    /// swap fixes the profile, so [`slot_is_stable`](Self::slot_is_stable)
    /// gives `(a, τ)` and `(b, τ)` the same verdict for every type `τ`,
    /// and the sweep's equilibrium check takes one verdict per run of
    /// equal strategies. So implementations must only return `true` when
    /// they can verify
    /// the invariance on their own data (e.g. bitwise-equal cost tables
    /// under the coordinate swap). The relation must be an equivalence
    /// (exact interchangeability always is — transpositions compose).
    /// The default is the always-safe `false` (no symmetry detected).
    ///
    /// Every exhaustive solve runs detection, with up to `k²/2` calls, so
    /// a call should cost little next to a sweep: asymmetric pairs in
    /// particular should be refuted early.
    fn agents_interchangeable(&self, a: usize, b: usize) -> bool {
        let _ = (a, b);
        false
    }

    /// Whether the slot `(agent, tau)` is interim-stable under `profile`:
    /// the played action's interim cost is (approximately) no worse than
    /// the exact best response's.
    ///
    /// Models can override this with a fused implementation when
    /// [`interim_cost`](Self::interim_cost) and
    /// [`best_response`](Self::best_response) share expensive setup.
    fn slot_is_stable(&self, agent: usize, tau: usize, profile: &Profile<Self>) -> bool {
        let played = self.interim_cost(agent, tau, &profile[agent][tau], profile);
        let (_, best) = self.best_response(agent, tau, profile);
        approx_le(played, best)
    }

    /// An interim better response at slot `(agent, tau)` improving on the
    /// played action by more than the workspace tolerance, if one exists.
    ///
    /// Like [`slot_is_stable`](Self::slot_is_stable), this exists so
    /// models can fuse the played-cost and best-response computations.
    fn slot_improvement(
        &self,
        agent: usize,
        tau: usize,
        profile: &Profile<Self>,
    ) -> Option<Self::Action> {
        let played = self.interim_cost(agent, tau, &profile[agent][tau], profile);
        let (action, cost) = self.best_response(agent, tau, profile);
        (cost < played - EPS).then_some(action)
    }

    /// Whether `profile` is a pure Bayesian equilibrium: every
    /// positive-weight `(agent, type)` slot is interim-stable.
    fn is_equilibrium(&self, profile: &Profile<Self>) -> bool {
        for i in 0..self.num_agents() {
            for tau in 0..self.type_count(i) {
                if self.type_weight(i, tau) == 0.0 {
                    continue;
                }
                if !self.slot_is_stable(i, tau, profile) {
                    return false;
                }
            }
        }
        true
    }

    /// Interim best-response dynamics from `start` until a fixed point (a
    /// Bayesian equilibrium) or `max_rounds` full sweeps. Returns the
    /// reached profile if it is an equilibrium, otherwise `None`.
    ///
    /// For Bayesian potential games (every NCS game is one) each strict
    /// improvement decreases the expected potential, so this converges.
    fn best_response_dynamics(
        &self,
        start: Profile<Self>,
        max_rounds: usize,
    ) -> Option<Profile<Self>>
    where
        Self: Sized,
    {
        let mut s = start;
        for _ in 0..max_rounds {
            let mut changed = false;
            for i in 0..self.num_agents() {
                for tau in 0..self.type_count(i) {
                    if self.type_weight(i, tau) == 0.0 {
                        continue;
                    }
                    if let Some(better) = self.slot_improvement(i, tau, &s) {
                        s[i][tau] = better;
                        changed = true;
                    }
                }
            }
            if !changed {
                return Some(s);
            }
        }
        self.is_equilibrium(&s).then_some(s)
    }

    /// Total number of pure strategy profiles over the candidate sets,
    /// with overflow surfaced as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::SpaceTooLarge`] when the product overflows
    /// `u128`, and propagates candidate-enumeration failures.
    fn strategy_space_size(&self) -> Result<u128, SolveError> {
        let mut size = 1u128;
        for i in 0..self.num_agents() {
            for tau in 0..self.type_count(i) {
                let c = self.candidate_count(i, tau)? as u128;
                size = size.checked_mul(c).ok_or(SolveError::SpaceTooLarge)?;
            }
        }
        Ok(size)
    }

    /// Lowers the model into a compiled evaluation factory over the given
    /// flattened candidate space (see [`crate::compiled`]). The solver
    /// calls this once per solve; each worker thread then instantiates its
    /// own incremental [`crate::compiled::EvalKernel`] from the result.
    ///
    /// # Contract
    ///
    /// A kernel obtained from the returned factory must produce results
    /// **bit-for-bit identical** to calling [`social_cost`](Self::social_cost),
    /// [`is_equilibrium`](Self::is_equilibrium) and
    /// [`slot_improvement`](Self::slot_improvement) on the materialized
    /// profile — same floating-point operations in the same order. The
    /// default implementation routes through exactly those trait methods;
    /// representations override it with incrementally-maintained kernels
    /// (matrix form: strided per-state cost-table offsets; NCS: per-state
    /// edge loads) that preserve the arithmetic.
    fn lower<'a>(&'a self, space: &'a CompiledSpace<Self::Action>) -> Box<dyn Lowered + 'a>
    where
        Self: Sized,
    {
        Box::new(GenericLowered::new(self, space))
    }
}
