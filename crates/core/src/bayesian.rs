//! Bayesian games with explicit common priors, exactly as in Section 2 of
//! the paper.

use std::fmt;
use std::sync::Arc;

use bi_util::approx_eq;

use crate::compiled::{CompiledSpace, EvalKernel, Lowered, SlotStep};
use crate::game::{EnumerationError, MatrixFormGame, ProfileIter, MAX_ENUMERATION};
use crate::measures::Measures;
use crate::model::BayesianModel;
use crate::solve::{SolveError, Solver};

/// A pure strategy profile: `profile[i][τ]` is the action agent `i` plays
/// on observing type `τ`.
pub type StrategyProfile = Vec<Vec<usize>>;

/// Errors constructing a [`BayesianGame`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BayesianGameError {
    /// The support is empty or probabilities do not sum to 1.
    BadPrior(String),
    /// A state's game does not match the declared agents/actions.
    MismatchedState(usize),
    /// A type index exceeds its agent's type-space size.
    TypeOutOfRange {
        /// The support-state index containing the bad type profile.
        state: usize,
        /// The agent whose type index is out of range.
        agent: usize,
    },
    /// The same type profile appears twice in the support.
    DuplicateState(usize),
}

impl fmt::Display for BayesianGameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesianGameError::BadPrior(msg) => write!(f, "invalid prior: {msg}"),
            BayesianGameError::MismatchedState(i) => {
                write!(f, "state {i} disagrees with the declared action spaces")
            }
            BayesianGameError::TypeOutOfRange { state, agent } => {
                write!(f, "state {state}: type of agent {agent} out of range")
            }
            BayesianGameError::DuplicateState(i) => {
                write!(f, "state {i} duplicates an earlier type profile")
            }
        }
    }
}

impl std::error::Error for BayesianGameError {}

/// Errors from exact measure computation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MeasureError {
    /// Enumeration would exceed the workspace limit.
    TooLarge(EnumerationError),
    /// Some underlying game has no pure Nash equilibrium, so `best-eqC` /
    /// `worst-eqC` are undefined (the paper restricts attention to games
    /// whose underlying games all admit pure equilibria).
    NoPureEquilibrium {
        /// The support-state index of the equilibrium-free underlying game.
        state: usize,
    },
    /// No pure Bayesian equilibrium exists (cannot happen for potential
    /// games, but the framework admits arbitrary cost functions).
    NoBayesianEquilibrium,
    /// The unified solver failed in a way with no measure-specific
    /// mapping (kept as a message; the typed error is
    /// [`crate::solve::SolveError`] — call [`Solver::solve`] directly for
    /// structured handling).
    Solver(String),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::TooLarge(e) => write!(f, "{e}"),
            MeasureError::NoPureEquilibrium { state } => {
                write!(f, "underlying game {state} has no pure Nash equilibrium")
            }
            MeasureError::NoBayesianEquilibrium => {
                write!(f, "the Bayesian game has no pure Bayesian equilibrium")
            }
            MeasureError::Solver(msg) => write!(f, "solver error: {msg}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::TooLarge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnumerationError> for MeasureError {
    fn from(e: EnumerationError) -> Self {
        MeasureError::TooLarge(e)
    }
}

#[derive(Clone, Debug)]
struct State {
    types: Vec<usize>,
    prob: f64,
    /// Shared with the state's [`BayesianModel::state_model`].
    game: Arc<MatrixFormGame>,
    /// Per agent, the smallest agent whose cost table in `game` is
    /// bitwise-equal to its own ([`table_classes`]).
    table_class: Vec<usize>,
}

/// A finite Bayesian game `⟨k, {A_i}, {T_i}, {C_{i,t}}, p⟩` with the prior
/// given explicitly as a support of `(type profile, probability, game)`
/// triples.
///
/// Type profiles outside the support have probability zero and need not be
/// listed. All underlying games must share the same agent count and action
/// spaces (the paper's `A_i` do not vary with the state).
///
/// # Examples
///
/// ```
/// use bi_core::bayesian::BayesianGame;
/// use bi_core::game::MatrixFormGame;
///
/// let g = MatrixFormGame::from_fn(2, &[2, 2], |_, a| (a[0] + a[1]) as f64);
/// let game = BayesianGame::new(
///     vec![1, 2],
///     vec![
///         (vec![0, 0], 0.5, g.clone()),
///         (vec![0, 1], 0.5, g),
///     ],
/// ).unwrap();
/// assert_eq!(game.num_agents(), 2);
/// let s = vec![vec![0], vec![0, 0]];
/// assert_eq!(game.social_cost(&s), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct BayesianGame {
    type_counts: Vec<usize>,
    action_counts: Vec<usize>,
    states: Vec<State>,
    /// `marginals[i][τ] = P(t_i = τ)`.
    marginals: Vec<Vec<f64>>,
}

impl BayesianGame {
    /// Builds a Bayesian game from its type-space sizes and prior support.
    ///
    /// States with probability 0 are dropped. Probabilities must be
    /// non-negative and sum to 1 (within tolerance).
    ///
    /// # Errors
    ///
    /// See [`BayesianGameError`].
    pub fn new(
        type_counts: Vec<usize>,
        support: Vec<(Vec<usize>, f64, MatrixFormGame)>,
    ) -> Result<Self, BayesianGameError> {
        if support.is_empty() {
            return Err(BayesianGameError::BadPrior("empty support".into()));
        }
        let k = type_counts.len();
        let total: f64 = support.iter().map(|(_, p, _)| p).sum();
        if !approx_eq(total, 1.0) {
            return Err(BayesianGameError::BadPrior(format!(
                "probabilities sum to {total}, expected 1"
            )));
        }
        let action_counts = support[0].2.action_counts().to_vec();
        let mut states = Vec::with_capacity(support.len());
        let mut seen: Vec<&Vec<usize>> = Vec::new();
        for (idx, (types, prob, game)) in support.iter().enumerate() {
            if *prob < 0.0 {
                return Err(BayesianGameError::BadPrior(format!(
                    "state {idx} has negative probability"
                )));
            }
            if types.len() != k
                || game.num_agents() != k
                || game.action_counts() != action_counts.as_slice()
            {
                return Err(BayesianGameError::MismatchedState(idx));
            }
            for (agent, (&t, &count)) in types.iter().zip(&type_counts).enumerate() {
                if t >= count {
                    return Err(BayesianGameError::TypeOutOfRange { state: idx, agent });
                }
            }
            if seen.contains(&types) {
                return Err(BayesianGameError::DuplicateState(idx));
            }
            seen.push(types);
        }
        for (types, prob, game) in support {
            if prob > 0.0 {
                let table_class = table_classes(&game);
                let game = Arc::new(game);
                states.push(State {
                    types,
                    prob,
                    game,
                    table_class,
                });
            }
        }
        if states.is_empty() {
            return Err(BayesianGameError::BadPrior(
                "all support states have probability zero".into(),
            ));
        }
        let mut marginals: Vec<Vec<f64>> = type_counts.iter().map(|&c| vec![0.0; c]).collect();
        for state in &states {
            for (i, &t) in state.types.iter().enumerate() {
                marginals[i][t] += state.prob;
            }
        }
        Ok(BayesianGame {
            type_counts,
            action_counts,
            states,
            marginals,
        })
    }

    /// Number of agents `k`.
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.type_counts.len()
    }

    /// Per-agent type-space sizes `|T_i|`.
    #[must_use]
    pub fn type_counts(&self) -> &[usize] {
        &self.type_counts
    }

    /// Per-agent action-space sizes `|A_i|`.
    #[must_use]
    pub fn action_counts(&self) -> &[usize] {
        &self.action_counts
    }

    /// Number of states in the prior support.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.states.len()
    }

    /// The `idx`-th support state as `(type profile, probability, game)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn state(&self, idx: usize) -> (&[usize], f64, &MatrixFormGame) {
        let s = &self.states[idx];
        (&s.types, s.prob, &s.game)
    }

    /// Marginal probability `P(t_i = τ)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `τ` is out of range.
    #[must_use]
    pub fn marginal(&self, i: usize, tau: usize) -> f64 {
        self.marginals[i][tau]
    }

    /// The action profile a strategy profile induces in a given state.
    fn induced<'a>(
        &self,
        s: &StrategyProfile,
        types: &[usize],
        buf: &'a mut Vec<usize>,
    ) -> &'a [usize] {
        buf.clear();
        buf.extend(s.iter().zip(types).map(|(si, &t)| si[t]));
        buf
    }

    /// Ex-ante expected cost `C_i(s)` of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape does not match the game.
    #[must_use]
    pub fn expected_cost(&self, i: usize, s: &StrategyProfile) -> f64 {
        self.check_strategy(s);
        let mut buf = Vec::with_capacity(self.num_agents());
        self.states
            .iter()
            .map(|st| {
                let a = self.induced(s, &st.types, &mut buf);
                st.prob * st.game.cost(i, a)
            })
            .sum()
    }

    /// Social cost `K(s) = Σ_i C_i(s) = E_t[K_t(s(t))]`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape does not match the game.
    #[must_use]
    pub fn social_cost(&self, s: &StrategyProfile) -> f64 {
        self.check_strategy(s);
        let mut buf = Vec::with_capacity(self.num_agents());
        self.states
            .iter()
            .map(|st| {
                let a = self.induced(s, &st.types, &mut buf);
                st.prob * st.game.social_cost(a)
            })
            .sum()
    }

    /// Unnormalized interim cost of agent `i` of playing `action` at type
    /// `τ` while everyone else follows `s`:
    /// `Σ_{t : t_i = τ} p(t) · C_{i,t}(s₋ᵢ(t₋ᵢ), action)`.
    ///
    /// Normalizing by `P(t_i = τ)` gives the conditional expectation the
    /// paper uses; the normalization constant does not affect comparisons
    /// between actions, so it is omitted.
    #[must_use]
    pub fn interim_cost(&self, i: usize, tau: usize, action: usize, s: &StrategyProfile) -> f64 {
        self.check_strategy(s);
        assert!(tau < self.type_counts[i], "type out of range");
        assert!(action < self.action_counts[i], "action out of range");
        let mut buf = Vec::with_capacity(self.num_agents());
        self.states
            .iter()
            .filter(|st| st.types[i] == tau)
            .map(|st| {
                self.induced(s, &st.types, &mut buf);
                buf[i] = action;
                st.prob * st.game.cost(i, &buf)
            })
            .sum()
    }

    /// Whether `s` is a pure Bayesian equilibrium: for every agent and
    /// every positive-probability type, the played action minimizes the
    /// interim cost (up to tolerance). Routed through
    /// [`BayesianModel::is_equilibrium`].
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape does not match the game.
    #[must_use]
    pub fn is_bayesian_equilibrium(&self, s: &StrategyProfile) -> bool {
        self.check_strategy(s);
        BayesianModel::is_equilibrium(self, s)
    }

    /// The best response of agent `i` to `s`: for each type, an action
    /// minimizing the interim cost (ties to the smallest index;
    /// zero-probability types keep their current action).
    #[must_use]
    pub fn best_response(&self, i: usize, s: &StrategyProfile) -> Vec<usize> {
        (0..self.type_counts[i])
            .map(|tau| {
                if self.marginals[i][tau] == 0.0 {
                    return s[i][tau];
                }
                BayesianModel::best_response(self, i, tau, s).0
            })
            .collect()
    }

    /// Iterated best-response dynamics from `start`, for at most
    /// `max_rounds` full sweeps. Returns the reached strategy profile if it
    /// is a Bayesian equilibrium, otherwise `None`. Routed through
    /// [`BayesianModel::best_response_dynamics`].
    ///
    /// For Bayesian potential games (every NCS game is one) each strict
    /// improvement decreases the expected potential, so this converges.
    #[must_use]
    pub fn best_response_dynamics(
        &self,
        start: StrategyProfile,
        max_rounds: usize,
    ) -> Option<StrategyProfile> {
        BayesianModel::best_response_dynamics(self, start, max_rounds)
    }

    /// Iterates over every pure strategy profile (zero-probability types
    /// pinned to action 0).
    ///
    /// # Errors
    ///
    /// Returns an [`EnumerationError`] when the strategy space exceeds the
    /// enumeration limit.
    pub fn strategies(&self) -> Result<StrategyIter<'_>, EnumerationError> {
        let size = BayesianModel::strategy_space_size(self).map_err(|_| EnumerationError {
            required: u128::MAX,
        })?;
        if size > MAX_ENUMERATION {
            return Err(EnumerationError { required: size });
        }
        let mut slots = Vec::new();
        for i in 0..self.num_agents() {
            for tau in 0..self.type_counts[i] {
                if self.marginals[i][tau] > 0.0 {
                    slots.push((i, tau));
                }
            }
        }
        let bases: Vec<usize> = slots.iter().map(|&(i, _)| self.action_counts[i]).collect();
        Ok(StrategyIter {
            game: self,
            slots,
            inner: ProfileIter::new(bases),
        })
    }

    /// Computes all six measures exactly by enumeration.
    ///
    /// This is a thin compatibility wrapper over
    /// `Solver::default().solve(&game)` — prefer [`Solver`] directly for
    /// budgets, sampled backends, multi-threaded sweeps, and the
    /// structured [`crate::solve::SolveReport`].
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::TooLarge`] when a required enumeration is
    /// infeasible, [`MeasureError::NoPureEquilibrium`] when some underlying
    /// game has no pure Nash equilibrium, and
    /// [`MeasureError::NoBayesianEquilibrium`] when the Bayesian game has
    /// no pure Bayesian equilibrium.
    pub fn measures(&self) -> Result<Measures, MeasureError> {
        match Solver::default().solve(self) {
            Ok(report) => Ok(report.measures),
            Err(e) => Err(match e {
                SolveError::BudgetExceeded { required, .. } => {
                    MeasureError::TooLarge(EnumerationError { required })
                }
                SolveError::SpaceTooLarge => MeasureError::TooLarge(EnumerationError {
                    required: u128::MAX,
                }),
                SolveError::NoEquilibrium => MeasureError::NoBayesianEquilibrium,
                SolveError::NoStateEquilibrium { state } => {
                    MeasureError::NoPureEquilibrium { state }
                }
                other => MeasureError::Solver(other.to_string()),
            }),
        }
    }

    fn check_strategy(&self, s: &StrategyProfile) {
        assert_eq!(s.len(), self.num_agents(), "strategy profile length");
        for (i, si) in s.iter().enumerate() {
            assert_eq!(si.len(), self.type_counts[i], "strategy of agent {i}");
            for &a in si {
                assert!(a < self.action_counts[i], "action out of range");
            }
        }
    }
}

impl BayesianModel for BayesianGame {
    type Action = usize;

    fn num_agents(&self) -> usize {
        self.type_counts.len()
    }

    fn type_count(&self, agent: usize) -> usize {
        self.type_counts[agent]
    }

    fn type_weight(&self, agent: usize, tau: usize) -> f64 {
        self.marginals[agent][tau]
    }

    fn candidate_actions(&self, agent: usize, tau: usize) -> Result<Vec<usize>, SolveError> {
        // Zero-probability types are pinned to action 0: their action
        // never affects any cost, so a single candidate suffices.
        if self.marginals[agent][tau] == 0.0 {
            Ok(vec![0])
        } else {
            Ok((0..self.action_counts[agent]).collect())
        }
    }

    fn candidate_count(&self, agent: usize, tau: usize) -> Result<usize, SolveError> {
        if self.marginals[agent][tau] == 0.0 {
            Ok(1)
        } else {
            Ok(self.action_counts[agent])
        }
    }

    fn social_cost(&self, profile: &StrategyProfile) -> f64 {
        BayesianGame::social_cost(self, profile)
    }

    fn interim_cost(
        &self,
        agent: usize,
        tau: usize,
        action: &usize,
        profile: &StrategyProfile,
    ) -> f64 {
        BayesianGame::interim_cost(self, agent, tau, *action, profile)
    }

    fn best_response(&self, agent: usize, tau: usize, profile: &StrategyProfile) -> (usize, f64) {
        // Ties to the smallest index: a later action must improve by more
        // than the workspace tolerance to dethrone an earlier one, so
        // float noise cannot change the chosen action (or the dynamics
        // trajectories built on it).
        let mut best_a = 0;
        let mut best_c = f64::INFINITY;
        for a in 0..self.action_counts[agent] {
            let c = BayesianGame::interim_cost(self, agent, tau, a, profile);
            if c < best_c - bi_util::EPS {
                best_c = c;
                best_a = a;
            }
        }
        (best_a, best_c)
    }

    fn slot_is_stable(&self, agent: usize, tau: usize, profile: &StrategyProfile) -> bool {
        // Exact over every deviation (the EPS tie-breaking in
        // `best_response` may return a cost up to EPS above the true
        // minimum, which would weaken the default check).
        let played = BayesianGame::interim_cost(self, agent, tau, profile[agent][tau], profile);
        (0..self.action_counts[agent]).all(|a| {
            let dev = BayesianGame::interim_cost(self, agent, tau, a, profile);
            dev >= played || bi_util::approx_le(played, dev)
        })
    }

    fn state_count(&self) -> usize {
        self.states.len()
    }

    fn state_prob(&self, idx: usize) -> f64 {
        self.states[idx].prob
    }

    fn state_types(&self, idx: usize) -> Option<&[usize]> {
        Some(&self.states[idx].types)
    }

    fn state_model(&self, idx: usize, prob: f64) -> Self {
        let k = self.num_agents();
        BayesianGame {
            type_counts: vec![1; k],
            action_counts: self.action_counts.clone(),
            states: vec![State {
                types: vec![0; k],
                prob,
                game: Arc::clone(&self.states[idx].game),
                table_class: self.states[idx].table_class.clone(),
            }],
            marginals: vec![vec![prob]; k],
        }
    }

    fn agents_interchangeable(&self, a: usize, b: usize) -> bool {
        // Exact bitwise interchangeability (see the trait contract): we
        // certify that swapping agents `a` and `b` permutes every
        // floating-point *term* of every cost computation onto an equal
        // bit pattern in the same position, which requires
        //
        //   (0) identical type structure and bitwise-equal marginals,
        //   (1) every support state fixed by the swap
        //       (`types[a] == types[b]`),
        //   (2) every agent's state cost table invariant under swapping
        //       the `a`/`b` coordinates of the joint action index, and
        //   (3) agents `a` and `b` carrying bitwise-equal cost tables.
        //
        // (2) makes social and third-party interim sums termwise
        // identical under the swap; (2)+(3) make the stability decision
        // of agent `a`'s slots under the swapped profile coincide with
        // agent `b`'s under the original. On a profile where `a` and `b`
        // play the same action at every type the swap is the identity:
        // by (1) both play it in the same states, so by (3) and then (2)
        // a deviation of `b` reads the same table entry as the same
        // deviation of `a`, and slot `(b, τ)`'s interim vector, and with
        // it its verdict, equals slot `(a, τ)`'s bit for bit. The orbit
        // sweep skips such repeated slots in its equilibrium check.
        //
        // (3) and the cheap checks run over every state before any table
        // walk, so asymmetric pairs cost O(states). (2) walks only each
        // state's bitwise-distinct tables: equal tables are equally
        // invariant.
        if a == b {
            return true;
        }
        if self.type_counts[a] != self.type_counts[b]
            || self.action_counts[a] != self.action_counts[b]
        {
            return false;
        }
        let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
        if self.marginals[a].len() != self.marginals[b].len()
            || !self.marginals[a]
                .iter()
                .zip(&self.marginals[b])
                .all(|(&x, &y)| eq(x, y))
        {
            return false;
        }
        let n = self.action_counts[a];
        self.states
            .iter()
            .all(|st| st.types[a] == st.types[b] && st.table_class[a] == st.table_class[b])
            && self.states.iter().all(|st| {
                let (stride_a, stride_b) = (st.game.stride(a), st.game.stride(b));
                st.table_class
                    .iter()
                    .enumerate()
                    .filter(|&(l, &class)| l == class)
                    .all(|(l, _)| swap_invariant(st.game.cost_table(l), stride_a, stride_b, n))
            })
    }

    fn lower<'a>(&'a self, space: &'a CompiledSpace<Self::Action>) -> Box<dyn Lowered + 'a> {
        Box::new(MatrixLowered::new(self, space))
    }
}

/// Per agent of `game`, the smallest agent whose cost table is
/// bitwise-equal to its own, so the distinct tables are the agents `i`
/// with `classes[i] == i`. Tables are compared exactly (never by hash),
/// and a mismatch usually ends a comparison at its first entry.
fn table_classes(game: &MatrixFormGame) -> Vec<usize> {
    let mut classes: Vec<usize> = Vec::with_capacity(game.num_agents());
    for i in 0..game.num_agents() {
        let table = game.cost_table(i);
        let class = (0..i)
            .filter(|&r| classes[r] == r)
            .find(|&r| {
                game.cost_table(r)
                    .iter()
                    .zip(table)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            })
            .unwrap_or(i);
        classes.push(class);
    }
    classes
}

/// Whether `table` is bitwise-invariant under swapping the digits at
/// strides `stride_a` and `stride_b` (both of radix `n`) of its joint
/// index. Division-free: the index is walked as
/// `outer + y·hi + mid + x·lo + inner` with `lo < hi` the two strides,
/// and only the pairs `x < y` are compared (`x == y` is the identity,
/// `x > y` mirrors a compared pair).
fn swap_invariant(table: &[f64], stride_a: usize, stride_b: usize, n: usize) -> bool {
    let (lo, hi) = (stride_a.min(stride_b), stride_a.max(stride_b));
    (0..table.len()).step_by(hi * n).all(|outer| {
        (0..hi).step_by(lo * n).all(|mid| {
            let base = outer + mid;
            (0..n).all(|x| {
                (x + 1..n).all(|y| {
                    let p = base + x * lo + y * hi;
                    let q = base + y * lo + x * hi;
                    table[p..p + lo]
                        .iter()
                        .zip(&table[q..q + lo])
                        .all(|(u, v)| u.to_bits() == v.to_bits())
                })
            })
        })
    })
}

/// Cap on precomputed social-table entries (`support states × joint
/// profiles`) of [`MatrixLowered::prepare_sweep`]; past it the kernels
/// compute social costs from the per-agent tables instead of
/// materializing hundreds of megabytes of premultiplied tables.
const MATRIX_TABLE_BUDGET: usize = 1 << 22;

/// Compiled evaluation tables of a [`BayesianGame`]: per support state, a
/// premultiplied flat social-cost table addressed by strided profile
/// offsets, plus the `(slot, stride)` terms that keep each state's offset
/// maintained incrementally as the sweep odometer advances digits.
struct MatrixLowered<'a> {
    space: &'a CompiledSpace<usize>,
    states: Vec<MatrixState<'a>>,
    /// Per slot: the states the slot participates in, as
    /// `(state, stride of the slot's agent in that state)`, in state
    /// order (interim sums must preserve the legacy state iteration
    /// order bit-for-bit).
    slot_states: Vec<Vec<(usize, usize)>>,
    /// Per slot, a bitset over slots (`num_slots.div_ceil(64)` words at
    /// `slot · words`) of the *other* slots sharing one of its states —
    /// exactly the slots whose interim vectors read its digit.
    readers: Vec<u64>,
    /// Start of each slot's entries in a kernel's memo arena (one extra
    /// terminal entry, so slot `j` spans `memo_base[j]..memo_base[j + 1]`).
    memo_base: Vec<usize>,
    /// Per state, `prob · K_t(a)` per joint index — one lookup instead of
    /// `k` table reads per profile. Built by
    /// [`Lowered::prepare_sweep`] only: the tables amortize over an
    /// exhaustive sweep but would dwarf a dynamics run that evaluates a
    /// handful of profiles.
    social: std::sync::OnceLock<Vec<Vec<f64>>>,
}

struct MatrixState<'a> {
    prob: f64,
    /// Per agent, the state's raw cost table (interim sums multiply by
    /// `prob` at lookup, replicating the legacy arithmetic exactly).
    agent_tables: Vec<&'a [f64]>,
    /// `(slot, stride)` per agent: the state's joint index is
    /// `Σ digit(slot)·stride`.
    offset_terms: Vec<(usize, usize)>,
}

impl MatrixState<'_> {
    /// `prob · K_t` at joint index `offset`, from the per-agent tables:
    /// the agent terms accumulate in agent order, then scale by `prob`
    /// (the operand the premultiplied sweep tables hold, when built).
    fn term(&self, offset: usize) -> f64 {
        let k: f64 = self.agent_tables.iter().map(|table| table[offset]).sum();
        self.prob * k
    }
}

impl<'a> MatrixLowered<'a> {
    fn new(game: &'a BayesianGame, space: &'a CompiledSpace<usize>) -> Self {
        // Slot index of (agent, tau): slots are agent-major.
        let mut slot_base = Vec::with_capacity(game.num_agents());
        let mut acc = 0usize;
        for &count in &game.type_counts {
            slot_base.push(acc);
            acc += count;
        }
        let num_slots = space.num_slots();
        let words = num_slots.div_ceil(64);
        let mut slot_states: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_slots];
        let mut readers = vec![0u64; num_slots * words];
        let mut states = Vec::with_capacity(game.states.len());
        for (s_idx, st) in game.states.iter().enumerate() {
            let mut offset_terms = Vec::with_capacity(game.num_agents());
            for (i, &tau) in st.types.iter().enumerate() {
                let slot = slot_base[i] + tau;
                let stride = st.game.stride(i);
                offset_terms.push((slot, stride));
                slot_states[slot].push((s_idx, stride));
            }
            for &(slot, _) in &offset_terms {
                for &(other, _) in &offset_terms {
                    if other != slot {
                        readers[slot * words + other / 64] |= 1 << (other % 64);
                    }
                }
            }
            states.push(MatrixState {
                prob: st.prob,
                agent_tables: (0..game.num_agents())
                    .map(|i| st.game.cost_table(i))
                    .collect(),
                offset_terms,
            });
        }
        let mut memo_base = Vec::with_capacity(num_slots + 1);
        let mut acc = 0usize;
        for j in 0..num_slots {
            memo_base.push(acc);
            acc += space.slot_size(j) as usize;
        }
        memo_base.push(acc);
        MatrixLowered {
            space,
            states,
            slot_states,
            readers,
            memo_base,
            social: std::sync::OnceLock::new(),
        }
    }
}

impl Lowered for MatrixLowered<'_> {
    fn kernel(&self) -> Box<dyn EvalKernel + '_> {
        let entries = self.memo_base[self.space.num_slots()];
        Box::new(MatrixKernel {
            lowered: self,
            offsets: vec![0; self.states.len()],
            digits: vec![0; self.space.num_slots()],
            interim: vec![0.0; entries],
            verdicts: vec![None; entries],
            fresh: vec![0; self.space.num_slots().div_ceil(64)],
        })
    }

    fn scans_slots(&self) -> bool {
        true
    }

    fn prepare_sweep(&self) {
        let prod = self.states.first().map_or(0, |st| {
            st.agent_tables.first().map_or(0, |table| table.len())
        });
        if self
            .states
            .len()
            .checked_mul(prod)
            .is_none_or(|entries| entries > MATRIX_TABLE_BUDGET)
        {
            return;
        }
        self.social.get_or_init(|| {
            self.states
                .iter()
                .map(|st| {
                    // Same fold as `MatrixFormGame::social_cost`,
                    // premultiplied by the state's probability (the legacy
                    // outer product) — bit-identical to the on-the-fly path
                    // in `MatrixKernel::social_cost`: per entry the agent
                    // terms accumulate in agent order from `-0.0`, where
                    // `f64`'s `Sum` starts (so all-`-0.0` costs stay
                    // `-0.0`), then scale by `prob`. Structured as
                    // contiguous per-agent passes so each inner loop is a
                    // unit-stride `acc[i] += t[i]` the compiler
                    // auto-vectorizes.
                    let mut acc = vec![-0.0f64; prod];
                    for table in &st.agent_tables {
                        for (v, &t) in acc.iter_mut().zip(*table) {
                            *v += t;
                        }
                    }
                    for v in &mut acc {
                        // `prob * acc` and `acc * prob` are the same bits
                        // (IEEE multiplication commutes), so this matches
                        // the legacy `prob * k` fold exactly.
                        *v *= st.prob;
                    }
                    acc
                })
                .collect()
        });
    }
}

/// Incremental evaluator over the [`MatrixLowered`] tables: maintains one
/// strided joint-profile offset per support state, so social cost is one
/// table lookup per state and interim deviation costs are strided reads
/// off the same offsets.
///
/// Each slot's interim vector is memoized. It reads only the digits of
/// the other slots in its states (see [`MatrixLowered::readers`]), never
/// its own: the base `offsets[s] − played·stride` cancels the own term
/// exactly in integer arithmetic. So it is recomputed only after one of
/// those digits moves. On the odometer the last slots' vectors depend on
/// slow digits and survive a whole inner cycle.
struct MatrixKernel<'a> {
    lowered: &'a MatrixLowered<'a>,
    /// Joint profile index per state under the current digits.
    offsets: Vec<usize>,
    digits: Vec<u32>,
    /// Every slot's unnormalized interim cost per candidate, slot-major
    /// at [`MatrixLowered::memo_base`].
    interim: Vec<f64>,
    /// Per `(slot, digit)`, aligned with `interim`: whether playing that
    /// digit is stable against the slot's memoized vector, once checked.
    verdicts: Vec<Option<bool>>,
    /// Bitset over slots: whether the slot's memoized vector matches the
    /// current digits.
    fresh: Vec<u64>,
}

impl MatrixKernel<'_> {
    /// Brings `slot`'s memoized interim vector up to date and returns its
    /// range in [`Self::interim`]. A recomputation is one fused pass over
    /// the slot's states, bit-identical per action to the legacy
    /// one-action-at-a-time `BayesianGame::interim_cost` (each
    /// accumulator starts at `0.0` and adds the same `prob · table[..]`
    /// products in the same state order), and forgets the slot's
    /// verdicts.
    fn refresh(&mut self, slot: usize) -> std::ops::Range<usize> {
        let lowered = self.lowered;
        let range = lowered.memo_base[slot]..lowered.memo_base[slot + 1];
        if self.fresh[slot / 64] >> (slot % 64) & 1 == 1 {
            return range;
        }
        let played = self.digits[slot] as usize;
        let (agent, _) = lowered.space.slot(slot);
        let interim = &mut self.interim[range.clone()];
        interim.fill(0.0);
        for &(s, stride) in &lowered.slot_states[slot] {
            let state = &lowered.states[s];
            let table = state.agent_tables[agent];
            let base = self.offsets[s] - played * stride;
            let prob = state.prob;
            for (a, acc) in interim.iter_mut().enumerate() {
                *acc += prob * table[base + a * stride];
            }
        }
        self.verdicts[range.clone()].fill(None);
        self.fresh[slot / 64] |= 1 << (slot % 64);
        range
    }
}

/// The `slot_is_stable` verdict of a candidate of interim cost `played`
/// against the slot's all-candidates interim vector.
fn stable_against(interim: &[f64], played: f64) -> bool {
    interim
        .iter()
        .all(|&dev| dev >= played || bi_util::approx_le(played, dev))
}

impl EvalKernel for MatrixKernel<'_> {
    fn seed(&mut self, digits: &[u32]) {
        self.digits.copy_from_slice(digits);
        for (offset, state) in self.offsets.iter_mut().zip(&self.lowered.states) {
            *offset = state
                .offset_terms
                .iter()
                .map(|&(slot, stride)| digits[slot] as usize * stride)
                .sum();
        }
        self.fresh.fill(0);
    }

    fn advance(&mut self, slot: usize, old: u32, new: u32) {
        self.digits[slot] = new;
        for &(s, stride) in &self.lowered.slot_states[slot] {
            self.offsets[s] = self.offsets[s] - old as usize * stride + new as usize * stride;
        }
        let words = self.fresh.len();
        let readers = &self.lowered.readers[slot * words..(slot + 1) * words];
        for (fresh, &readers) in self.fresh.iter_mut().zip(readers) {
            *fresh &= !readers;
        }
    }

    fn social_cost(&mut self) -> f64 {
        // Same fold as the legacy `BayesianGame::social_cost`: one
        // `prob · K_t` term per state, in state order — read from the
        // premultiplied sweep tables when built, recomputed from the
        // per-agent tables otherwise (identical operands either way).
        if let Some(social) = self.lowered.social.get() {
            self.offsets
                .iter()
                .zip(social)
                .map(|(&offset, table)| table[offset])
                .sum()
        } else {
            self.offsets
                .iter()
                .zip(&self.lowered.states)
                .map(|(&offset, state)| state.term(offset))
                .sum()
        }
    }

    /// Bit-faithful `BayesianGame::slot_is_stable` for one slot: exact
    /// over every deviation. The legacy short-circuit over actions only
    /// skipped computation, never changed the decision, so the verdict
    /// over the memoized all-deviations vector is the identical boolean.
    fn slot_is_stable(&mut self, slot: usize) -> bool {
        let range = self.refresh(slot);
        let at = range.start + self.digits[slot] as usize;
        if let Some(stable) = self.verdicts[at] {
            return stable;
        }
        let stable = stable_against(&self.interim[range], self.interim[at]);
        self.verdicts[at] = Some(stable);
        stable
    }

    fn is_equilibrium_except(&mut self, skip: &[bool]) -> bool {
        // An AND over independent slots, so the order cannot change the
        // result. Last to first: the last slots move fastest, so their
        // vectors depend only on slow digits and a memoized verdict
        // usually refutes the profile in O(1).
        let space = self.lowered.space;
        (0..space.num_slots()).rev().all(|slot| {
            space.weight(slot) == 0.0 || skip.get(slot) == Some(&true) || self.slot_is_stable(slot)
        })
    }

    fn slot_improvement(&mut self, slot: usize) -> SlotStep {
        // Replicates the default `BayesianModel::slot_improvement` +
        // `BayesianGame::best_response` pair: EPS tie-breaking to the
        // smallest action index, improvement only beyond the tolerance.
        let range = self.refresh(slot);
        let interim = &self.interim[range];
        let played = interim[self.digits[slot] as usize];
        let mut best_a = 0usize;
        let mut best_c = f64::INFINITY;
        for (a, &c) in interim.iter().enumerate() {
            if c < best_c - bi_util::EPS {
                best_c = c;
                best_a = a;
            }
        }
        if best_c < played - bi_util::EPS {
            SlotStep::Improve(best_a as u32)
        } else {
            SlotStep::Stable
        }
    }

    fn scan_slot(&mut self, slot: usize, stable: &mut [bool], group: &mut [f64]) -> f64 {
        // The verdicts read the memoized interim vector and are memoized
        // in turn, so the equilibrium checks that follow a scan hit them.
        // A candidate the vector's least entry refutes is unstable
        // whatever the other deviations; only the rest need the full
        // verdict. (If every entry is NaN, `least` is `∞` and refutes
        // nothing.)
        let range = self.refresh(slot);
        let interim = &self.interim[range.clone()];
        let least = interim.iter().fold(f64::INFINITY, |least, &c| least.min(c));
        for (a, (stable, verdict)) in stable
            .iter_mut()
            .zip(&mut self.verdicts[range.clone()])
            .enumerate()
        {
            let played = interim[a];
            *stable = *verdict.get_or_insert_with(|| {
                stable_against(&[least], played) && stable_against(interim, played)
            });
        }
        // One strided pass per state, like `refresh`, over the operands
        // `social_cost` folds: the same table reads at the offsets the
        // slot's candidates would give.
        let lowered = self.lowered;
        let social = lowered.social.get();
        let played = self.digits[slot] as usize;
        group.fill(0.0);
        let mut bound = 0.0;
        for &(s, stride) in &lowered.slot_states[slot] {
            let base = self.offsets[s] - played * stride;
            let mut largest = 0.0f64;
            for (a, sum) in group.iter_mut().enumerate() {
                let offset = base + a * stride;
                let term = match social {
                    Some(social) => social[s][offset],
                    None => lowered.states[s].term(offset),
                };
                *sum += term;
                largest = largest.max(if term.is_finite() {
                    term.abs()
                } else {
                    f64::INFINITY
                });
            }
            bound += largest;
        }
        bound
    }
}

/// Iterator over all pure strategy profiles of a [`BayesianGame`].
pub struct StrategyIter<'a> {
    game: &'a BayesianGame,
    slots: Vec<(usize, usize)>,
    inner: ProfileIter,
}

impl Iterator for StrategyIter<'_> {
    type Item = StrategyProfile;

    fn next(&mut self) -> Option<StrategyProfile> {
        let assignment = self.inner.next()?;
        let mut s: StrategyProfile = self
            .game
            .type_counts()
            .iter()
            .map(|&c| vec![0usize; c])
            .collect();
        for (&(i, tau), &a) in self.slots.iter().zip(&assignment) {
            s[i][tau] = a;
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two agents; agent 1 has two types. In state 0 the agents want to
    /// match, in state 1 they want to differ; agent 0 cannot see which.
    fn coordination_game() -> BayesianGame {
        let matcher =
            MatrixFormGame::from_fn(2, &[2, 2], |_, a| if a[0] == a[1] { 0.0 } else { 2.0 });
        let mismatcher =
            MatrixFormGame::from_fn(2, &[2, 2], |_, a| if a[0] != a[1] { 0.0 } else { 2.0 });
        BayesianGame::new(
            vec![1, 2],
            vec![(vec![0, 0], 0.5, matcher), (vec![0, 1], 0.5, mismatcher)],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_prior() {
        let g = MatrixFormGame::from_fn(1, &[1], |_, _| 0.0);
        assert!(matches!(
            BayesianGame::new(vec![1], vec![(vec![0], 0.5, g.clone())]),
            Err(BayesianGameError::BadPrior(_))
        ));
        assert!(matches!(
            BayesianGame::new(
                vec![1],
                vec![(vec![0], 0.5, g.clone()), (vec![0], 0.5, g.clone())]
            ),
            Err(BayesianGameError::DuplicateState(1))
        ));
        assert!(matches!(
            BayesianGame::new(vec![1], vec![(vec![3], 1.0, g)]),
            Err(BayesianGameError::TypeOutOfRange { state: 0, agent: 0 })
        ));
    }

    #[test]
    fn marginals_aggregate_over_states() {
        let game = coordination_game();
        assert_eq!(game.marginal(0, 0), 1.0);
        assert_eq!(game.marginal(1, 0), 0.5);
        assert_eq!(game.marginal(1, 1), 0.5);
    }

    #[test]
    fn expected_costs_average_over_the_prior() {
        let game = coordination_game();
        // Agent 1 matches in her first type, differs in the second: both
        // states resolved perfectly.
        let s = vec![vec![0], vec![0, 1]];
        assert_eq!(game.social_cost(&s), 0.0);
        assert_eq!(game.expected_cost(0, &s), 0.0);
        // Agent 1 always plays 0: state 1 costs 2 per agent, prob 1/2.
        let s_bad = vec![vec![0], vec![0, 0]];
        assert_eq!(game.social_cost(&s_bad), 2.0);
    }

    #[test]
    fn the_informed_agent_separates_at_equilibrium() {
        let game = coordination_game();
        let s = vec![vec![0], vec![0, 1]];
        assert!(game.is_bayesian_equilibrium(&s));
        let s_bad = vec![vec![0], vec![0, 0]];
        assert!(!game.is_bayesian_equilibrium(&s_bad));
    }

    #[test]
    fn best_response_dynamics_reach_an_equilibrium() {
        let game = coordination_game();
        let start = vec![vec![0], vec![1, 1]];
        let eq = game.best_response_dynamics(start, 50).expect("converges");
        assert!(game.is_bayesian_equilibrium(&eq));
    }

    #[test]
    fn strategy_enumeration_counts() {
        let game = coordination_game();
        // Agent 0: 2 actions ^ 1 type; agent 1: 2 ^ 2 types → 8 profiles.
        assert_eq!(game.strategy_space_size().unwrap(), 8);
        assert_eq!(game.strategies().unwrap().count(), 8);
    }

    #[test]
    fn measures_satisfy_observation_2_2() {
        let game = coordination_game();
        let m = game.measures().unwrap();
        m.verify_chain().unwrap();
        // optP: agent 1 separates → 0. optC = 0 as well.
        assert_eq!(m.opt_p, 0.0);
        assert_eq!(m.opt_c, 0.0);
    }

    #[test]
    fn measure_error_when_no_pure_underlying_equilibrium() {
        // Matching pennies as the single state: no pure Nash.
        let mp = MatrixFormGame::from_fn(2, &[2, 2], |i, a| {
            let matched = a[0] == a[1];
            match (i, matched) {
                (0, true) | (1, false) => 0.0,
                _ => 1.0,
            }
        });
        let game = BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, mp)]).unwrap();
        match game.measures() {
            Err(MeasureError::NoPureEquilibrium { state: 0 }) => {}
            Err(MeasureError::NoBayesianEquilibrium) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn interim_cost_restricts_to_the_observed_type() {
        let game = coordination_game();
        let s = vec![vec![0], vec![0, 0]];
        // Agent 1 at type 0 (matcher state): playing 0 matches agent 0's 0.
        assert_eq!(game.interim_cost(1, 0, 0, &s), 0.0);
        assert_eq!(game.interim_cost(1, 0, 1, &s), 0.5 * 2.0);
        // At type 1 (mismatcher state): playing 1 is free.
        assert_eq!(game.interim_cost(1, 1, 1, &s), 0.0);
    }

    #[test]
    fn zero_probability_types_are_pinned() {
        let g = MatrixFormGame::from_fn(1, &[3], |_, a| a[0] as f64);
        // Type space of size 2 but only type 0 in the support.
        let game = BayesianGame::new(vec![2], vec![(vec![0], 1.0, g)]).unwrap();
        assert_eq!(game.strategy_space_size().unwrap(), 3);
        for s in game.strategies().unwrap() {
            assert_eq!(s[0][1], 0, "unused type must stay pinned");
        }
    }
}

#[cfg(test)]
mod interchangeable_oracle {
    //! Exactness of the division-free, class-deduplicated
    //! `agents_interchangeable` against the implementation it replaced.

    use super::*;
    use proptest::prelude::*;

    /// The check as it stood before per-state table classes and the
    /// division-free walk (every pair rescanned all `k` tables under a
    /// division-based swapped index), kept verbatim as the oracle.
    fn legacy_agents_interchangeable(game: &BayesianGame, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        if game.type_counts[a] != game.type_counts[b]
            || game.action_counts[a] != game.action_counts[b]
        {
            return false;
        }
        let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
        if game.marginals[a].len() != game.marginals[b].len()
            || !game.marginals[a]
                .iter()
                .zip(&game.marginals[b])
                .all(|(&x, &y)| eq(x, y))
        {
            return false;
        }
        let k = game.num_agents();
        let n = game.action_counts[a];
        game.states.iter().all(|st| {
            if st.types[a] != st.types[b] {
                return false;
            }
            let stride_a = st.game.stride(a);
            let stride_b = st.game.stride(b);
            let swap = |idx: usize| {
                let da = idx / stride_a % n;
                let db = idx / stride_b % n;
                idx - da * stride_a - db * stride_b + db * stride_a + da * stride_b
            };
            let table_a = st.game.cost_table(a);
            let table_b = st.game.cost_table(b);
            table_a.iter().zip(table_b).all(|(&x, &y)| eq(x, y))
                && (0..k).all(|l| {
                    let t = st.game.cost_table(l);
                    (0..t.len()).all(|idx| eq(t[swap(idx)], t[idx]))
                })
        })
    }

    /// Costs drawn from here make signed zeros and infinities common.
    const PALETTE: [f64; 6] = [0.0, -0.0, 1.0, 2.5, f64::INFINITY, 1e-300];

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn hash(seed: u64, key: impl IntoIterator<Item = usize>) -> u64 {
        key.into_iter().fold(mix(seed), |h, x| mix(h ^ x as u64))
    }

    /// One damaging edit of a planted game.
    #[derive(Clone, Copy, Debug)]
    enum Mutation {
        None,
        /// Flip one bit of one table entry.
        FlipBit,
        /// Negate one entry (`0.0` becomes `-0.0`).
        Negate,
        /// Overwrite one entry with `+∞`.
        Infinity,
        /// Move one agent to another type in one state.
        Retype,
    }

    const MUTATIONS: [Mutation; 5] = [
        Mutation::None,
        Mutation::FlipBit,
        Mutation::Negate,
        Mutation::Infinity,
        Mutation::Retype,
    ];

    /// A `k`-agent, `n`-action game whose agents `0..planted` are
    /// interchangeable by construction — one type shared in every state,
    /// one shared cost function of their action multiset, every other
    /// agent's costs symmetric in them too — then damaged by `mutation`
    /// at a spot picked by `target`. `None` when the random type
    /// profiles collide (an invalid prior).
    #[allow(clippy::too_many_arguments)]
    fn planted_game(
        seed: u64,
        k: usize,
        n: usize,
        planted: usize,
        states: usize,
        types: usize,
        mutation: Mutation,
        target: u64,
    ) -> Option<BayesianGame> {
        let planted = planted.min(k);
        let (bad_state, bad_agent) = (
            (target % states as u64) as usize,
            (target >> 8) as usize % k,
        );
        let bad_entry = (target >> 16) as usize % n.pow(k as u32);
        let bit = (target >> 40) % 64;
        let support = (0..states)
            .map(|s| {
                let shared = hash(seed, [s, 1]) as usize % types;
                let mut profile: Vec<usize> = (0..k)
                    .map(|i| {
                        if i < planted {
                            shared
                        } else {
                            hash(seed, [s, 2, i]) as usize % types
                        }
                    })
                    .collect();
                if matches!(mutation, Mutation::Retype) && s == bad_state {
                    profile[bad_agent] = (profile[bad_agent] + 1) % types;
                }
                let game = MatrixFormGame::from_fn(k, &vec![n; k], |i, a| {
                    let mut key: Vec<usize> = a[..planted].to_vec();
                    key.sort_unstable();
                    key.extend_from_slice(&a[planted..]);
                    key.extend([s, if i < planted { k } else { i }]);
                    let h = hash(seed, key);
                    let cost = if h % 3 == 0 {
                        PALETTE[(h >> 8) as usize % PALETTE.len()]
                    } else {
                        (h >> 11) as f64 / 1024.0
                    };
                    let entry = a.iter().fold(0, |acc, &x| acc * n + x);
                    if s != bad_state || i != bad_agent || entry != bad_entry {
                        return cost;
                    }
                    match mutation {
                        Mutation::FlipBit => {
                            let flipped = f64::from_bits(cost.to_bits() ^ (1 << bit));
                            if flipped.is_nan() {
                                f64::MAX
                            } else {
                                flipped
                            }
                        }
                        Mutation::Negate => -cost,
                        Mutation::Infinity => f64::INFINITY,
                        Mutation::None | Mutation::Retype => cost,
                    }
                });
                (profile, 1.0 / states as f64, game)
            })
            .collect();
        BayesianGame::new(vec![types; k], support).ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fast check and the legacy walk agree on every agent pair.
        #[test]
        fn division_free_check_agrees_with_the_legacy_walk(
            seed in 0u64..u64::MAX,
            k in 2usize..6,
            n in 2usize..5,
            planted in 0usize..6,
            states in 1usize..4,
            types in 1usize..4,
            mutation in prop::sample::select(MUTATIONS.to_vec()),
            target in 0u64..u64::MAX,
        ) {
            let Some(game) = planted_game(seed, k, n, planted, states, types, mutation, target)
            else {
                return Ok(());
            };
            for a in 0..k {
                for b in 0..k {
                    prop_assert_eq!(
                        game.agents_interchangeable(a, b),
                        legacy_agents_interchangeable(&game, a, b)
                    );
                }
            }
        }
    }

    #[test]
    fn planted_pairs_are_found_and_one_flipped_bit_breaks_them() {
        let mut planted_hits = 0;
        for seed in 0..64 {
            let Some(game) = planted_game(seed, 4, 3, 3, 2, 2, Mutation::None, 0) else {
                continue;
            };
            assert!(game.agents_interchangeable(0, 1), "seed {seed}");
            assert!(game.agents_interchangeable(1, 2), "seed {seed}");
            assert!(legacy_agents_interchangeable(&game, 0, 2), "seed {seed}");
            planted_hits += 1;
            // Flip the lowest bit of agent 1's first entry in state 0.
            let target = 1 << 8;
            let flipped = planted_game(seed, 4, 3, 3, 2, 2, Mutation::FlipBit, target).unwrap();
            assert!(!flipped.agents_interchangeable(0, 1), "seed {seed}");
            assert!(
                !legacy_agents_interchangeable(&flipped, 0, 1),
                "seed {seed}"
            );
        }
        assert!(planted_hits > 32, "most seeds must yield a valid prior");
    }

    #[test]
    fn signed_zero_is_not_zero() {
        // Identical tables except one `0.0` against `-0.0`: equal as
        // floats, different as bits, so not interchangeable.
        let g = MatrixFormGame::from_fn(
            2,
            &[2, 2],
            |i, a| {
                if i == 1 && a == [0, 0] {
                    -0.0
                } else {
                    0.0
                }
            },
        );
        let game = BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, g)]).unwrap();
        assert!(!game.agents_interchangeable(0, 1));
        assert!(!legacy_agents_interchangeable(&game, 0, 1));
    }
}
