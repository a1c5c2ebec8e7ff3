//! Bayesian network cost-sharing games.

use std::sync::Arc;

use bi_core::compiled::{CompiledSpace, EvalKernel, Lowered, SlotStep};
use bi_core::game::EnumerationError;
use bi_core::measures::Measures;
use bi_core::model::BayesianModel;
use bi_core::solve::{SolveError, Solver};
use bi_graph::paths::{self, PathLimits};
use bi_graph::Graph;
use bi_util::harmonic;

use crate::error::NcsError;
use crate::game::{NcsGame, Path};
use crate::prior::{AgentType, Prior};

/// A pure strategy profile of a Bayesian NCS game: `s[i][τ]` is the path
/// agent `i` buys when observing her `τ`-th type (indices into
/// [`BayesianNcsGame::agent_types`]).
pub type NcsStrategyProfile = Vec<Vec<Path>>;

/// A Bayesian network cost-sharing game: a graph with edge costs plus a
/// common prior over `(source, destination)` type profiles. Each agent
/// observes only her own pair and buys a path for it.
///
/// Interim best responses are shortest paths under the *expected-share*
/// edge weights `w(e) = E[c(e)/(load₋ᵢ(e)+1) | t_i]` (expected payments
/// are additive over edges), so Bayesian-equilibrium checks are exact over
/// the full `2^E` action space even though optimization enumerates
/// simple-path strategy sets.
///
/// # Examples
///
/// ```
/// use bi_graph::{Direction, Graph};
/// use bi_ncs::{BayesianNcsGame, Prior};
///
/// let mut g = Graph::new(Direction::Directed);
/// let s = g.add_node();
/// let t = g.add_node();
/// g.add_edge(s, t, 1.0);
/// let prior = Prior::independent(vec![vec![((s, t), 1.0)]]);
/// let game = BayesianNcsGame::new(g, prior).unwrap();
/// let m = game.measures().unwrap();
/// assert_eq!(m.opt_p, 1.0);
/// assert_eq!(m.opt_c, 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct BayesianNcsGame {
    /// Shared with every state model cut from this game, so a state's
    /// complete-information game copies no graph.
    graph: Arc<Graph>,
    support: Vec<(Vec<AgentType>, f64)>,
    /// Distinct positive-marginal types per agent.
    agent_types: Vec<Vec<AgentType>>,
    /// Per support state, the type index of each agent.
    support_type_idx: Vec<Vec<usize>>,
    /// Prior marginal weight of each `(agent, type)` slot, precomputed
    /// (the solver reads it per profile in its hot loop).
    type_weights: Vec<Vec<f64>>,
    limits: PathLimits,
}

impl BayesianNcsGame {
    /// Creates a Bayesian NCS game with default path-enumeration limits.
    ///
    /// # Errors
    ///
    /// Returns prior validation errors, [`NcsError::NodeOutOfRange`] /
    /// [`NcsError::Unreachable`] for infeasible types.
    pub fn new(graph: Graph, prior: Prior) -> Result<Self, NcsError> {
        Self::with_limits(graph, prior, PathLimits::default())
    }

    /// Creates a Bayesian NCS game with explicit path-enumeration limits
    /// (used by the exhaustive optimizers; equilibrium *checks* never
    /// truncate).
    ///
    /// # Errors
    ///
    /// See [`BayesianNcsGame::new`].
    pub fn with_limits(graph: Graph, prior: Prior, limits: PathLimits) -> Result<Self, NcsError> {
        let support = prior.support()?;
        let k = support[0].0.len();
        let mut agent_types: Vec<Vec<AgentType>> = vec![Vec::new(); k];
        for (types, _) in &support {
            for (i, &t) in types.iter().enumerate() {
                let (s, d) = t;
                if s.index() >= graph.node_count() || d.index() >= graph.node_count() {
                    return Err(NcsError::NodeOutOfRange { agent: i });
                }
                if bi_graph::shortest_path(&graph, s, d).is_none() {
                    return Err(NcsError::Unreachable { agent: i });
                }
                if !agent_types[i].contains(&t) {
                    agent_types[i].push(t);
                }
            }
        }
        let support_type_idx: Vec<Vec<usize>> = support
            .iter()
            .map(|(types, _)| {
                types
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        agent_types[i]
                            .iter()
                            .position(|u| u == t)
                            .expect("type collected above")
                    })
                    .collect()
            })
            .collect();
        let mut type_weights: Vec<Vec<f64>> = agent_types
            .iter()
            .map(|types| vec![0.0; types.len()])
            .collect();
        for (idx, (_, prob)) in support_type_idx.iter().zip(&support) {
            for (i, &tau) in idx.iter().enumerate() {
                type_weights[i][tau] += *prob;
            }
        }
        Ok(BayesianNcsGame {
            graph: Arc::new(graph),
            support,
            agent_types,
            support_type_idx,
            type_weights,
            limits,
        })
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of agents `k`.
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.agent_types.len()
    }

    /// The distinct positive-probability types of each agent.
    #[must_use]
    pub fn agent_types(&self) -> &[Vec<AgentType>] {
        &self.agent_types
    }

    /// The expanded prior support as `(type profile, probability)` pairs.
    #[must_use]
    pub fn support(&self) -> &[(Vec<AgentType>, f64)] {
        &self.support
    }

    /// The complete-information NCS game of the `idx`-th support state,
    /// built on demand.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn underlying_game(&self, idx: usize) -> NcsGame {
        NcsGame::new(Graph::clone(&self.graph), self.support[idx].0.clone())
            .expect("feasibility checked at construction")
    }

    /// Candidate paths of one `(agent, type)` slot: every simple path of
    /// the agent's terminal pair, or an error if enumeration truncates.
    fn slot_paths(&self, agent: usize, tau: usize) -> Result<Vec<Path>, NcsError> {
        let (s, t) = self.agent_types[agent][tau];
        let ps = paths::simple_paths(&self.graph, s, t, self.limits);
        if ps.len() >= self.limits.max_paths {
            Err(NcsError::IncompleteActionSet { agent })
        } else {
            Ok(ps)
        }
    }

    /// Candidate path sets per `(agent, type)` slot.
    ///
    /// # Errors
    ///
    /// Returns [`NcsError::IncompleteActionSet`] if enumeration truncates.
    pub fn strategy_sets(&self) -> Result<Vec<Vec<Vec<Path>>>, NcsError> {
        self.agent_types
            .iter()
            .enumerate()
            .map(|(i, types)| {
                (0..types.len())
                    .map(|tau| self.slot_paths(i, tau))
                    .collect()
            })
            .collect()
    }

    /// The edge loads a strategy induces in support state `idx`: how many
    /// agents' paths buy each edge.
    fn state_loads(&self, s: &NcsStrategyProfile, idx: usize) -> Vec<u32> {
        let mut loads = vec![0u32; self.graph.edge_count()];
        for (i, &tau) in self.support_type_idx[idx].iter().enumerate() {
            for &e in &s[i][tau] {
                loads[e.index()] += 1;
            }
        }
        loads
    }

    /// Ex-ante social cost `K(s) = E_t[K_t(s(t))]`, where `K_t` sums the
    /// bought edges' costs in edge-id order (as [`NcsGame::social_cost`]
    /// does).
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape is wrong.
    #[must_use]
    pub fn social_cost(&self, s: &NcsStrategyProfile) -> f64 {
        self.check_strategy(s);
        self.support
            .iter()
            .enumerate()
            .map(|(idx, (_, prob))| {
                let loads = self.state_loads(s, idx);
                let cost: f64 = self
                    .graph
                    .edges()
                    .map(|(id, e)| if loads[id.index()] > 0 { e.cost() } else { 0.0 })
                    .sum();
                prob * cost
            })
            .sum()
    }

    /// Ex-ante expected payment of agent `i`: per state, her fair shares
    /// `c(e)/load(e)` along her path (as [`NcsGame::payment`] sums them).
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape is wrong.
    #[must_use]
    pub fn expected_payment(&self, i: usize, s: &NcsStrategyProfile) -> f64 {
        self.check_strategy(s);
        self.support
            .iter()
            .enumerate()
            .map(|(idx, (_, prob))| {
                let loads = self.state_loads(s, idx);
                let tau = self.support_type_idx[idx][i];
                let payment: f64 = s[i][tau]
                    .iter()
                    .map(|&e| self.graph.edge(e).cost() / f64::from(loads[e.index()]))
                    .sum();
                prob * payment
            })
            .sum()
    }

    /// The Bayesian (expected Rosenthal) potential of Observation 2.1:
    /// `Q(s) = Σ_t p(t)·Σ_e c(e)·H(load_e(s(t)))`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape is wrong.
    #[must_use]
    pub fn bayesian_potential(&self, s: &NcsStrategyProfile) -> f64 {
        self.check_strategy(s);
        let mut total = 0.0;
        for (idx, (_, prob)) in self.support.iter().enumerate() {
            let loads = self.state_loads(s, idx);
            total += prob
                * self
                    .graph
                    .edges()
                    .map(|(id, e)| e.cost() * harmonic(loads[id.index()] as usize))
                    .sum::<f64>();
        }
        total
    }

    /// Expected-share edge weights for agent `i` at her `τ`-th type:
    /// `w(e) = Σ_{t : t_i = τ} p(t)·c(e)/(load₋ᵢ(e, s(t)) + 1)`
    /// (unnormalized by the marginal, which cancels in comparisons).
    fn interim_weights(&self, i: usize, tau: usize, s: &NcsStrategyProfile) -> Vec<f64> {
        let mut weights = vec![0.0f64; self.graph.edge_count()];
        for (idx, (_, prob)) in self.support.iter().enumerate() {
            if self.support_type_idx[idx][i] != tau {
                continue;
            }
            let mut loads = vec![0u32; self.graph.edge_count()];
            for (j, &tau_j) in self.support_type_idx[idx].iter().enumerate() {
                if j == i {
                    continue;
                }
                for &e in &s[j][tau_j] {
                    loads[e.index()] += 1;
                }
            }
            for (id, edge) in self.graph.edges() {
                weights[id.index()] += prob * edge.cost() / f64::from(loads[id.index()] + 1);
            }
        }
        weights
    }

    /// The unnormalized interim cost of agent `i` playing `path` at type
    /// `τ` while the others follow `s`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape or indices are out of range.
    #[must_use]
    pub fn interim_cost(
        &self,
        i: usize,
        tau: usize,
        path: &[bi_graph::EdgeId],
        s: &NcsStrategyProfile,
    ) -> f64 {
        self.check_strategy(s);
        let weights = self.interim_weights(i, tau, s);
        path.iter().map(|&e| weights[e.index()]).sum()
    }

    /// Agent `i`'s exact interim best response at type `τ`: the shortest
    /// path under the expected-share weights. Returns `(path, cost)`.
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape or indices are out of range.
    #[must_use]
    pub fn interim_best_response(
        &self,
        i: usize,
        tau: usize,
        s: &NcsStrategyProfile,
    ) -> (Path, f64) {
        self.check_strategy(s);
        let weights = self.interim_weights(i, tau, s);
        let (src, dst) = self.agent_types[i][tau];
        let sp = bi_graph::dijkstra(&self.graph, src, |e| weights[e.index()]);
        let path = sp.path_edges(dst).expect("feasibility checked");
        (path, sp.distance(dst))
    }

    /// Whether `s` is a pure Bayesian equilibrium (exact, via interim
    /// best-response shortest paths). Routed through
    /// [`BayesianModel::is_equilibrium`].
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape is wrong.
    #[must_use]
    pub fn is_bayesian_equilibrium(&self, s: &NcsStrategyProfile) -> bool {
        self.check_strategy(s);
        BayesianModel::is_equilibrium(self, s)
    }

    /// A natural starting strategy: every type buys a (cost-)shortest
    /// path.
    #[must_use]
    pub fn shortest_path_strategy(&self) -> NcsStrategyProfile {
        self.agent_types
            .iter()
            .map(|types| {
                types
                    .iter()
                    .map(|&(s, t)| {
                        bi_graph::shortest_path(&self.graph, s, t)
                            .expect("feasibility checked")
                            .1
                    })
                    .collect()
            })
            .collect()
    }

    /// Interim best-response dynamics from `start` until a fixed point (a
    /// Bayesian equilibrium) or `max_rounds` sweeps. Convergence is
    /// guaranteed by the Bayesian potential (Observation 2.1). Routed
    /// through [`BayesianModel::best_response_dynamics`].
    ///
    /// # Panics
    ///
    /// Panics if the strategy shape is wrong.
    #[must_use]
    pub fn best_response_dynamics(
        &self,
        start: NcsStrategyProfile,
        max_rounds: usize,
    ) -> Option<NcsStrategyProfile> {
        self.check_strategy(&start);
        BayesianModel::best_response_dynamics(self, start, max_rounds)
    }

    /// Computes all six measures of the paper exactly:
    ///
    /// * `optP`, `best-eqP`, `worst-eqP` by exhaustive strategy
    ///   enumeration with exact equilibrium checks;
    /// * `optC`, `best-eqC`, `worst-eqC` by exhaustive per-state analysis.
    ///
    /// This is a thin compatibility wrapper over
    /// `Solver::default().solve(&game)` — prefer [`Solver`] directly for
    /// budgets, sampled backends, multi-threaded sweeps, and the
    /// structured `SolveReport`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bi_graph::{Direction, Graph};
    /// use bi_ncs::{BayesianNcsGame, Prior};
    ///
    /// // Two routes from s to t: a two-hop route of cost 2 and a direct
    /// // edge of cost 3.
    /// let mut g = Graph::new(Direction::Directed);
    /// let s = g.add_node();
    /// let m = g.add_node();
    /// let t = g.add_node();
    /// g.add_edge(s, m, 1.0);
    /// g.add_edge(m, t, 1.0);
    /// g.add_edge(s, t, 3.0);
    ///
    /// // Agent 0 always travels s→t; agent 1 travels s→t or stays put.
    /// let prior = Prior::independent(vec![
    ///     vec![((s, t), 1.0)],
    ///     vec![((s, t), 0.5), ((s, s), 0.5)],
    /// ]);
    /// let game = BayesianNcsGame::new(g, prior)?;
    /// let measures = game.measures()?;
    /// // Someone must buy a route in every state, so optC ≥ 2; partial
    /// // information can only cost more (Observation 2.2's chain).
    /// assert!(measures.opt_c >= 2.0 - 1e-9);
    /// assert!(measures.opt_p >= measures.opt_c - 1e-9);
    /// assert!(measures.verify_chain().is_ok());
    /// # Ok::<(), bi_ncs::NcsError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NcsError::TooLarge`] when enumeration is infeasible and
    /// propagates per-state analysis failures.
    pub fn measures(&self) -> Result<Measures, NcsError> {
        match Solver::default().solve(self) {
            Ok(report) => Ok(report.measures),
            Err(e) => Err(match e {
                SolveError::BudgetExceeded { required, .. } => {
                    NcsError::TooLarge(EnumerationError { required })
                }
                SolveError::SpaceTooLarge => NcsError::TooLarge(EnumerationError {
                    required: u128::MAX,
                }),
                SolveError::NoEquilibrium => NcsError::NoEquilibrium { state: usize::MAX },
                SolveError::NoStateEquilibrium { state } => NcsError::NoEquilibrium { state },
                SolveError::Model(inner) => match inner.downcast::<NcsError>() {
                    Ok(ncs) => *ncs,
                    Err(other) => NcsError::Solver(other.to_string()),
                },
                other => NcsError::Solver(other.to_string()),
            }),
        }
    }

    fn check_strategy(&self, s: &NcsStrategyProfile) {
        assert_eq!(s.len(), self.num_agents(), "strategy profile length");
        for (si, types) in s.iter().zip(&self.agent_types) {
            assert_eq!(si.len(), types.len(), "one path per type");
        }
    }
}

impl BayesianModel for BayesianNcsGame {
    type Action = Path;

    fn num_agents(&self) -> usize {
        self.agent_types.len()
    }

    fn type_count(&self, agent: usize) -> usize {
        self.agent_types[agent].len()
    }

    fn type_weight(&self, agent: usize, tau: usize) -> f64 {
        self.type_weights[agent][tau]
    }

    fn candidate_actions(&self, agent: usize, tau: usize) -> Result<Vec<Path>, SolveError> {
        self.slot_paths(agent, tau)
            .map_err(|e| SolveError::Model(Box::new(e)))
    }

    fn social_cost(&self, profile: &NcsStrategyProfile) -> f64 {
        BayesianNcsGame::social_cost(self, profile)
    }

    fn interim_cost(
        &self,
        agent: usize,
        tau: usize,
        action: &Path,
        profile: &NcsStrategyProfile,
    ) -> f64 {
        BayesianNcsGame::interim_cost(self, agent, tau, action, profile)
    }

    fn best_response(&self, agent: usize, tau: usize, profile: &NcsStrategyProfile) -> (Path, f64) {
        self.interim_best_response(agent, tau, profile)
    }

    // Fused overrides: the default methods would compute the expected-share
    // weights twice per slot (once for the played cost, once for the best
    // response); one weights pass and one Dijkstra per slot suffice.

    fn slot_is_stable(&self, agent: usize, tau: usize, profile: &NcsStrategyProfile) -> bool {
        let weights = self.interim_weights(agent, tau, profile);
        let played: f64 = profile[agent][tau]
            .iter()
            .map(|&e| weights[e.index()])
            .sum();
        let (src, dst) = self.agent_types[agent][tau];
        let sp = bi_graph::dijkstra(&self.graph, src, |e| weights[e.index()]);
        bi_util::approx_le(played, sp.distance(dst))
    }

    fn slot_improvement(
        &self,
        agent: usize,
        tau: usize,
        profile: &NcsStrategyProfile,
    ) -> Option<Path> {
        let weights = self.interim_weights(agent, tau, profile);
        let played: f64 = profile[agent][tau]
            .iter()
            .map(|&e| weights[e.index()])
            .sum();
        let (src, dst) = self.agent_types[agent][tau];
        let sp = bi_graph::dijkstra(&self.graph, src, |e| weights[e.index()]);
        (sp.distance(dst) < played - bi_util::EPS)
            .then(|| sp.path_edges(dst).expect("feasibility checked"))
    }

    fn agents_interchangeable(&self, a: usize, b: usize) -> bool {
        // Exact bitwise interchangeability (see the trait contract). NCS
        // costs are functions of *integer* edge loads and shared per-edge
        // constants: every agent with the same terminal pair pays the
        // same `c(e)/load` shares. So two agents are interchangeable as
        // soon as they have identical type lists (same terminal pairs in
        // the same order, hence identical per-slot candidate path
        // enumerations) and identical types in every support state:
        // swapping their strategies then leaves every state's edge-load
        // vector — and with it every social and interim term — exactly
        // unchanged. When the two play the same path at every type, each
        // one's loads minus its own path are the same integers in the
        // same states, and its candidates and terminals are the same, so
        // slot `(a, τ)` and slot `(b, τ)` get the same stability verdict:
        // the orbit sweep skips such repeated slots in its equilibrium
        // check.
        a == b
            || (self.agent_types[a] == self.agent_types[b]
                && self
                    .support_type_idx
                    .iter()
                    .all(|types| types[a] == types[b]))
    }

    fn state_count(&self) -> usize {
        self.support.len()
    }

    fn state_prob(&self, idx: usize) -> f64 {
        self.support[idx].1
    }

    fn state_types(&self, idx: usize) -> Option<&[usize]> {
        Some(&self.support_type_idx[idx])
    }

    fn state_model(&self, idx: usize, prob: f64) -> Self {
        // Built directly rather than through a `Prior`, whose validation
        // wants the weights to sum to 1. The state's types were checked
        // feasible when `self` was built.
        let types = &self.support[idx].0;
        let k = types.len();
        BayesianNcsGame {
            graph: Arc::clone(&self.graph),
            support: vec![(types.clone(), prob)],
            agent_types: types.iter().map(|&t| vec![t]).collect(),
            support_type_idx: vec![vec![0; k]],
            type_weights: vec![vec![prob]; k],
            limits: self.limits,
        }
    }

    fn state_too_large(&self, required: u128) -> SolveError {
        SolveError::Model(Box::new(NcsError::TooLarge(EnumerationError { required })))
    }

    fn lower<'a>(&'a self, space: &'a CompiledSpace<Self::Action>) -> Box<dyn Lowered + 'a> {
        Box::new(NcsLowered::new(self, space))
    }
}

/// Compiled evaluation tables of a [`BayesianNcsGame`]: per-state edge
/// loads are the whole game state — social cost, interim shares and
/// best responses are all functions of them — so kernels maintain the
/// loads incrementally (subtract the old path's edges, add the new
/// path's) instead of rebuilding every state's loads per profile.
///
/// Per-state and per-slot tables are flat, row-major buffers: one row of
/// `agents` slots per state, one row of `edges · agents` shares per
/// state, and each slot's states at `slot_state_starts`.
struct NcsLowered<'a> {
    game: &'a BayesianNcsGame,
    space: &'a CompiledSpace<Path>,
    /// `c(e)` per edge id, in `Graph::edges` order.
    edge_costs: Vec<f64>,
    /// Support-state probabilities, in support order.
    state_probs: Vec<f64>,
    /// Number of agents `k`: the row length of `state_slots`.
    agents: usize,
    /// `state_slots[s·k + i]`: the slot index of agent `i`'s type in
    /// state `s`.
    state_slots: Vec<usize>,
    /// Per slot, the support states the slot participates in, ascending
    /// (interim sums must preserve the legacy state order bit-for-bit):
    /// slot `j`'s span `slot_state_starts[j]..slot_state_starts[j + 1]`.
    slot_states: Vec<usize>,
    /// Start of each slot's states in `slot_states` (one extra terminal
    /// entry).
    slot_state_starts: Vec<usize>,
    /// Per slot: the agent's `(source, destination)` terminals.
    slot_terminals: Vec<AgentType>,
    /// Precomputed fair shares: `shares[(s·E + e)·k + n] = p_s · c(e) /
    /// (n+1)` for every possible rival load `n ∈ 0..k` — the
    /// interim-weight hot loop does table lookups instead of divisions
    /// (the division was performed once here, on identical operands, so
    /// the values are bit-identical).
    shares: Vec<f64>,
    /// When `true`, the candidate sets provably contain **every** simple
    /// path (the length limit cannot prune: `max_len ≥ |V| − 1`) and all
    /// edge costs are non-negative — then the Dijkstra distance equals
    /// the minimum fold-left cost over the candidates, and stability
    /// checks can scan the arena instead of running Dijkstra per slot.
    exact_candidates: bool,
}

impl<'a> NcsLowered<'a> {
    fn new(game: &'a BayesianNcsGame, space: &'a CompiledSpace<Path>) -> Self {
        let edge_costs: Vec<f64> = game.graph.edges().map(|(_, e)| e.cost()).collect();
        let agents = game.num_agents();
        let mut slot_base = Vec::with_capacity(agents);
        let mut acc = 0usize;
        for types in &game.agent_types {
            slot_base.push(acc);
            acc += types.len();
        }
        let state_slots: Vec<usize> = game
            .support_type_idx
            .iter()
            .flat_map(|idx| idx.iter().zip(&slot_base).map(|(&tau, &base)| base + tau))
            .collect();
        let mut slot_states = Vec::with_capacity(state_slots.len());
        let mut slot_state_starts = Vec::with_capacity(space.num_slots() + 1);
        for j in 0..space.num_slots() {
            let (i, tau) = space.slot(j);
            slot_state_starts.push(slot_states.len());
            slot_states
                .extend((0..game.support.len()).filter(|&s| game.support_type_idx[s][i] == tau));
        }
        slot_state_starts.push(slot_states.len());
        let slot_terminals: Vec<AgentType> = (0..space.num_slots())
            .map(|j| {
                let (i, tau) = space.slot(j);
                game.agent_types[i][tau]
            })
            .collect();
        let exact_candidates = game.limits.max_len >= game.graph.node_count().saturating_sub(1)
            && edge_costs.iter().all(|&c| c >= 0.0);
        let mut shares = Vec::with_capacity(game.support.len() * edge_costs.len() * agents);
        for (_, prob) in &game.support {
            for &cost in &edge_costs {
                for n in 0..agents as u32 {
                    shares.push(*prob * cost / f64::from(n + 1));
                }
            }
        }
        NcsLowered {
            game,
            space,
            edge_costs,
            state_probs: game.support.iter().map(|(_, p)| *p).collect(),
            agents,
            state_slots,
            slot_states,
            slot_state_starts,
            slot_terminals,
            shares,
            exact_candidates,
        }
    }

    /// The support states slot `slot` participates in, ascending.
    fn slot_states(&self, slot: usize) -> &[usize] {
        &self.slot_states[self.slot_state_starts[slot]..self.slot_state_starts[slot + 1]]
    }
}

impl Lowered for NcsLowered<'_> {
    fn kernel(&self) -> Box<dyn EvalKernel + '_> {
        let states = self.state_probs.len();
        let edges = self.edge_costs.len();
        let slots = self.space.num_slots();
        Box::new(NcsKernel {
            lowered: self,
            edges,
            digits: vec![0; slots],
            loads: vec![0; states * edges],
            state_cost: vec![0.0; states],
            cost_dirty: vec![true; states],
            state_mods: vec![0; states],
            weight_cache: vec![0.0; slots * edges],
            weight_snap: vec![0; self.slot_states.len()],
            weight_valid: vec![false; slots],
            loads_buf: vec![0; edges],
            unstable_hint: 0,
        })
    }
}

/// Incremental evaluator over the [`NcsLowered`] layout.
///
/// * Per-state **edge loads** are delta-updated on every digit advance;
/// * per-state **social costs** are cached and recomputed (in canonical
///   edge order, for bit parity) only for states whose loads changed;
/// * per-slot **interim expected-share weights** are cached and reused
///   while no *other* agent's path changed in any of the slot's states
///   (a slot's own path never enters its own weights).
struct NcsKernel<'a> {
    lowered: &'a NcsLowered<'a>,
    /// Number of edges `E`: the row length of `loads` and
    /// `weight_cache`.
    edges: usize,
    digits: Vec<u32>,
    /// `loads[state·E + edge]`: number of agents whose current path buys
    /// the edge in that state.
    loads: Vec<u32>,
    /// Cached `K_t` per state (valid when not dirty).
    state_cost: Vec<f64>,
    cost_dirty: Vec<bool>,
    /// Bumped on every load change of a state; drives weight-cache
    /// invalidation.
    state_mods: Vec<u64>,
    /// Cached interim weights, one row of `E` per slot.
    weight_cache: Vec<f64>,
    /// `state_mods` snapshot per slot (aligned with
    /// `NcsLowered::slot_states`) at the time its weights were computed.
    weight_snap: Vec<u64>,
    weight_valid: Vec<bool>,
    /// Scratch: a state's loads minus the checked agent's own path.
    loads_buf: Vec<u32>,
    /// The slot that refuted the previous equilibrium check — checked
    /// first next time (pure evaluation-order heuristic; the result of
    /// the AND is order-independent).
    unstable_hint: usize,
}

impl NcsKernel<'_> {
    /// Slot `slot`'s cached interim weights, one per edge.
    fn weights(&self, slot: usize) -> &[f64] {
        &self.weight_cache[slot * self.edges..(slot + 1) * self.edges]
    }

    /// Ensures `slot`'s row of `weight_cache` holds the slot's
    /// expected-share weights for the current digits — recomputed in the
    /// legacy order (states ascending, edges ascending) whenever another
    /// agent's path changed in a relevant state, reused otherwise.
    fn refresh_weights(&mut self, slot: usize) {
        let lowered = self.lowered;
        let relevant = lowered.slot_states(slot);
        let snaps = lowered.slot_state_starts[slot]..lowered.slot_state_starts[slot + 1];
        if self.weight_valid[slot]
            && relevant
                .iter()
                .zip(&self.weight_snap[snaps.clone()])
                .all(|(&s, &snap)| self.state_mods[s] == snap)
        {
            return;
        }
        let edges = self.edges;
        let k = lowered.agents;
        let own_path = lowered.space.action(slot, self.digits[slot]);
        let weights = &mut self.weight_cache[slot * edges..(slot + 1) * edges];
        weights.fill(0.0);
        for (&s, snap) in relevant.iter().zip(&mut self.weight_snap[snaps]) {
            self.loads_buf
                .copy_from_slice(&self.loads[s * edges..(s + 1) * edges]);
            for &e in own_path {
                self.loads_buf[e.index()] -= 1;
            }
            // `shares` holds the precomputed `p_s·c(e)/(n+1)` divisions;
            // the accumulation order (states ascending, edges ascending)
            // is the legacy `interim_weights` order.
            let shares = &lowered.shares[s * edges * k..(s + 1) * edges * k];
            for (id, weight) in weights.iter_mut().enumerate() {
                *weight += shares[id * k + self.loads_buf[id] as usize];
            }
            *snap = self.state_mods[s];
        }
        self.weight_valid[slot] = true;
    }

    /// Fold-left path cost under the slot's cached weights — the exact
    /// summation `BayesianNcsGame::interim_cost` performs.
    fn path_cost(&self, slot: usize, path: &[bi_graph::EdgeId]) -> f64 {
        let weights = self.weights(slot);
        path.iter().map(|&e| weights[e.index()]).sum()
    }
}

impl EvalKernel for NcsKernel<'_> {
    fn seed(&mut self, digits: &[u32]) {
        self.digits.copy_from_slice(digits);
        let (edges, k) = (self.edges, self.lowered.agents);
        for s in 0..self.state_cost.len() {
            let loads = &mut self.loads[s * edges..(s + 1) * edges];
            loads.fill(0);
            for &slot in &self.lowered.state_slots[s * k..(s + 1) * k] {
                for &e in self.lowered.space.action(slot, digits[slot]) {
                    loads[e.index()] += 1;
                }
            }
            self.cost_dirty[s] = true;
            self.state_mods[s] += 1;
        }
        self.weight_valid.fill(false);
    }

    fn advance(&mut self, slot: usize, old: u32, new: u32) {
        self.digits[slot] = new;
        let lowered = self.lowered;
        let edges = self.edges;
        let old_path = lowered.space.action(slot, old);
        let new_path = lowered.space.action(slot, new);
        let snaps = lowered.slot_state_starts[slot]..lowered.slot_state_starts[slot + 1];
        for (&s, snap) in lowered
            .slot_states(slot)
            .iter()
            .zip(&mut self.weight_snap[snaps])
        {
            let loads = &mut self.loads[s * edges..(s + 1) * edges];
            for &e in old_path {
                loads[e.index()] -= 1;
            }
            for &e in new_path {
                loads[e.index()] += 1;
            }
            self.cost_dirty[s] = true;
            self.state_mods[s] += 1;
            // The slot's own weights never depend on its own path: keep
            // its snapshot in lock-step so the cache stays valid.
            *snap += 1;
        }
    }

    fn social_cost(&mut self) -> f64 {
        let edges = self.edges;
        for s in 0..self.state_cost.len() {
            if self.cost_dirty[s] {
                // Same fold as `NcsGame::social_cost`: bought edges in
                // edge-id order.
                self.state_cost[s] = self
                    .lowered
                    .edge_costs
                    .iter()
                    .zip(&self.loads[s * edges..(s + 1) * edges])
                    .map(|(&c, &load)| if load > 0 { c } else { 0.0 })
                    .sum();
                self.cost_dirty[s] = false;
            }
        }
        // Same outer fold as `BayesianNcsGame::social_cost`: one
        // `prob · K_t` term per support state, in support order.
        self.state_probs_fold()
    }

    /// Bit-faithful `BayesianNcsGame::slot_is_stable` for one slot.
    ///
    /// With provably complete candidates and non-negative weights the
    /// Dijkstra distance equals the minimum candidate cost (identical
    /// fold-left sums), and `approx_le(played, min)` fails iff it fails
    /// against some individual candidate (all comparisons share the same
    /// relative scale `max(played, 1)`), so the scan early-exits and no
    /// Dijkstra runs. Under custom path limits the legacy Dijkstra check
    /// runs verbatim.
    fn slot_is_stable(&mut self, slot: usize) -> bool {
        self.refresh_weights(slot);
        let played = self.path_cost(slot, self.lowered.space.action(slot, self.digits[slot]));
        if self.lowered.exact_candidates {
            for cand in self.lowered.space.slot_actions(slot) {
                if !bi_util::approx_le(played, self.path_cost(slot, cand)) {
                    return false;
                }
            }
            true
        } else {
            let (src, dst) = self.lowered.slot_terminals[slot];
            let weights = self.weights(slot);
            let sp = bi_graph::dijkstra(&self.lowered.game.graph, src, |e| weights[e.index()]);
            bi_util::approx_le(played, sp.distance(dst))
        }
    }

    fn is_equilibrium_except(&mut self, skip: &[bool]) -> bool {
        let space = self.lowered.space;
        let mut hint = self.unstable_hint;
        let stable = bi_core::compiled::stable_with_hint(
            space.num_slots(),
            |slot| space.weight(slot) == 0.0 || skip.get(slot) == Some(&true),
            &mut hint,
            |slot| self.slot_is_stable(slot),
        );
        self.unstable_hint = hint;
        stable
    }

    fn slot_improvement(&mut self, slot: usize) -> SlotStep {
        // Replicates `BayesianNcsGame::slot_improvement`: the genuine
        // Dijkstra runs here because the dynamics must follow the exact
        // legacy best-response *path* (not just its cost).
        self.refresh_weights(slot);
        let played = self.path_cost(slot, self.lowered.space.action(slot, self.digits[slot]));
        let (src, dst) = self.lowered.slot_terminals[slot];
        let weights = self.weights(slot);
        let sp = bi_graph::dijkstra(&self.lowered.game.graph, src, |e| weights[e.index()]);
        if sp.distance(dst) < played - bi_util::EPS {
            let path = sp.path_edges(dst).expect("feasibility checked");
            match self.lowered.space.digit_of(slot, &path) {
                Some(digit) => SlotStep::Improve(digit),
                None => SlotStep::Unrepresentable,
            }
        } else {
            SlotStep::Stable
        }
    }
}

impl NcsKernel<'_> {
    fn state_probs_fold(&self) -> f64 {
        self.lowered
            .state_probs
            .iter()
            .zip(&self.state_cost)
            .map(|(&prob, &cost)| prob * cost)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_graph::Direction;

    /// Directed diamond: s→t via m (1+1) or direct (3). Agent 0 always
    /// travels; agent 1 travels with probability 1/2.
    fn diamond_game() -> BayesianNcsGame {
        let mut g = Graph::new(Direction::Directed);
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m, 1.0);
        g.add_edge(m, t, 1.0);
        g.add_edge(s, t, 3.0);
        let prior = Prior::independent(vec![
            vec![((s, t), 1.0)],
            vec![((s, t), 0.5), ((s, s), 0.5)],
        ]);
        BayesianNcsGame::new(g, prior).unwrap()
    }

    #[test]
    fn construction_collects_types_and_support() {
        let game = diamond_game();
        assert_eq!(game.num_agents(), 2);
        assert_eq!(game.agent_types()[0].len(), 1);
        assert_eq!(game.agent_types()[1].len(), 2);
        assert_eq!(game.support().len(), 2);
    }

    #[test]
    fn social_cost_averages_states() {
        let game = diamond_game();
        // Both travel via m when active.
        let via = vec![bi_graph::EdgeId::new(0), bi_graph::EdgeId::new(1)];
        let s = vec![vec![via.clone()], vec![via, Path::new()]];
        // State 1 (both travel): cost 2; state 2 (only agent 0): cost 2.
        assert!((game.social_cost(&s) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interim_best_response_uses_expected_shares() {
        let game = diamond_game();
        let direct = vec![bi_graph::EdgeId::new(2)];
        let via = vec![bi_graph::EdgeId::new(0), bi_graph::EdgeId::new(1)];
        // Agent 1 travels and goes via m; agent 0 currently direct.
        let s = vec![vec![direct], vec![via.clone(), Path::new()]];
        let (path, cost) = game.interim_best_response(0, 0, &s);
        // Via: 1/2·(1/2+1/2)·2? With prob 1/2 agent 1 shares both edges
        // (pay 1), else alone (pay 2): expected 1.5 < direct 3.
        assert_eq!(path, via);
        assert!((cost - 1.5).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_check_and_dynamics_agree() {
        let game = diamond_game();
        let eq = game
            .best_response_dynamics(game.shortest_path_strategy(), 100)
            .expect("potential game converges");
        assert!(game.is_bayesian_equilibrium(&eq));
    }

    #[test]
    fn measures_satisfy_observation_2_2() {
        let game = diamond_game();
        let m = game.measures().unwrap();
        m.verify_chain().unwrap();
        // Sharing via m is optimal in both settings here.
        assert!((m.opt_p - 2.0).abs() < 1e-9);
        assert!((m.opt_c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bayesian_potential_decreases_along_best_responses() {
        let game = diamond_game();
        let direct = vec![bi_graph::EdgeId::new(2)];
        let mut s = vec![vec![direct.clone()], vec![direct, Path::new()]];
        let mut q = game.bayesian_potential(&s);
        for _ in 0..5 {
            let mut moved = false;
            for i in 0..game.num_agents() {
                for tau in 0..game.agent_types()[i].len() {
                    let played = game.interim_cost(i, tau, &s[i][tau].clone(), &s);
                    let (path, cost) = game.interim_best_response(i, tau, &s);
                    if cost < played - bi_util::EPS {
                        s[i][tau] = path;
                        let nq = game.bayesian_potential(&s);
                        assert!(nq < q + 1e-12, "Bayesian potential must not increase");
                        q = nq;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        assert!(game.is_bayesian_equilibrium(&s));
    }

    #[test]
    fn strategy_space_size_multiplies_slots() {
        let game = diamond_game();
        // Agent 0: 2 paths; agent 1: 2 paths × 1 (empty) = 2·2·1 = 4.
        assert_eq!(game.strategy_space_size().unwrap(), 4);
    }

    #[test]
    fn a_state_model_shares_its_parents_graph() {
        let game = diamond_game();
        for idx in 0..game.support().len() {
            let state = game.state_model(idx, 1.0);
            assert!(Arc::ptr_eq(&game.graph, &state.graph));
        }
    }

    #[test]
    fn unreachable_types_are_rejected() {
        let mut g = Graph::new(Direction::Directed);
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t, 1.0);
        let prior = Prior::independent(vec![vec![((t, s), 1.0)]]);
        assert!(matches!(
            BayesianNcsGame::new(g, prior),
            Err(NcsError::Unreachable { agent: 0 })
        ));
    }
}
