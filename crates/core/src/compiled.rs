//! Compiled evaluation layer: flat-index profile sweeps with incremental
//! cost maintenance.
//!
//! Exhaustively sweeping the joint strategy space is the solver's hot
//! path, and consecutive odometer profiles differ in exactly **one**
//! `(agent, type)` slot. This module exploits that:
//!
//! * [`CompiledSpace`] flattens every slot's candidate actions into one
//!   contiguous arena addressed by `u32` digits, alongside precomputed
//!   type weights — built once per solve, so the sweep never touches the
//!   model's nested `Vec<Vec<Action>>` layout (or clones an `Action`)
//!   again;
//! * [`EvalKernel`] is the per-representation evaluator: it is seeded once
//!   from a chunk's starting digits and then *delta-updated* as the
//!   odometer advances single digits, so per-profile evaluation does O(Δ)
//!   maintenance work instead of recomputing from scratch;
//! * [`Lowered`] is the thread-safe factory a model's
//!   [`BayesianModel::lower`] returns: precomputed tables are shared, and
//!   each sweep worker instantiates its own mutable kernel.
//!
//! # Parity contract
//!
//! Kernels are an *evaluation strategy*, not a semantics change: every
//! kernel must return results bit-for-bit identical to the trait-method
//! path (`social_cost`, `slot_is_stable`, `is_equilibrium`,
//! `slot_improvement`) on the
//! materialized profile. [`GenericLowered`]'s kernel is the reference
//! implementation — it literally maintains a profile and calls those
//! methods — and doubles as the fallback for models without a compiled
//! kernel (or whose tables would exceed memory budgets).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::model::{BayesianModel, Profile};
use crate::solve::SolveError;

/// The flattened candidate space of a model: one entry per `(agent, type)`
/// slot, each slot's candidate actions stored contiguously in a shared
/// arena and addressed by a `u32` digit.
///
/// Built once per solve by [`CompiledSpace::compile`]; shared (immutably)
/// by all sweep workers. The space is keyed by the action type `A`, not
/// the model, so models over the same actions (a model and a wrapper
/// around it) share one compiled space and one lowering. The state games
/// of a solve take their spaces from it ([`CompiledSpace::state_space`])
/// instead of enumerating their candidates again.
pub struct CompiledSpace<A> {
    /// `(agent, tau)` per slot, agent-major (the order every sweep and
    /// dynamics pass uses).
    slots: Vec<(usize, usize)>,
    /// All candidate actions, slot-major; a state space shares its
    /// parent's.
    arena: Arc<[A]>,
    /// Start of each slot's candidates in `arena`: slot `j` spans
    /// `starts[j]..starts[j] + sizes[j]`.
    starts: Vec<usize>,
    /// Candidates per slot.
    sizes: Vec<u32>,
    /// Prior type weight per slot (`0.0` = pinned slot, skipped by
    /// equilibrium checks and dynamics).
    weights: Vec<f64>,
    /// `num_agents()` of the compiled model (profile shells need it even
    /// when trailing agents have no slots).
    num_agents: usize,
}

impl<A: Clone + PartialEq> CompiledSpace<A> {
    /// Collects every slot's candidate set into the flat arena.
    ///
    /// # Errors
    ///
    /// Propagates [`BayesianModel::candidate_actions`] failures and
    /// returns [`SolveError::SpaceTooLarge`] if any single slot exceeds
    /// `u32::MAX` candidates (no such space could be swept anyway).
    pub fn compile<M: BayesianModel<Action = A>>(model: &M) -> Result<Self, SolveError> {
        let mut slots = Vec::new();
        let mut arena = Vec::new();
        let mut starts = Vec::new();
        let mut sizes = Vec::new();
        let mut weights = Vec::new();
        for i in 0..model.num_agents() {
            for tau in 0..model.type_count(i) {
                let actions = model.candidate_actions(i, tau)?;
                debug_assert!(!actions.is_empty(), "empty candidate set at ({i}, {tau})");
                let size = u32::try_from(actions.len()).map_err(|_| SolveError::SpaceTooLarge)?;
                slots.push((i, tau));
                starts.push(arena.len());
                sizes.push(size);
                weights.push(model.type_weight(i, tau));
                arena.extend(actions);
            }
        }
        Ok(CompiledSpace {
            slots,
            arena: arena.into(),
            starts,
            sizes,
            weights,
            num_agents: model.num_agents(),
        })
    }

    /// The space of a state game of the model this space was compiled
    /// from: `state` is that model's [`BayesianModel::state_model`] of a
    /// support state whose type tuple is `types`
    /// ([`BayesianModel::state_types`]). Slot `(i, 0)` is this space's
    /// slot `(i, types[i])`, its candidates shared rather than
    /// enumerated again, weighted by `state.type_weight(i, 0)`.
    ///
    /// Under the contract of [`BayesianModel::state_model`] the result
    /// equals `CompiledSpace::compile(state)`: the same slots, sizes,
    /// weights and candidates.
    ///
    /// # Panics
    ///
    /// Panics if `types` does not name one slot of this space per agent.
    #[must_use]
    pub fn state_space<M: BayesianModel<Action = A>>(&self, types: &[usize], state: &M) -> Self {
        assert_eq!(types.len(), self.num_agents, "one type per agent");
        let mut slots = Vec::with_capacity(types.len());
        let mut starts = Vec::with_capacity(types.len());
        let mut sizes = Vec::with_capacity(types.len());
        let mut weights = Vec::with_capacity(types.len());
        for (i, &tau) in types.iter().enumerate() {
            // Slots are agent-major with types ascending from 0.
            let j = self.slots.partition_point(|&(agent, _)| agent < i) + tau;
            assert_eq!(self.slots.get(j), Some(&(i, tau)), "no slot for a type");
            slots.push((i, 0));
            starts.push(self.starts[j]);
            sizes.push(self.sizes[j]);
            weights.push(state.type_weight(i, 0));
        }
        CompiledSpace {
            slots,
            arena: Arc::clone(&self.arena),
            starts,
            sizes,
            weights,
            num_agents: self.num_agents,
        }
    }

    /// Number of `(agent, type)` slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of agents of the compiled model.
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// The `(agent, tau)` pair of slot `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn slot(&self, j: usize) -> (usize, usize) {
        self.slots[j]
    }

    /// Number of candidates of slot `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn slot_size(&self, j: usize) -> u32 {
        self.sizes[j]
    }

    /// Prior type weight of slot `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn weight(&self, j: usize) -> f64 {
        self.weights[j]
    }

    /// The candidate action of slot `j` at digit `digit`.
    ///
    /// # Panics
    ///
    /// Panics if `j` or `digit` is out of range.
    #[must_use]
    pub fn action(&self, j: usize, digit: u32) -> &A {
        &self.arena[self.starts[j] + digit as usize]
    }

    /// All candidates of slot `j`, in digit order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn slot_actions(&self, j: usize) -> &[A] {
        let start = self.starts[j];
        &self.arena[start..start + self.sizes[j] as usize]
    }

    /// The digit of `action` within slot `j`, if it is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn digit_of(&self, j: usize, action: &A) -> Option<u32> {
        self.slot_actions(j)
            .iter()
            .position(|a| a == action)
            .map(|d| d as u32)
    }

    /// Product of the slot sizes, or [`SolveError::SpaceTooLarge`] on
    /// `u128` overflow.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::SpaceTooLarge`] when the product overflows.
    pub fn space_size(&self) -> Result<u128, SolveError> {
        self.sizes
            .iter()
            .try_fold(1u128, |acc, &s| acc.checked_mul(u128::from(s)))
            .ok_or(SolveError::SpaceTooLarge)
    }

    /// Writes the mixed-radix digits of profile index `idx` (last slot
    /// fastest, matching [`crate::game::ProfileIter`] order) into
    /// `digits`.
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.num_slots()`.
    pub fn decode(&self, mut idx: u128, digits: &mut [u32]) {
        assert_eq!(digits.len(), self.num_slots(), "digit buffer length");
        for j in (0..self.sizes.len()).rev() {
            let base = u128::from(self.sizes[j]);
            digits[j] = (idx % base) as u32;
            idx /= base;
        }
    }

    /// Overwrites `digits` with a uniformly random digit per slot
    /// (consuming exactly one `random_range` call per slot, in slot
    /// order — the historical random-start stream).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.num_slots()`.
    pub fn random_digits(&self, rng: &mut StdRng, digits: &mut [u32]) {
        assert_eq!(digits.len(), self.num_slots(), "digit buffer length");
        for (j, digit) in digits.iter_mut().enumerate() {
            *digit = rng.random_range(0..self.sizes[j] as usize) as u32;
        }
    }

    /// Materializes the nested profile a digit assignment denotes (clones
    /// one action per slot — used only off the hot path: dynamics starts
    /// and fallbacks).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != self.num_slots()` or any digit is out of
    /// range.
    #[must_use]
    pub fn materialize(&self, digits: &[u32]) -> Vec<Vec<A>> {
        assert_eq!(digits.len(), self.num_slots(), "digit buffer length");
        let mut profile: Vec<Vec<A>> = (0..self.num_agents).map(|_| Vec::new()).collect();
        for (j, &(i, _)) in self.slots.iter().enumerate() {
            profile[i].push(self.action(j, digits[j]).clone());
        }
        profile
    }
}

/// One step of an interim best-response scan at a slot, expressed in flat
/// digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotStep {
    /// No deviation improves on the played candidate by more than the
    /// workspace tolerance.
    Stable,
    /// Moving the slot's digit to this candidate improves the interim
    /// cost.
    Improve(u32),
    /// An improving action exists but is not in the candidate arena (only
    /// possible for models whose candidate enumeration under-covers the
    /// full action space, e.g. length-limited path sets); the caller must
    /// fall back to profile-based dynamics.
    Unrepresentable,
}

/// Thread-safe factory of [`EvalKernel`]s, returned by
/// [`BayesianModel::lower`]: expensive compiled tables live here, shared
/// by every sweep worker; each worker instantiates its own mutable kernel.
pub trait Lowered: Sync {
    /// Creates a fresh kernel (state is undefined until
    /// [`EvalKernel::seed`] is called).
    fn kernel(&self) -> Box<dyn EvalKernel + '_>;

    /// Called once before an exhaustive sweep: implementations may build
    /// amortizable tables here (worth it across millions of profiles,
    /// wasted on a dynamics run that evaluates a handful). The default
    /// does nothing.
    fn prepare_sweep(&self) {}

    /// Whether this factory's kernels answer
    /// [`EvalKernel::scan_slot`], which lets the exhaustive sweep
    /// eliminate one agent ([`crate::solve`]). The default is `false`:
    /// the sweep then visits every profile.
    fn scans_slots(&self) -> bool {
        false
    }
}

/// Order-independent equilibrium check over per-slot stability tests,
/// used by the NCS kernel (the matrix kernel memoizes its verdicts and
/// checks slots last to first instead): `is_equilibrium` is an AND over
/// independent slots, so evaluation order cannot change the result — the
/// slot that refuted the previous profile (`hint`) is checked first
/// (odometer neighbours usually fail at the same slot), then the rest in
/// slot order. Slots for which `skipped` holds (zero-weight slots, and
/// those [`EvalKernel::is_equilibrium_except`] is told to skip) are not
/// checked; `hint` is updated on failure.
pub fn stable_with_hint(
    num_slots: usize,
    skipped: impl Fn(usize) -> bool,
    hint: &mut usize,
    mut slot_is_stable: impl FnMut(usize) -> bool,
) -> bool {
    if num_slots == 0 {
        return true;
    }
    let first = *hint;
    if !skipped(first) && !slot_is_stable(first) {
        return false;
    }
    for slot in 0..num_slots {
        if slot == first || skipped(slot) {
            continue;
        }
        if !slot_is_stable(slot) {
            *hint = slot;
            return false;
        }
    }
    true
}

/// An incremental evaluator over a flat digit buffer.
///
/// The driving loop owns the digits; the kernel mirrors whatever internal
/// state it needs. The lifecycle is: one [`seed`](EvalKernel::seed) from a
/// full assignment, then any interleaving of single-digit
/// [`advance`](EvalKernel::advance)s and queries. Every query must agree
/// bit-for-bit with the trait-method evaluation of the current digits'
/// materialized profile (see the [module docs](self)).
pub trait EvalKernel {
    /// (Re)initializes the kernel's state from a full digit assignment.
    fn seed(&mut self, digits: &[u32]);

    /// Notifies the kernel that slot `slot` moved from digit `old` to
    /// `new`; all other digits are unchanged since the last
    /// seed/advance.
    fn advance(&mut self, slot: usize, old: u32, new: u32);

    /// Ex-ante social cost of the current digits.
    fn social_cost(&mut self) -> f64;

    /// Whether slot `slot` is interim-stable under the current digits:
    /// the verdict [`BayesianModel::slot_is_stable`] gives the slot on
    /// the materialized profile.
    fn slot_is_stable(&mut self, slot: usize) -> bool;

    /// Whether the current digits form a pure Bayesian equilibrium: every
    /// positive-weight slot is interim-stable.
    fn is_equilibrium(&mut self) -> bool {
        self.is_equilibrium_except(&[])
    }

    /// [`is_equilibrium`](Self::is_equilibrium) without the slots `skip`
    /// marks (`skip[slot]`; a slot past its end is unmarked, so `&[]`
    /// skips nothing): the AND of
    /// [`slot_is_stable`](Self::slot_is_stable) over every positive-weight
    /// slot it does not mark. The caller vouches that each marked slot's
    /// verdict equals that of a slot it leaves in, so the result is the
    /// full check's: the orbit sweep marks the slots of agents that
    /// repeat their class predecessor's tuple
    /// ([`crate::symmetry::Symmetry::mark_repeats`]).
    fn is_equilibrium_except(&mut self, skip: &[bool]) -> bool;

    /// An interim improvement at `slot` (over the **full** action space,
    /// like [`BayesianModel::slot_improvement`]), mapped to a candidate
    /// digit.
    fn slot_improvement(&mut self, slot: usize) -> SlotStep;

    /// Scans every candidate of `slot` under the current digits of the
    /// other slots, whatever `slot`'s own digit is:
    ///
    /// * `stable[a]` — whether playing candidate `a` is interim-stable,
    ///   the verdict [`is_equilibrium`](Self::is_equilibrium) gives that
    ///   slot when its digit is `a`;
    /// * `group[a]` — the `p(t)·K_t` terms of the slot's support states
    ///   (the states in which its agent has its type) when it plays `a`,
    ///   each the exact operand of [`social_cost`](Self::social_cost)'s
    ///   fold, summed in state order from `0.0`.
    ///
    /// Returns the sum over those states of the largest `|p(t)·K_t|`
    /// over the candidates, `+∞` if any term is not finite.
    ///
    /// # Panics
    ///
    /// The default panics: the solver calls this only on kernels whose
    /// factory reports [`Lowered::scans_slots`].
    fn scan_slot(&mut self, slot: usize, stable: &mut [bool], group: &mut [f64]) -> f64 {
        let _ = (slot, stable, group);
        unreachable!("scan_slot on a kernel whose factory does not scan slots")
    }
}

/// The fallback [`Lowered`]: no compiled tables, kernels route every query
/// through the model's trait methods on a maintained profile. This *is*
/// the pre-compiled evaluation strategy, kept both as the reference
/// implementation for parity tests and as the safety net for models
/// without a specialized kernel.
pub struct GenericLowered<'a, M: BayesianModel> {
    model: &'a M,
    space: &'a CompiledSpace<M::Action>,
}

impl<'a, M: BayesianModel> GenericLowered<'a, M> {
    /// Pairs a model with its compiled space.
    #[must_use]
    pub fn new(model: &'a M, space: &'a CompiledSpace<M::Action>) -> Self {
        GenericLowered { model, space }
    }
}

impl<M: BayesianModel> Lowered for GenericLowered<'_, M> {
    fn kernel(&self) -> Box<dyn EvalKernel + '_> {
        Box::new(GenericKernel {
            model: self.model,
            space: self.space,
            profile: self.space.materialize(&vec![0; self.space.num_slots()]),
        })
    }
}

/// The clone-based reference kernel of [`GenericLowered`].
struct GenericKernel<'a, M: BayesianModel> {
    model: &'a M,
    space: &'a CompiledSpace<M::Action>,
    profile: Profile<M>,
}

impl<M: BayesianModel> EvalKernel for GenericKernel<'_, M> {
    fn seed(&mut self, digits: &[u32]) {
        for (j, &digit) in digits.iter().enumerate() {
            let (i, tau) = self.space.slot(j);
            self.profile[i][tau] = self.space.action(j, digit).clone();
        }
    }

    fn advance(&mut self, slot: usize, _old: u32, new: u32) {
        let (i, tau) = self.space.slot(slot);
        self.profile[i][tau] = self.space.action(slot, new).clone();
    }

    fn social_cost(&mut self) -> f64 {
        self.model.social_cost(&self.profile)
    }

    fn slot_is_stable(&mut self, slot: usize) -> bool {
        let (i, tau) = self.space.slot(slot);
        self.model.slot_is_stable(i, tau, &self.profile)
    }

    fn is_equilibrium_except(&mut self, skip: &[bool]) -> bool {
        // The AND of `BayesianModel::is_equilibrium`, in the same slot
        // order, over the slots the caller does not skip.
        (0..self.space.num_slots()).all(|slot| {
            self.space.weight(slot) == 0.0
                || skip.get(slot) == Some(&true)
                || self.slot_is_stable(slot)
        })
    }

    fn slot_improvement(&mut self, slot: usize) -> SlotStep {
        let (i, tau) = self.space.slot(slot);
        match self.model.slot_improvement(i, tau, &self.profile) {
            None => SlotStep::Stable,
            Some(action) => match self.space.digit_of(slot, &action) {
                Some(digit) => SlotStep::Improve(digit),
                None => SlotStep::Unrepresentable,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayesian::BayesianGame;
    use crate::game::MatrixFormGame;

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
    fn compile_flattens_slots_agent_major() {
        let game = coordination_game();
        let space = CompiledSpace::compile(&game).unwrap();
        assert_eq!(space.num_slots(), 3);
        assert_eq!(space.num_agents(), 2);
        assert_eq!(space.slot(0), (0, 0));
        assert_eq!(space.slot(1), (1, 0));
        assert_eq!(space.slot(2), (1, 1));
        assert_eq!(space.slot_size(0), 2);
        assert_eq!(space.space_size().unwrap(), 8);
        assert_eq!(*space.action(2, 1), 1);
        assert_eq!(space.slot_actions(1), &[0, 1]);
        assert_eq!(space.digit_of(0, &1), Some(1));
        assert_eq!(space.digit_of(0, &9), None);
    }

    #[test]
    fn decode_matches_profile_iter_order() {
        let game = coordination_game();
        let space = CompiledSpace::compile(&game).unwrap();
        let mut digits = vec![0u32; 3];
        let mut seen = Vec::new();
        for idx in 0..space.space_size().unwrap() {
            space.decode(idx, &mut digits);
            seen.push(digits.clone());
        }
        let expected: Vec<Vec<u32>> = crate::game::ProfileIter::new(vec![2, 2, 2])
            .map(|p| p.into_iter().map(|d| d as u32).collect())
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn materialize_round_trips_digits() {
        let game = coordination_game();
        let space = CompiledSpace::compile(&game).unwrap();
        let digits = vec![1u32, 0, 1];
        let profile = space.materialize(&digits);
        assert_eq!(profile, vec![vec![1], vec![0, 1]]);
    }

    #[test]
    fn generic_kernel_matches_trait_methods() {
        let game = coordination_game();
        let space = CompiledSpace::compile(&game).unwrap();
        let lowered = GenericLowered::new(&game, &space);
        let mut kernel = lowered.kernel();
        let mut digits = vec![0u32, 0, 0];
        kernel.seed(&digits);
        for idx in 0..space.space_size().unwrap() {
            space.decode(idx, &mut digits);
            kernel.seed(&digits);
            let profile = space.materialize(&digits);
            assert_eq!(
                kernel.social_cost().to_bits(),
                game.social_cost(&profile).to_bits()
            );
            assert_eq!(
                kernel.is_equilibrium(),
                game.is_bayesian_equilibrium(&profile)
            );
        }
        // Advance from (0,0,0) to (0,0,1) and re-check.
        kernel.seed(&[0, 0, 0]);
        kernel.advance(2, 0, 1);
        let profile = space.materialize(&[0, 0, 1]);
        assert_eq!(
            kernel.social_cost().to_bits(),
            game.social_cost(&profile).to_bits()
        );
    }

    #[test]
    fn generic_slot_improvement_maps_to_digits() {
        let game = coordination_game();
        let space = CompiledSpace::compile(&game).unwrap();
        let lowered = GenericLowered::new(&game, &space);
        let mut kernel = lowered.kernel();
        // Agent 1 plays 0 at both types; her type-1 slot wants to deviate
        // to 1 (the mismatcher state).
        kernel.seed(&[0, 0, 0]);
        assert_eq!(kernel.slot_improvement(2), SlotStep::Improve(1));
        kernel.advance(2, 0, 1);
        assert_eq!(kernel.slot_improvement(2), SlotStep::Stable);
    }
}
