//! Agent-symmetry detection and canonical-orbit enumeration for the
//! exhaustive sweep.
//!
//! The paper's hard instances (`G_worst`, affine-plane games) are built
//! from blocks of *interchangeable* agents: agents with identical type
//! structure whose transposition leaves every cost of the game unchanged
//! — not just up to reordering, but **bitwise** (the permuted profile's
//! social cost is computed from the same floating-point terms in the same
//! order). Under such a symmetry group the six measures are constant on
//! every orbit of strategy profiles, so an exhaustive sweep only needs to
//! visit one canonical representative per orbit: extrema over canonical
//! profiles equal extrema over the full space, exactly.
//!
//! * [`Symmetry::detect`] finds the interchangeability classes of a model
//!   via [`BayesianModel::agents_interchangeable`] plus structural checks
//!   on the compiled candidate space;
//! * [`Symmetry::orbit_count`] counts canonical profiles in closed form
//!   (a product of multiset coefficients), so budgets are gated *before*
//!   sweeping, exactly as in the unreduced path;
//! * [`Symmetry::decode_canonical`] unranks a canonical profile by index
//!   and [`Symmetry::next_canonical`] steps to the lexicographic
//!   successor in place, reporting each differing slot once — together
//!   they give the work-stealing sweep a block-decodable enumeration
//!   domain identical in shape to the flat odometer, and a step costs
//!   the kernel only the digits that differ net;
//! * [`Symmetry::mark_repeats`] marks the agents whose tuple repeats
//!   their class predecessor's: their slot verdicts are copies of the
//!   predecessor's, so the sweep's equilibrium check takes one verdict
//!   per run of equal tuples. It compares tuples once, where a block
//!   starts; [`Symmetry::next_canonical_marked`] then keeps the marks
//!   in closed form as it steps;
//! * [`Symmetry::canonicalize`] / [`Symmetry::is_canonical`] /
//!   [`Symmetry::orbit_size`] expose the underlying group action for
//!   property tests and diagnostics.
//!
//! The canonical form: each agent's strategy (the digits of its
//! contiguous slot block) is read as one mixed-radix tuple; a profile is
//! canonical iff within every class the member tuples are non-decreasing
//! in agent order. This is the standard multiset normal form, and every
//! orbit contains exactly one such profile.
//!
//! # Exactness contract
//!
//! Everything here rests on the [`BayesianModel::agents_interchangeable`]
//! contract: swapping the two agents' strategies must leave
//! `social_cost` and every interim cost **bit-for-bit** unchanged. On a
//! profile where two interchangeable agents play equal tuples the swap
//! is the identity, so each agent's slot verdicts equal the other's, bit
//! for bit: that is what [`Symmetry::mark_repeats`] lets a check skip.
//! Representations therefore only declare symmetry they can verify on
//! their own data (bitwise-equal cost tables under the coordinate swap
//! for matrix games, identical type lists and per-state type incidence
//! for network cost-sharing games). [`Symmetry::detect`] additionally
//! verifies that the compiled candidate space treats the agents
//! identically (same per-slot candidate lists and weights), so a model
//! override can never silently desynchronize from the sweep domain.

use crate::compiled::CompiledSpace;
use crate::model::BayesianModel;
use crate::solve::SolveError;

/// The detected agent-interchangeability structure of one compiled model:
/// equivalence classes of agents whose strategies may be permuted freely,
/// plus the slot layout needed to enumerate canonical representatives.
///
/// Built by [`Symmetry::detect`]; consumed by the exhaustive sweep in
/// [`crate::solve`].
#[derive(Clone, Debug)]
pub struct Symmetry {
    /// `(first_slot, slot_count)` per agent, agent-major (the compiled
    /// slot order).
    agent_slots: Vec<(usize, usize)>,
    /// Candidate count per slot (copied out of the compiled space so the
    /// enumeration needs no `M` parameter).
    slot_sizes: Vec<u32>,
    /// Interchangeability classes: ascending agent indices, classes
    /// ordered by first member, singletons included.
    classes: Vec<Vec<usize>>,
    /// Class index per agent.
    class_of: Vec<usize>,
    /// The largest same-class agent with a smaller index, per agent.
    class_pred: Vec<Option<usize>>,
    /// Per-agent strategy-tuple count (product of the agent's slot
    /// sizes); `u128` because a single agent may carry most of the space.
    tuple_counts: Vec<u128>,
}

impl Symmetry {
    /// Detects the interchangeability classes of `model` over its
    /// compiled space.
    ///
    /// Two agents land in one class iff the model declares them
    /// interchangeable with the class representative
    /// ([`BayesianModel::agents_interchangeable`]) **and** the compiled
    /// space agrees structurally: same number of slots, and per-slot
    /// bitwise-equal weights, equal sizes, and equal candidate lists.
    /// Grouping via the representative is sound because exact
    /// interchangeability is transitive (transpositions compose).
    ///
    /// # Panics
    ///
    /// Panics if `space` was not compiled from `model` (slot counts
    /// disagree).
    #[must_use]
    pub fn detect<M: BayesianModel>(model: &M, space: &CompiledSpace<M::Action>) -> Symmetry {
        let num_agents = space.num_agents();
        let mut agent_slots = vec![(0usize, 0usize); num_agents];
        for j in 0..space.num_slots() {
            let (i, tau) = space.slot(j);
            if tau == 0 {
                agent_slots[i].0 = j;
            }
            agent_slots[i].1 += 1;
        }
        let slot_sizes: Vec<u32> = (0..space.num_slots()).map(|j| space.slot_size(j)).collect();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_of = vec![0usize; num_agents];
        let mut class_pred = vec![None; num_agents];
        for i in 0..num_agents {
            let found = classes.iter().position(|class| {
                let rep = class[0];
                structurally_equal(space, agent_slots[rep], agent_slots[i])
                    && model.agents_interchangeable(rep, i)
            });
            match found {
                Some(ci) => {
                    class_pred[i] = classes[ci].last().copied();
                    class_of[i] = ci;
                    classes[ci].push(i);
                }
                None => {
                    class_of[i] = classes.len();
                    classes.push(vec![i]);
                }
            }
        }
        let tuple_counts = agent_slots
            .iter()
            .map(|&(start, count)| {
                slot_sizes[start..start + count]
                    .iter()
                    .fold(1u128, |acc, &s| acc.saturating_mul(u128::from(s)))
            })
            .collect();
        Symmetry {
            agent_slots,
            slot_sizes,
            classes,
            class_of,
            class_pred,
            tuple_counts,
        }
    }

    /// Whether every class is a singleton — no reduction possible.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.classes.iter().all(|c| c.len() == 1)
    }

    /// The interchangeability classes: ascending agent indices, ordered
    /// by first member, singletons included.
    #[must_use]
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Number of canonical profiles: the product over classes of the
    /// multiset coefficient `C(T + c − 1, c)` (`T` strategy tuples per
    /// member, `c` members).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::SpaceTooLarge`] when the count overflows
    /// `u128` (the unreduced space then overflows too).
    pub fn orbit_count(&self) -> Result<u128, SolveError> {
        let mut total = 1u128;
        for class in &self.classes {
            let t = self.tuple_counts[class[0]];
            let ways = multichoose(t, class.len()).ok_or(SolveError::SpaceTooLarge)?;
            total = total.checked_mul(ways).ok_or(SolveError::SpaceTooLarge)?;
        }
        Ok(total)
    }

    /// The symmetry-group order `Π |class|!`, saturating at `u128::MAX`
    /// (observability only — orbit enumeration never multiplies by it).
    #[must_use]
    pub fn group_order_saturating(&self) -> u128 {
        let mut order = 1u128;
        for class in &self.classes {
            for m in 2..=class.len() as u128 {
                order = order.saturating_mul(m);
            }
        }
        order
    }

    /// Number of distinct profiles in the orbit of `digits`: the product
    /// over classes of `c! / Π mult!` where `mult` are the multiplicities
    /// of equal member tuples.
    ///
    /// # Panics
    ///
    /// Panics on `u128` overflow (only reachable with hundreds of
    /// interchangeable agents, far beyond sweepable spaces) or if
    /// `digits` has the wrong length.
    #[must_use]
    pub fn orbit_size(&self, digits: &[u32]) -> u128 {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        let mut size = 1u128;
        for class in &self.classes {
            let mut perms = 1u128;
            for m in 2..=class.len() as u128 {
                perms = perms.checked_mul(m).expect("orbit size overflows u128");
            }
            // Divide out multiplicities of identical member tuples.
            for (pos, &a) in class.iter().enumerate() {
                let mut mult = 1u128;
                for &b in &class[..pos] {
                    if self.cmp_agent_tuples(digits, a, b) == std::cmp::Ordering::Equal {
                        mult += 1;
                    }
                }
                perms /= mult;
            }
            size = size.checked_mul(perms).expect("orbit size overflows u128");
        }
        size
    }

    /// Whether `digits` is the canonical representative of its orbit:
    /// within every class, member tuples are non-decreasing in agent
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `digits` has the wrong length.
    #[must_use]
    pub fn is_canonical(&self, digits: &[u32]) -> bool {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        self.classes.iter().all(|class| {
            class.windows(2).all(|pair| {
                self.cmp_agent_tuples(digits, pair[0], pair[1]) != std::cmp::Ordering::Greater
            })
        })
    }

    /// Rewrites `digits` to the canonical representative of its orbit
    /// (sorts each class's member tuples into non-decreasing agent
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `digits` has the wrong length.
    pub fn canonicalize(&self, digits: &mut [u32]) {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        for class in &self.classes {
            if class.len() < 2 {
                continue;
            }
            let mut tuples: Vec<Vec<u32>> = class
                .iter()
                .map(|&a| {
                    let (start, count) = self.agent_slots[a];
                    digits[start..start + count].to_vec()
                })
                .collect();
            tuples.sort_unstable();
            for (&a, tuple) in class.iter().zip(tuples) {
                let (start, count) = self.agent_slots[a];
                digits[start..start + count].copy_from_slice(&tuple);
            }
        }
    }

    /// Writes the `rank`-th canonical profile (lexicographic over agent
    /// tuples, agents in index order) into `digits`. Rank 0, where every
    /// sequential sweep starts, is the all-zeros profile: every member
    /// tuple at its least value is non-decreasing within each class.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= orbit_count()`, if `digits` has the wrong
    /// length, or on transient `u128` overflow in completion counting
    /// (impossible once [`Symmetry::orbit_count`] succeeded for any
    /// realistically budgeted space).
    pub fn decode_canonical(&self, rank: u128, digits: &mut [u32]) {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        if rank == 0 {
            digits.fill(0);
        } else {
            self.unrank(rank, digits);
        }
    }

    /// [`Symmetry::decode_canonical`] for any rank: each agent in turn
    /// takes the least tuple whose completions reach past the rank.
    fn unrank(&self, mut rank: u128, digits: &mut [u32]) {
        // Per-class lower bound (the last decided member's tuple) and
        // number of still-undecided members.
        let mut class_lb = vec![0u128; self.classes.len()];
        let mut class_rem: Vec<usize> = self.classes.iter().map(Vec::len).collect();
        for a in 0..self.agent_slots.len() {
            let ci = self.class_of[a];
            class_rem[ci] -= 1;
            let t = self.tuple_counts[a];
            let mut v = class_lb[ci];
            loop {
                debug_assert!(v < t, "canonical rank out of range");
                // Completions of the remaining agents with this one at `v`.
                let mut count = 1u128;
                for (cj, class) in self.classes.iter().enumerate() {
                    let lb = if cj == ci { v } else { class_lb[cj] };
                    let tj = self.tuple_counts[class[0]];
                    let ways = multichoose(tj - lb, class_rem[cj])
                        .expect("completion count overflows u128");
                    count = count
                        .checked_mul(ways)
                        .expect("completion count overflows u128");
                }
                if rank < count {
                    break;
                }
                rank -= count;
                v += 1;
            }
            class_lb[ci] = v;
            self.write_agent_tuple(digits, a, v);
        }
        debug_assert_eq!(rank, 0, "rank fully consumed");
    }

    /// Advances `digits` to the lexicographically next canonical profile
    /// in place, reporting each differing slot once as `(slot, old, new)`
    /// so an incremental [`crate::compiled::EvalKernel`] can follow along.
    /// Returns `false` (leaving `digits` unchanged) when `digits` was the
    /// last canonical profile.
    ///
    /// # Panics
    ///
    /// Panics if `digits` has the wrong length.
    pub fn next_canonical(
        &self,
        digits: &mut [u32],
        on_change: impl FnMut(usize, u32, u32),
    ) -> bool {
        self.grow(digits, on_change).is_some()
    }

    /// [`Symmetry::next_canonical`] that also rewrites `repeats`, which
    /// must hold the marks of the profile stepped from, to what
    /// [`Symmetry::mark_repeats`] gives for the new one — in closed form,
    /// with no tuple compared. The grown agent's tuple now exceeds its
    /// old one, which was at least its predecessor's, so it repeats
    /// nothing; every later agent was set to its class predecessor's
    /// tuple (a repeat) or, with no predecessor, to zeros (no repeat);
    /// earlier agents did not move.
    ///
    /// # Panics
    ///
    /// Panics if `digits` or `repeats` has the wrong length.
    pub fn next_canonical_marked(
        &self,
        digits: &mut [u32],
        repeats: &mut [bool],
        on_change: impl FnMut(usize, u32, u32),
    ) -> bool {
        assert_eq!(repeats.len(), self.slot_sizes.len(), "repeat buffer length");
        let Some(a) = self.grow(digits, on_change) else {
            return false;
        };
        let (start, count) = self.agent_slots[a];
        repeats[start..start + count].fill(false);
        for b in a + 1..self.agent_slots.len() {
            let (start, count) = self.agent_slots[b];
            repeats[start..start + count].fill(self.class_pred[b].is_some());
        }
        true
    }

    /// The step behind [`Symmetry::next_canonical`]: returns the agent
    /// whose tuple grew, or `None` (leaving `digits` unchanged) at the
    /// last canonical profile.
    fn grow(
        &self,
        digits: &mut [u32],
        mut on_change: impl FnMut(usize, u32, u32),
    ) -> Option<usize> {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        // Rightmost agent whose tuple can still grow; increments never
        // violate the (lower-bound-only) class constraints. Every later
        // agent holds its largest tuple and is written once below.
        let a = (0..self.agent_slots.len())
            .rev()
            .find(|&a| !self.is_last_tuple(digits, a))?;
        self.increment_agent(digits, a, &mut on_change);
        // Minimal completion of every later agent: its class
        // predecessor's (already final) tuple, or all zeros.
        for b in a + 1..self.agent_slots.len() {
            match self.class_pred[b] {
                Some(p) => self.copy_agent_tuple(digits, p, b, &mut on_change),
                None => self.zero_agent(digits, b, &mut on_change),
            }
        }
        Some(a)
    }

    /// Sets each slot's flag in `repeats` to whether its agent's tuple
    /// equals its class predecessor's: on a canonical profile these are
    /// the members after the first of each run of equal tuples.
    /// Swapping such an agent with its predecessor fixes the profile, so
    /// under the [`BayesianModel::agents_interchangeable`] contract each of
    /// its slots gets the same stability verdict as the predecessor's
    /// slot at the same position, and an equilibrium check may skip it
    /// ([`crate::compiled::EvalKernel::is_equilibrium_except`]).
    ///
    /// Only agents `from` and later are rewritten: after
    /// [`Symmetry::next_canonical`], `from` may be the agent of the first
    /// slot it reported, since no earlier agent's tuple moved.
    ///
    /// # Panics
    ///
    /// Panics if `digits` or `repeats` has the wrong length.
    pub fn mark_repeats(&self, digits: &[u32], from: usize, repeats: &mut [bool]) {
        assert_eq!(digits.len(), self.slot_sizes.len(), "digit buffer length");
        assert_eq!(repeats.len(), self.slot_sizes.len(), "repeat buffer length");
        for b in from..self.agent_slots.len() {
            let (start, count) = self.agent_slots[b];
            let repeat = self.class_pred[b].is_some_and(|p| {
                let pred = self.agent_slots[p].0;
                (0..count).all(|s| digits[pred + s] == digits[start + s])
            });
            for r in &mut repeats[start..start + count] {
                *r = repeat;
            }
        }
    }

    /// Compares the strategy tuples of agents `a` and `b` (which must be
    /// structurally equal) lexicographically over their slot blocks.
    fn cmp_agent_tuples(&self, digits: &[u32], a: usize, b: usize) -> std::cmp::Ordering {
        let (sa, count) = self.agent_slots[a];
        let (sb, _) = self.agent_slots[b];
        digits[sa..sa + count].cmp(&digits[sb..sb + count])
    }

    /// Whether agent `a` plays its largest tuple (every digit at its
    /// slot's last candidate).
    fn is_last_tuple(&self, digits: &[u32], a: usize) -> bool {
        let (start, count) = self.agent_slots[a];
        (start..start + count).all(|j| digits[j] + 1 == self.slot_sizes[j])
    }

    /// Mixed-radix increment of agent `a`'s tuple (last slot fastest),
    /// which must not be its largest: trailing last-candidate digits wrap
    /// to zero and one digit grows, each change reported once.
    fn increment_agent(
        &self,
        digits: &mut [u32],
        a: usize,
        on_change: &mut impl FnMut(usize, u32, u32),
    ) {
        let (start, count) = self.agent_slots[a];
        for j in (start..start + count).rev() {
            let old = digits[j];
            if old + 1 < self.slot_sizes[j] {
                digits[j] = old + 1;
                on_change(j, old, old + 1);
                return;
            }
            digits[j] = 0;
            if old != 0 {
                on_change(j, old, 0);
            }
        }
        unreachable!("agent {a} already plays its largest tuple");
    }

    /// Overwrites agent `to`'s tuple with agent `from`'s, reporting the
    /// differing digits.
    fn copy_agent_tuple(
        &self,
        digits: &mut [u32],
        from: usize,
        to: usize,
        on_change: &mut impl FnMut(usize, u32, u32),
    ) {
        let (sf, count) = self.agent_slots[from];
        let (st, _) = self.agent_slots[to];
        for s in 0..count {
            let new = digits[sf + s];
            let old = digits[st + s];
            if old != new {
                digits[st + s] = new;
                on_change(st + s, old, new);
            }
        }
    }

    /// Zeros agent `a`'s tuple, reporting the differing digits.
    fn zero_agent(
        &self,
        digits: &mut [u32],
        a: usize,
        on_change: &mut impl FnMut(usize, u32, u32),
    ) {
        let (start, count) = self.agent_slots[a];
        for (j, d) in digits.iter_mut().enumerate().skip(start).take(count) {
            let old = *d;
            if old != 0 {
                *d = 0;
                on_change(j, old, 0);
            }
        }
    }

    /// Writes scalar tuple value `v` into agent `a`'s digit block
    /// (mixed-radix, last slot fastest).
    fn write_agent_tuple(&self, digits: &mut [u32], a: usize, mut v: u128) {
        let (start, count) = self.agent_slots[a];
        for j in (start..start + count).rev() {
            let base = u128::from(self.slot_sizes[j]);
            digits[j] = (v % base) as u32;
            v /= base;
        }
        debug_assert_eq!(v, 0, "tuple value within range");
    }
}

/// `space`-level structural equality of two agents' slot blocks: same
/// slot count and per-slot bitwise-equal weights, equal sizes, and equal
/// candidate lists.
fn structurally_equal<A: Clone + PartialEq>(
    space: &CompiledSpace<A>,
    a: (usize, usize),
    b: (usize, usize),
) -> bool {
    let ((sa, ca), (sb, cb)) = (a, b);
    if ca != cb {
        return false;
    }
    (0..ca).all(|s| {
        space.slot_size(sa + s) == space.slot_size(sb + s)
            && space.weight(sa + s).to_bits() == space.weight(sb + s).to_bits()
            && space.slot_actions(sa + s) == space.slot_actions(sb + s)
    })
}

/// The multiset coefficient `C(t + r − 1, r)`: non-decreasing
/// `r`-sequences over `t` values. `None` on `u128` overflow. Exact: each
/// partial product is itself a binomial, so the running division never
/// truncates.
fn multichoose(t: u128, r: usize) -> Option<u128> {
    let mut result = 1u128;
    for i in 1..=r as u128 {
        result = result.checked_mul(t.checked_sub(1)?.checked_add(i)?)? / i;
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayesian::BayesianGame;
    use crate::game::MatrixFormGame;
    use crate::random_games::random_bayesian_potential_game;

    /// A 3-agent game whose agents 0 and 1 are interchangeable (identical
    /// marginals and a social cost symmetric in their actions) while
    /// agent 2 is not.
    fn two_plus_one_game() -> BayesianGame {
        let symmetric = MatrixFormGame::from_fn(3, &[2, 2, 3], |_, a| {
            (a[0] + a[1]) as f64 + 10.0 * a[2] as f64
        });
        BayesianGame::new(vec![1, 1, 1], vec![(vec![0, 0, 0], 1.0, symmetric)]).unwrap()
    }

    fn symmetry_of(game: &BayesianGame) -> (Symmetry, CompiledSpace<usize>) {
        let space = CompiledSpace::compile(game).unwrap();
        let sym = Symmetry::detect(game, &space);
        (sym, space)
    }

    #[test]
    fn detects_interchangeable_pair() {
        let game = two_plus_one_game();
        let (sym, _) = symmetry_of(&game);
        assert!(!sym.is_trivial());
        assert_eq!(sym.classes(), &[vec![0, 1], vec![2]]);
        assert_eq!(sym.group_order_saturating(), 2);
        // 2 interchangeable binary agents: C(2+2-1, 2) = 3 canonical
        // pairs, times 3 strategies of the free agent.
        assert_eq!(sym.orbit_count().unwrap(), 9);
    }

    #[test]
    fn asymmetric_games_are_trivial() {
        let skew = MatrixFormGame::from_fn(2, &[2, 2], |_, a| (2 * a[0] + a[1]) as f64);
        let game = BayesianGame::new(vec![1, 1], vec![(vec![0, 0], 1.0, skew)]).unwrap();
        let (sym, _) = symmetry_of(&game);
        assert!(sym.is_trivial());
        assert_eq!(sym.orbit_count().unwrap(), 4);
        assert_eq!(sym.group_order_saturating(), 1);
    }

    #[test]
    fn canonical_form_is_idempotent_and_canonical() {
        let game = two_plus_one_game();
        let (sym, space) = symmetry_of(&game);
        let size = space.space_size().unwrap();
        let mut digits = vec![0u32; space.num_slots()];
        for idx in 0..size {
            space.decode(idx, &mut digits);
            let mut canon = digits.clone();
            sym.canonicalize(&mut canon);
            assert!(sym.is_canonical(&canon), "canonicalize yields canonical");
            let mut twice = canon.clone();
            sym.canonicalize(&mut twice);
            assert_eq!(twice, canon, "canonicalize is idempotent");
            // A profile is its own canonical form iff it is canonical.
            assert_eq!(canon == digits, sym.is_canonical(&digits));
        }
    }

    #[test]
    fn orbit_sizes_divide_group_order_and_sum_to_space() {
        for (type_counts, action_counts) in
            [(vec![1, 1, 1], vec![2, 2, 3]), (vec![1, 1], vec![3, 3])]
        {
            let g = MatrixFormGame::from_fn(type_counts.len(), &action_counts, |_, a| {
                a.iter().map(|&x| x as f64).sum()
            });
            let game = BayesianGame::new(
                type_counts.clone(),
                vec![(vec![0; type_counts.len()], 1.0, g)],
            )
            .unwrap();
            let (sym, space) = symmetry_of(&game);
            let order = sym.group_order_saturating();
            let mut digits = vec![0u32; space.num_slots()];
            let mut covered = 0u128;
            let mut canonical_count = 0u128;
            for idx in 0..space.space_size().unwrap() {
                space.decode(idx, &mut digits);
                let orbit = sym.orbit_size(&digits);
                assert!(orbit >= 1 && order % orbit == 0, "orbit size divides |G|");
                if sym.is_canonical(&digits) {
                    covered += orbit;
                    canonical_count += 1;
                }
            }
            assert_eq!(covered, space.space_size().unwrap(), "orbits partition");
            assert_eq!(canonical_count, sym.orbit_count().unwrap());
        }
    }

    #[test]
    fn stepping_and_unranking_agree() {
        let game = two_plus_one_game();
        let (sym, space) = symmetry_of(&game);
        let orbits = sym.orbit_count().unwrap();
        // Walk with next_canonical from rank 0; check each position
        // against decode_canonical and canonicity.
        let mut digits = vec![0u32; space.num_slots()];
        sym.decode_canonical(0, &mut digits);
        let mut expected = vec![0u32; space.num_slots()];
        for rank in 0..orbits {
            sym.decode_canonical(rank, &mut expected);
            assert_eq!(digits, expected, "rank {rank}");
            assert!(sym.is_canonical(&digits));
            let more = sym.next_canonical(&mut digits, |_, _, _| {});
            assert_eq!(more, rank + 1 < orbits, "exhausts exactly at the end");
        }
    }

    #[test]
    fn change_reports_track_the_digit_buffer() {
        let game = two_plus_one_game();
        let (sym, space) = symmetry_of(&game);
        let mut digits = vec![0u32; space.num_slots()];
        sym.decode_canonical(0, &mut digits);
        // Mirror the buffer exclusively through the change callback: it
        // must stay identical to the stepped buffer at every position.
        let mut mirror = digits.clone();
        loop {
            let mut changes: Vec<(usize, u32, u32)> = Vec::new();
            if !sym.next_canonical(&mut digits, |j, old, new| changes.push((j, old, new))) {
                break;
            }
            for (j, old, new) in changes {
                assert_eq!(mirror[j], old, "stale `old` digit reported");
                assert_ne!(old, new, "no-op change reported");
                mirror[j] = new;
            }
            assert_eq!(mirror, digits);
        }
    }

    #[test]
    fn random_potential_games_detect_no_spurious_symmetry() {
        // Random potential games have independently drawn cost tables:
        // interchangeability would require exact bitwise coincidences.
        for seed in 0..8 {
            let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed);
            let space = CompiledSpace::compile(&game).unwrap();
            let sym = Symmetry::detect(&game, &space);
            assert!(sym.is_trivial(), "seed {seed}");
        }
    }

    /// Games of several class shapes, with their classes: singleton
    /// classes, one big class, mixed classes and agents of several types.
    fn class_shapes() -> Vec<(BayesianGame, Vec<Vec<usize>>)> {
        let sum = |_: usize, a: &[usize]| a.iter().sum::<usize>() as f64;
        let skew = |_: usize, a: &[usize]| (4 * a[0] + 2 * a[1] + a[2]) as f64;
        let one_state = |actions: &[usize], cost: fn(usize, &[usize]) -> f64| {
            let g = MatrixFormGame::from_fn(actions.len(), actions, cost);
            let k = actions.len();
            BayesianGame::new(vec![1; k], vec![(vec![0; k], 1.0, g)]).unwrap()
        };
        let multi_type = {
            let g = MatrixFormGame::from_fn(2, &[3, 3], sum);
            let support = (0..2).map(|t| (vec![t, t], 0.5, g.clone())).collect();
            BayesianGame::new(vec![2, 2], support).unwrap()
        };
        vec![
            (one_state(&[2, 3, 2], skew), vec![vec![0], vec![1], vec![2]]),
            (one_state(&[3; 4], sum), vec![vec![0, 1, 2, 3]]),
            (two_plus_one_game(), vec![vec![0, 1], vec![2]]),
            (multi_type, vec![vec![0, 1]]),
        ]
    }

    /// The all-zeros profile is rank 0 of the general unranking, for
    /// every class shape: the fact [`Symmetry::decode_canonical`]'s
    /// rank-0 start rests on.
    #[test]
    fn rank_zero_is_the_all_zeros_profile() {
        for (game, classes) in class_shapes() {
            let (sym, space) = symmetry_of(&game);
            assert_eq!(sym.classes(), classes.as_slice());
            let zeros = vec![0u32; space.num_slots()];
            let mut digits = vec![1u32; space.num_slots()];
            sym.unrank(0, &mut digits);
            assert_eq!(digits, zeros, "classes {classes:?}");
            digits.fill(1);
            sym.decode_canonical(0, &mut digits);
            assert_eq!(digits, zeros, "classes {classes:?}");
            // Its successor is rank 1 of the general unranking.
            assert!(sym.next_canonical(&mut digits, |_, _, _| {}));
            let mut one = vec![0u32; space.num_slots()];
            sym.unrank(1, &mut one);
            assert_eq!(digits, one, "classes {classes:?}");
        }
    }

    /// Each step reports every slot whose digit differs exactly once and
    /// no other slot, so a kernel pays only for net changes; and marking
    /// repeats from the agent of the first reported slot on gives the
    /// marks of the whole profile. Stepping that wraps a tuple to zeros and then
    /// copies its predecessor back reports a restored digit twice.
    #[test]
    fn steps_report_each_differing_slot_once() {
        for (game, classes) in class_shapes() {
            let (sym, space) = symmetry_of(&game);
            let n = space.num_slots();
            let mut digits = vec![0u32; n];
            sym.decode_canonical(0, &mut digits);
            let mut repeats = vec![false; n];
            sym.mark_repeats(&digits, 0, &mut repeats);
            loop {
                let before = digits.clone();
                let mut reports = vec![0usize; n];
                let mut first = n;
                let more = sym.next_canonical(&mut digits, |j, old, _| {
                    assert_eq!(before[j], old, "classes {classes:?}: stale `old` digit");
                    reports[j] += 1;
                    first = first.min(j);
                });
                if !more {
                    assert_eq!(digits, before, "classes {classes:?}: last profile kept");
                    assert_eq!(reports, vec![0; n]);
                    break;
                }
                for j in 0..n {
                    let differs = usize::from(before[j] != digits[j]);
                    assert_eq!(
                        reports[j], differs,
                        "classes {classes:?}: slot {j}, {before:?} -> {digits:?}"
                    );
                }
                sym.mark_repeats(&digits, space.slot(first).0, &mut repeats);
                let mut whole = vec![false; n];
                sym.mark_repeats(&digits, 0, &mut whole);
                assert_eq!(repeats, whole, "classes {classes:?}: {digits:?}");
            }
        }
    }

    /// The marks a step sets in closed form equal the ones
    /// [`Symmetry::mark_repeats`] finds by comparing tuples, at every
    /// canonical profile of every class shape, and the step itself is
    /// [`Symmetry::next_canonical`]'s.
    #[test]
    fn closed_form_marks_equal_compared_marks_at_every_canonical_profile() {
        for (game, classes) in class_shapes() {
            let (sym, space) = symmetry_of(&game);
            let n = space.num_slots();
            let mut digits = vec![0u32; n];
            sym.decode_canonical(0, &mut digits);
            let mut repeats = vec![false; n];
            sym.mark_repeats(&digits, 0, &mut repeats);
            let mut plain = digits.clone();
            let mut steps = 0usize;
            loop {
                let mut reports = Vec::new();
                let more = sym.next_canonical_marked(&mut digits, &mut repeats, |j, old, new| {
                    reports.push((j, old, new));
                });
                let mut plain_reports = Vec::new();
                let plain_more =
                    sym.next_canonical(&mut plain, |j, old, new| plain_reports.push((j, old, new)));
                assert_eq!(more, plain_more, "classes {classes:?}");
                assert_eq!(digits, plain, "classes {classes:?}");
                assert_eq!(reports, plain_reports, "classes {classes:?}");
                if !more {
                    break;
                }
                steps += 1;
                let mut compared = vec![false; n];
                sym.mark_repeats(&digits, 0, &mut compared);
                assert_eq!(repeats, compared, "classes {classes:?}: {digits:?}");
            }
            let orbits = sym.orbit_count().expect("small orbit count");
            assert_eq!(steps as u128 + 1, orbits, "classes {classes:?}");
        }
    }

    /// Repeats are the members after the first of each run of equal
    /// tuples within a class, and nothing else.
    #[test]
    fn repeats_mark_runs_of_equal_tuples() {
        // Four interchangeable one-slot agents; then a pair plus a
        // singleton.
        let (sym, _) = symmetry_of(&class_shapes()[1].0);
        let mut repeats = vec![true; 4];
        sym.mark_repeats(&[0, 0, 1, 1], 0, &mut repeats);
        assert_eq!(repeats, [false, true, false, true]);
        sym.mark_repeats(&[0, 1, 2, 2], 0, &mut repeats);
        assert_eq!(repeats, [false, false, false, true]);
        let (sym, _) = symmetry_of(&two_plus_one_game());
        let mut repeats = vec![true; 3];
        sym.mark_repeats(&[1, 1, 1], 0, &mut repeats);
        assert_eq!(repeats, [false, true, false], "a singleton never repeats");
    }

    #[test]
    fn multichoose_is_exact() {
        assert_eq!(multichoose(1, 0), Some(1));
        assert_eq!(multichoose(2, 2), Some(3));
        assert_eq!(multichoose(3, 3), Some(10));
        assert_eq!(multichoose(10, 4), Some(715));
        // C(2^k + k, k+1)-style big values stay exact.
        assert_eq!(
            multichoose(1 << 20, 2),
            Some((1u128 << 20) * ((1 << 20) + 1) / 2)
        );
        assert_eq!(multichoose(u128::MAX, 2), None);
    }
}
