//! The unified solver engine: one configurable entry point computing the
//! six ignorance measures for **any** [`BayesianModel`].
//!
//! A [`Solver`] is built via [`SolverBuilder`] from three orthogonal
//! knobs:
//!
//! * a [`Backend`] — [`Backend::ExhaustiveEnum`] (exact, the historical
//!   behavior of `measures()`), [`Backend::BestResponseDynamics`]
//!   (equilibria via seeded restarts of interim best-response dynamics),
//!   or [`Backend::MonteCarloSampling`] (seeded uniform profile sampling
//!   plus dynamics, for games whose strategy space exceeds the budget);
//! * a [`Budget`] — `max_profiles` gates exhaustive enumeration,
//!   `max_iterations` caps dynamics sweeps;
//! * a thread count — the exhaustive sweep runs on a **work-stealing**
//!   scheduler: the profile range is cut into blocks that idle workers
//!   claim from a shared atomic counter, each worker reuses one
//!   incremental kernel across every block it steals, and the per-block
//!   results are merged in block order, so reports are bit-for-bit
//!   identical across any thread count (sweeps below
//!   [`PARALLEL_SWEEP_MIN_PROFILES`] fall back to a purely sequential
//!   sweep so small games never pay pool overhead).
//!
//! The exhaustive sweep always reduces by agent symmetry: it detects
//! interchangeable agents ([`crate::symmetry`]) and sweeps one canonical
//! representative per orbit, on both measure sides. The measures are
//! bit-for-bit those of the full sweep, and so is the report:
//! [`SolveReport::profiles_evaluated`] counts the profiles the sweep
//! covers, not the representatives it evaluated.
//!
//! The exhaustive sweep also splits by support state when every agent's
//! type reveals the state: no `(agent, type)` slot appears in two states
//! ([`BayesianModel::state_types`]). Each state's game `G_t` is then an
//! independent subgame. It is swept on its own at prior `p(t)`
//! ([`BayesianModel::state_model`]), orbit-reduced as above, and the
//! per-state extrema are summed in state order, so the sweep costs
//! Σ_t |G_t| profiles instead of Π_t |G_t|. This is exact bit for bit:
//! the whole model's social cost is the same left-to-right sum of the
//! same `p(t)·K_t` terms, and rounded addition is monotone in each
//! argument. [`Budget::max_profiles`] gates the sum of the per-state
//! sweeps, and `profiles_evaluated` is still the whole space. A model
//! in which any slot is shared by two states is swept whole.
//!
//! When orbit detection finds no interchangeable agents and the model's
//! kernel scans slots ([`Lowered::scans_slots`]; the matrix kernel
//! does), the sweep **eliminates one agent** `n`, the one with the most
//! strategies (the last of them on a tie), if it has at least 8. Agent
//! `n`'s interim cost at type `τ` depends only on the others' profile
//! `s₋ₙ` and its own action at `τ`, so the odometer enumerates `s₋ₙ`
//! only and scans `n`'s actions once per type
//! ([`EvalKernel::scan_slot`]): `Π_τ |A_τ|` profile steps become
//! `Σ_τ |A_τ|` action scans. The equilibria over `s₋ₙ` are `s₋ₙ` times
//! the product of the stable sets, and each is costed with the original
//! state-order fold, so `best-eqP` and `worst-eqP` are exact. `optP`
//! rests on a certificate: regrouping the fold by `n`'s types changes
//! its rounding by at most a bound `e` (`γ_m·Σ|p(t)·K_t|`), so every
//! action whose group sum is within `2e` of its type's least is kept,
//! and the minimum of the original fold over the kept product is the
//! fold's minimum bit for bit (derivation on `Elimination`). Infinite
//! or NaN terms keep every action. The budget still gates the whole
//! domain and `profiles_evaluated` is still the whole space.
//!
//! Every backend evaluates profiles through the **compiled evaluation
//! layer** ([`crate::compiled`]): the solver lowers the model once into a
//! flat `u32`-indexed candidate arena plus a per-representation
//! incremental [`EvalKernel`], each worker
//! seeds its kernel from its chunk's starting digits, and the odometer
//! then mutates a single digit buffer with zero action clones while the
//! kernel delta-updates its cost state. Kernels are bit-for-bit faithful
//! to the trait-method evaluation, so this is purely a performance layer.
//!
//! Every solve returns a structured [`SolveReport`]; failures share the
//! single [`SolveError`] type.
//!
//! # Examples
//!
//! ```
//! use bi_core::bayesian::BayesianGame;
//! use bi_core::game::MatrixFormGame;
//! use bi_core::solve::{Backend, Solver};
//!
//! let g0 = MatrixFormGame::from_fn(1, &[2], |_, a| if a[0] == 0 { 1.0 } else { 2.0 });
//! let g1 = MatrixFormGame::from_fn(1, &[2], |_, a| if a[0] == 1 { 1.0 } else { 2.0 });
//! let game = BayesianGame::new(
//!     vec![2],
//!     vec![(vec![0], 0.5, g0), (vec![1], 0.5, g1)],
//! ).unwrap();
//!
//! let report = Solver::builder()
//!     .backend(Backend::ExhaustiveEnum)
//!     .threads(2)
//!     .build()
//!     .solve(&game)
//!     .unwrap();
//! assert!(report.exact);
//! assert_eq!(report.profiles_evaluated, 4);
//! assert_eq!(report.measures.opt_p, report.measures.opt_c);
//! ```

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compiled::{CompiledSpace, EvalKernel, Lowered, SlotStep};
use crate::game::MAX_ENUMERATION;
use crate::measures::Measures;
use crate::model::{BayesianModel, CompleteInfo};
use crate::symmetry::Symmetry;

/// Smallest sweep (in visited profiles) that uses the parallel
/// work-stealing scheduler; anything smaller runs sequentially on the
/// calling thread. Thread-pool spawn/join costs on the order of 100 µs —
/// comparable to sweeping this many profiles outright — which is how a
/// 4-thread sweep of a small game ends up *slower* than 1 thread.
pub const PARALLEL_SWEEP_MIN_PROFILES: u128 = 1 << 14;

/// Unified error type of the solver engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// The strategy-space size overflowed `u128` — no finite budget can
    /// admit it.
    SpaceTooLarge,
    /// Exhaustive enumeration would exceed the budget; switch to a
    /// sampling backend or raise [`Budget::max_profiles`].
    BudgetExceeded {
        /// Number of profiles exhaustive enumeration would visit.
        required: u128,
        /// The configured cap it exceeds.
        max_profiles: u128,
    },
    /// No pure Bayesian equilibrium was found (for approximate backends:
    /// within the sampled starts), so `best-eqP`/`worst-eqP` are
    /// undefined.
    NoEquilibrium,
    /// An underlying complete-information game has no pure Nash
    /// equilibrium, so `best-eqC`/`worst-eqC` are undefined.
    NoStateEquilibrium {
        /// The support-state index of the equilibrium-free game.
        state: usize,
    },
    /// A model-specific failure (e.g. truncated path enumeration),
    /// preserved as the error [`source`](Error::source).
    Model(Box<dyn Error + Send + Sync>),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::SpaceTooLarge => {
                write!(f, "strategy-space size overflows u128")
            }
            SolveError::BudgetExceeded {
                required,
                max_profiles,
            } => write!(
                f,
                "exhaustive enumeration needs {required} profiles (budget {max_profiles})"
            ),
            SolveError::NoEquilibrium => {
                write!(f, "no pure Bayesian equilibrium found")
            }
            SolveError::NoStateEquilibrium { state } => {
                write!(f, "underlying game {state} has no pure Nash equilibrium")
            }
            SolveError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Model(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

/// Resource guard for a solve: how much exhaustive enumeration to allow
/// and how long dynamics may run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of profiles [`Backend::ExhaustiveEnum`] may visit;
    /// larger spaces return [`SolveError::BudgetExceeded`].
    pub max_profiles: u128,
    /// Maximum number of full best-response sweeps per dynamics run
    /// (used by the [`Backend::BestResponseDynamics`] and
    /// [`Backend::MonteCarloSampling`] backends).
    pub max_iterations: u64,
}

impl Default for Budget {
    /// `max_profiles` defaults to the workspace enumeration limit
    /// [`MAX_ENUMERATION`]; `max_iterations` to 256 sweeps.
    fn default() -> Self {
        Budget {
            max_profiles: MAX_ENUMERATION,
            max_iterations: 256,
        }
    }
}

/// The algorithm a [`Solver`] uses for the partial-information side
/// (`optP`, `best-eqP`, `worst-eqP`). The complete-information side is
/// always computed exactly per support state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Exact exhaustive enumeration of the candidate strategy space —
    /// the historical behavior of `measures()`. Fails with
    /// [`SolveError::BudgetExceeded`] beyond [`Budget::max_profiles`].
    #[default]
    ExhaustiveEnum,
    /// Interim best-response dynamics from a deterministic start plus
    /// `restarts` seeded random restarts. Reported equilibria are genuine
    /// (each is verified exactly), but the extrema are inner
    /// approximations: `best-eqP` from above, `worst-eqP` from below,
    /// `optP` from above.
    BestResponseDynamics {
        /// Number of additional random restarts after the deterministic
        /// first run.
        restarts: u32,
        /// Seed of the restart stream (deterministic per seed).
        seed: u64,
    },
    /// Seeded uniform sampling of `samples` strategy profiles, each also
    /// used as a start for best-response dynamics. Never *errors* on the
    /// budget — this is the backend for games whose strategy space exceeds
    /// [`Budget::max_profiles`] — but the number of sampled starts is
    /// capped at `min(samples, max_profiles)` (never below one start when
    /// any were requested), with the truncation recorded in
    /// [`SolveReport::sample_cap`]. Same inner-approximation guarantees
    /// as [`Backend::BestResponseDynamics`].
    MonteCarloSampling {
        /// Number of uniform profile samples.
        samples: u32,
        /// Seed of the sample stream (deterministic per seed).
        seed: u64,
    },
}

/// Structured outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveReport {
    /// The six ignorance measures.
    pub measures: Measures,
    /// The backend that produced the partial-information side.
    pub method: Backend,
    /// Profiles covered by the sweep. For [`Backend::ExhaustiveEnum`]
    /// this is the full strategy-space size, whether or not symmetry let
    /// the sweep evaluate one representative per orbit, or the states
    /// were swept one at a time; for the dynamics
    /// backends it is the number of profiles whose social cost was
    /// evaluated.
    pub profiles_evaluated: u128,
    /// Whether the partial-information side is exact. `true` only for
    /// [`Backend::ExhaustiveEnum`]; approximate backends report genuine
    /// equilibria but possibly non-extremal ones.
    pub exact: bool,
    /// `Some(effective)` when a [`Backend::MonteCarloSampling`] request
    /// asked for more samples than [`Budget::max_profiles`] allows and was
    /// truncated to `effective` starts; `None` otherwise.
    pub sample_cap: Option<u64>,
}

/// The full configuration of a [`Solver`] as plain data — the wire form
/// used by the solve service (`bi-service`): backend, budget, and thread
/// count. Convert with [`Solver::config`] / [`Solver::from_config`].
///
/// # Examples
///
/// ```
/// use bi_core::solve::{Solver, SolverConfig};
///
/// let config = SolverConfig { threads: 4, ..SolverConfig::default() };
/// let solver = Solver::from_config(config);
/// assert_eq!(solver.config(), config);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// The algorithm of the partial-information side.
    pub backend: Backend,
    /// The resource guard.
    pub budget: Budget,
    /// Worker threads for the exhaustive sweep (`0` = one per core).
    pub threads: usize,
}

impl Default for SolverConfig {
    /// Matches [`Solver::default`]: exhaustive, default budget, single
    /// thread.
    fn default() -> Self {
        Solver::default().config()
    }
}

impl From<SolverConfig> for Solver {
    fn from(config: SolverConfig) -> Self {
        Solver::from_config(config)
    }
}

/// Builder for [`Solver`] — see the [module docs](self) for the knobs.
///
/// # Examples
///
/// ```
/// use bi_core::solve::{Backend, Budget, Solver};
///
/// let solver = Solver::builder()
///     .backend(Backend::MonteCarloSampling { samples: 128, seed: 7 })
///     .budget(Budget { max_profiles: 10_000, max_iterations: 64 })
///     .threads(0) // 0 = one worker per available core
///     .build();
/// let _ = solver;
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SolverBuilder {
    backend: Backend,
    budget: Budget,
    threads: usize,
}

impl Default for SolverBuilder {
    /// Exhaustive backend, default [`Budget`], one thread — the exact
    /// historical `measures()` configuration.
    fn default() -> Self {
        SolverBuilder {
            backend: Backend::default(),
            budget: Budget::default(),
            threads: 1,
        }
    }
}

impl SolverBuilder {
    /// Selects the [`Backend`].
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the whole [`Budget`].
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets [`Budget::max_profiles`] only.
    #[must_use]
    pub fn max_profiles(mut self, max_profiles: u128) -> Self {
        self.budget.max_profiles = max_profiles;
        self
    }

    /// Sets [`Budget::max_iterations`] only.
    #[must_use]
    pub fn max_iterations(mut self, max_iterations: u64) -> Self {
        self.budget.max_iterations = max_iterations;
        self
    }

    /// Number of worker threads for the exhaustive sweep. `1` (the
    /// default) runs inline; `0` means one worker per available core.
    /// Results are identical regardless of the thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> Solver {
        Solver {
            backend: self.backend,
            budget: self.budget,
            threads: self.threads,
        }
    }
}

/// The configurable measure-solving engine. Construct via
/// [`Solver::builder`]; [`Solver::default`] reproduces the historical
/// `measures()` behavior exactly (exhaustive, workspace budget, single
/// thread).
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    backend: Backend,
    budget: Budget,
    threads: usize,
}

impl Default for Solver {
    fn default() -> Self {
        SolverBuilder::default().build()
    }
}

impl Solver {
    /// Starts building a solver.
    #[must_use]
    pub fn builder() -> SolverBuilder {
        SolverBuilder::default()
    }

    /// The configured backend.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The configured worker-thread count (`0` = one per core).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The full configuration as plain data (the wire form).
    #[must_use]
    pub fn config(&self) -> SolverConfig {
        SolverConfig {
            backend: self.backend,
            budget: self.budget,
            threads: self.threads,
        }
    }

    /// Builds a solver from its plain-data configuration.
    #[must_use]
    pub fn from_config(config: SolverConfig) -> Solver {
        Solver {
            backend: config.backend,
            budget: config.budget,
            threads: config.threads,
        }
    }

    /// Computes the six measures of `model`.
    ///
    /// # Errors
    ///
    /// * [`SolveError::SpaceTooLarge`] — the candidate space size
    ///   overflows `u128` (exhaustive backend only; sampling backends
    ///   never size the space);
    /// * [`SolveError::BudgetExceeded`] — exhaustive enumeration over
    ///   budget (use a sampling backend instead);
    /// * [`SolveError::NoEquilibrium`] /
    ///   [`SolveError::NoStateEquilibrium`] — the equilibrium-side
    ///   measures are undefined;
    /// * [`SolveError::Model`] — a model-specific failure (e.g.
    ///   truncated path enumeration).
    pub fn solve<M: BayesianModel>(&self, model: &M) -> Result<SolveReport, SolveError> {
        let space = CompiledSpace::compile(model)?;
        let mut sample_cap = None;
        let stats = match self.backend {
            Backend::ExhaustiveEnum => self.exhaustive(model, &space, self.budget.max_profiles)?,
            Backend::BestResponseDynamics { restarts, seed } => {
                let runs = u64::from(restarts) + 1;
                let starts = Starts::DeterministicThenRandom;
                self.dynamics(model, &space, starts, runs, seed)
            }
            Backend::MonteCarloSampling { samples, seed } => {
                // The profile budget caps the sampled starts (it used to be
                // silently ignored here); the truncation is reported. The
                // floor of one start (when any were requested) keeps a
                // zero budget from masquerading as "no equilibrium".
                let requested = u128::from(samples);
                let effective = requested
                    .min(self.budget.max_profiles)
                    .max(u128::from(samples.min(1))) as u64;
                if u128::from(effective) < requested {
                    sample_cap = Some(effective);
                }
                self.dynamics(model, &space, Starts::Random, effective, seed)
            }
        };
        if !stats.found_equilibrium {
            return Err(SolveError::NoEquilibrium);
        }
        let ci = self.complete_info(model)?;
        Ok(SolveReport {
            measures: Measures {
                opt_p: stats.opt_p,
                best_eq_p: stats.best_eq_p,
                worst_eq_p: stats.worst_eq_p,
                opt_c: ci.opt_c,
                best_eq_c: ci.best_eq_c,
                worst_eq_c: ci.worst_eq_c,
            },
            method: self.backend,
            profiles_evaluated: stats.evaluated,
            exact: matches!(self.backend, Backend::ExhaustiveEnum),
            sample_cap,
        })
    }

    /// The complete-information side: each state's game `G_t`
    /// ([`BayesianModel::state_model`]) goes through the exhaustive
    /// (orbit-reduced) sweep with this solver's threads, and its extrema
    /// are weighted by `p(t)` in state order. Whatever the backend or
    /// [`Budget`], a state is gated at [`MAX_ENUMERATION`] profiles.
    ///
    /// # Errors
    ///
    /// [`BayesianModel::state_too_large`] past the gate,
    /// [`SolveError::NoStateEquilibrium`], and enumeration failures.
    pub fn complete_info<M: BayesianModel>(&self, model: &M) -> Result<CompleteInfo, SolveError> {
        let mut ci = CompleteInfo {
            opt_c: 0.0,
            best_eq_c: 0.0,
            worst_eq_c: 0.0,
        };
        for state in 0..model.state_count() {
            let game = model.state_model(state, 1.0);
            let space = CompiledSpace::compile(&game)?;
            let size = space.space_size()?;
            if size > MAX_ENUMERATION {
                return Err(model.state_too_large(size));
            }
            let stats = self.exhaustive(&game, &space, MAX_ENUMERATION)?;
            if !stats.found_equilibrium {
                return Err(SolveError::NoStateEquilibrium { state });
            }
            let prob = model.state_prob(state);
            ci.opt_c += prob * stats.opt_p;
            ci.best_eq_c += prob * stats.best_eq_p;
            ci.worst_eq_c += prob * stats.worst_eq_p;
        }
        Ok(ci)
    }

    /// The exhaustive sweep of both measure sides, gated at
    /// `max_profiles` evaluations before any sweeping. The returned
    /// `evaluated` count is the full space size, whatever was swept.
    ///
    /// When the support states share no `(agent, type)` slot
    /// ([`split_states`]), each state's game `G_t` at prior `p(t)` is
    /// swept on its own and the budget gates the sum of those sweeps:
    /// Σ_t |G_t| profiles instead of Π_t |G_t|. Otherwise the whole space
    /// is one sweep. Every sweep runs over the canonical orbit domain when
    /// [`Symmetry::detect`] finds interchangeable agents, over the flat
    /// profile space otherwise.
    fn exhaustive<M: BayesianModel>(
        &self,
        model: &M,
        space: &CompiledSpace<M::Action>,
        max_profiles: u128,
    ) -> Result<SweepStats, SolveError> {
        let full = space.space_size()?;
        let stats = match split_states(model) {
            None => {
                let domain = Domain::detect(model, space)?;
                gate(domain.size, max_profiles)?;
                self.sweep(space, &domain, model.lower(space).as_ref())
            }
            Some(games) => {
                let spaces = games
                    .iter()
                    .map(CompiledSpace::compile)
                    .collect::<Result<Vec<_>, _>>()?;
                let domains = games
                    .iter()
                    .zip(&spaces)
                    .map(|(game, space)| Domain::detect(game, space))
                    .collect::<Result<Vec<_>, _>>()?;
                let required = domains
                    .iter()
                    .fold(0u128, |sum, domain| sum.saturating_add(domain.size));
                gate(required, max_profiles)?;
                // Exact: a state game priced at p(t) computes the whole
                // model's p(t)·K_t terms and interim costs bit for bit, a
                // profile is an equilibrium iff each state's restriction
                // is one, and K(s) folds the p(t)·K_t terms left to right
                // in state order from the empty sum. Rounded addition is
                // monotone in each argument, so folding each state's
                // extremum the same way gives the extremum of the folds.
                let zero: f64 = std::iter::empty::<f64>().sum();
                let mut total = SweepStats {
                    opt_p: zero,
                    best_eq_p: zero,
                    worst_eq_p: zero,
                    found_equilibrium: true,
                    evaluated: 0,
                };
                for ((game, space), domain) in games.iter().zip(&spaces).zip(&domains) {
                    let state = self.sweep(space, domain, game.lower(space).as_ref());
                    if !state.found_equilibrium {
                        total.found_equilibrium = false;
                        break;
                    }
                    total.opt_p += state.opt_p;
                    total.best_eq_p += state.best_eq_p;
                    total.worst_eq_p += state.worst_eq_p;
                }
                total
            }
        };
        Ok(SweepStats {
            evaluated: full,
            ..stats
        })
    }

    /// Sweeps every index of `domain` through kernels of `lowered`.
    ///
    /// Small domains (below [`PARALLEL_SWEEP_MIN_PROFILES`]) or
    /// single-worker configurations sweep sequentially on the calling
    /// thread. Otherwise the index range is cut into blocks; idle workers
    /// claim the next block from a shared atomic counter, re-seeding one
    /// long-lived kernel per block they steal. Per-block results are
    /// merged in block-index order after the join, so the result is
    /// bit-for-bit independent of which worker claimed what.
    ///
    /// When [`Elimination::plan`] finds an agent to eliminate, the indices
    /// are the other agents' profiles instead. If that agent's slots are
    /// not the last ones, the elimination meets the profiles in another
    /// order than the odometer, and a zero extremum's sign depends on
    /// which zero came first (`f64::min` may return either of `±0`), so
    /// such a sweep is redone in full.
    fn sweep<A: Clone + PartialEq + Sync>(
        &self,
        space: &CompiledSpace<A>,
        domain: &Domain,
        lowered: &dyn Lowered,
    ) -> SweepStats {
        lowered.prepare_sweep();
        let full = |kernel: &mut dyn EvalKernel, digits: &mut [u32], start, count| {
            sweep_block(
                space,
                domain.symmetry.as_ref(),
                kernel,
                digits,
                start,
                count,
            )
        };
        let Some(plan) = Elimination::plan(space, domain, lowered) else {
            return self.schedule(space.num_slots(), domain.size, lowered, full);
        };
        let stats = self.schedule(
            space.num_slots(),
            plan.size,
            lowered,
            |kernel, digits, start, count| plan.sweep_block(space, kernel, digits, start, count),
        );
        let zero = [stats.opt_p, stats.best_eq_p, stats.worst_eq_p].contains(&0.0);
        if zero && !plan.in_order {
            return self.schedule(space.num_slots(), domain.size, lowered, full);
        }
        stats
    }

    /// Runs `block` over the index range `[0, size)` on kernels of
    /// `lowered`, each with a digit buffer of `num_slots` digits:
    /// sequentially below [`PARALLEL_SWEEP_MIN_PROFILES`] or on one
    /// worker, on the work-stealing pool otherwise.
    fn schedule(
        &self,
        num_slots: usize,
        size: u128,
        lowered: &dyn Lowered,
        block: impl Fn(&mut dyn EvalKernel, &mut [u32], u128, u128) -> SweepStats + Sync,
    ) -> SweepStats {
        let workers = effective_threads(self.threads, size);
        if workers <= 1 || size < PARALLEL_SWEEP_MIN_PROFILES {
            let mut kernel = lowered.kernel();
            let mut digits = vec![0u32; num_slots];
            return block(kernel.as_mut(), &mut digits, 0, size);
        }
        // Block sizing: enough blocks that an unlucky worker (stalled on
        // a slow block or a busy core) never strands more than ~1/32 of
        // the range, but blocks long enough to amortize the O(slots)
        // block decode + kernel re-seed.
        let block_len = size
            .div_ceil(workers as u128 * STEAL_BLOCKS_PER_WORKER)
            .max(MIN_STEAL_BLOCK);
        let num_blocks =
            u64::try_from(size.div_ceil(block_len)).expect("block count bounded by workers * 32");
        let next_block = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            let (next_block, block) = (&next_block, &block);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut kernel = lowered.kernel();
                        let mut digits = vec![0u32; num_slots];
                        let mut claimed: Vec<(u64, SweepStats)> = Vec::new();
                        loop {
                            let b = next_block.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if b >= num_blocks {
                                break;
                            }
                            let start = u128::from(b) * block_len;
                            let count = block_len.min(size - start);
                            let stats = block(kernel.as_mut(), &mut digits, start, count);
                            claimed.push((b, stats));
                        }
                        claimed
                    })
                })
                .collect();
            let mut blocks: Vec<(u64, SweepStats)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("solver worker panicked"))
                .collect();
            // Deterministic merge: fold in block order, whatever the
            // claim interleaving was.
            blocks.sort_unstable_by_key(|&(b, _)| b);
            blocks
                .into_iter()
                .map(|(_, stats)| stats)
                .fold(SweepStats::new(), SweepStats::merge)
        })
    }

    /// Shared driver of the two dynamics-based backends: evaluate each
    /// start, run best-response dynamics from it, and record any
    /// equilibrium reached. The best-response scans reuse the same
    /// incremental kernel state the sweep uses; if a best response falls
    /// outside the candidate arena (possible only with under-covering
    /// candidate enumerations), the affected run falls back to the
    /// profile-based dynamics — identical trajectories either way.
    fn dynamics<M: BayesianModel>(
        &self,
        model: &M,
        space: &CompiledSpace<M::Action>,
        starts: Starts,
        runs: u64,
        seed: u64,
    ) -> SweepStats {
        let lowered = model.lower(space);
        let mut rng = StdRng::seed_from_u64(seed);
        let max_rounds = usize::try_from(self.budget.max_iterations).unwrap_or(usize::MAX);
        let mut stats = SweepStats::new();
        let mut digits = vec![0u32; space.num_slots()];
        // One kernel for all runs: `seed` fully re-initializes its state,
        // so per-run allocation would be pure waste.
        let mut kernel = lowered.kernel();
        for run in 0..runs {
            if starts == Starts::DeterministicThenRandom && run == 0 {
                digits.fill(0);
            } else {
                space.random_digits(&mut rng, &mut digits);
            }
            let start_digits = digits.clone();
            kernel.seed(&digits);
            // The start only feeds `optP`: if it IS an equilibrium, the
            // dynamics' first sweep finds no improvement and returns it,
            // so it is recorded as one below — checking it here too would
            // double the most expensive step of every run.
            stats.observe(kernel.social_cost(), false);
            match kernel_dynamics(space, kernel.as_mut(), &mut digits, max_rounds) {
                DynamicsOutcome::Equilibrium => {
                    debug_assert!(kernel.is_equilibrium());
                    stats.observe(kernel.social_cost(), true);
                }
                DynamicsOutcome::NoEquilibrium => {}
                DynamicsOutcome::Unrepresentable => {
                    // Rerun this start through the model's own dynamics
                    // (the pre-compiled path): same start, same sweep
                    // order, same tolerances — only the bookkeeping
                    // differs.
                    let start = space.materialize(&start_digits);
                    if let Some(eq) = model.best_response_dynamics(start, max_rounds) {
                        debug_assert!(model.is_equilibrium(&eq));
                        stats.observe(model.social_cost(&eq), true);
                    }
                }
            }
        }
        stats
    }
}

/// Start-profile policy of [`Solver::dynamics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Starts {
    /// First run from the all-first-candidates profile, rest random.
    DeterministicThenRandom,
    /// Every run from a uniformly sampled profile.
    Random,
}

/// Effective worker count: `threads == 0` means one per available core;
/// never more workers than profiles.
fn effective_threads(threads: usize, size: u128) -> usize {
    let configured = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    usize::try_from(size.min(configured as u128)).unwrap_or(configured)
}

/// The support states of `model` as games of their own, `G_t` at prior
/// `p(t)` ([`BayesianModel::state_model`]), when the exhaustive sweep can
/// split on them: there are at least two, every one names its type tuple
/// ([`BayesianModel::state_types`]), and no `(agent, type)` slot appears
/// in two of them — every agent's type reveals the state. `None`
/// otherwise, at the first shared slot.
fn split_states<M: BayesianModel>(model: &M) -> Option<Vec<M>> {
    let states = model.state_count();
    if states < 2 {
        return None;
    }
    let mut slot_base = Vec::with_capacity(model.num_agents());
    let mut slots = 0;
    for agent in 0..model.num_agents() {
        slot_base.push(slots);
        slots += model.type_count(agent);
    }
    let mut seen = vec![false; slots];
    for idx in 0..states {
        for (&base, &tau) in slot_base.iter().zip(model.state_types(idx)?) {
            if std::mem::replace(&mut seen[base + tau], true) {
                return None;
            }
        }
    }
    Some(
        (0..states)
            .map(|idx| model.state_model(idx, model.state_prob(idx)))
            .collect(),
    )
}

/// What one exhaustive sweep enumerates: one canonical profile per orbit
/// of the detected symmetry, or every profile when there is none.
struct Domain {
    symmetry: Option<Symmetry>,
    /// Indices in the domain: the orbit count or the space size.
    size: u128,
    /// The model's support states: the terms of the social-cost fold.
    terms: usize,
}

impl Domain {
    fn detect<M: BayesianModel>(
        model: &M,
        space: &CompiledSpace<M::Action>,
    ) -> Result<Domain, SolveError> {
        let symmetry = Some(Symmetry::detect(model, space)).filter(|sym| !sym.is_trivial());
        let size = match &symmetry {
            None => space.space_size()?,
            Some(sym) => sym.orbit_count()?,
        };
        Ok(Domain {
            symmetry,
            size,
            terms: model.state_count(),
        })
    }
}

/// Largest rounding-gap base [`Elimination`] certifies: below it no
/// partial sum of the social-cost fold or of a group vector can
/// overflow, and neither can the gap tests.
const MAX_GAP_BASE: f64 = f64::MAX / 4.0;

/// How one exhaustive sweep eliminates an agent `n` (see the module
/// docs): the odometer enumerates the other agents' profiles `s₋ₙ`
/// only, and each `s₋ₙ` scans agent `n`'s actions once per type
/// ([`EvalKernel::scan_slot`]).
///
/// # The certificate for `optP`
///
/// With `s₋ₙ` fixed, state `t`'s term `c_t = p(t)·K_t` depends only on
/// agent `n`'s action `a_τ` at its type `τ = t_n` in `t`. In exact
/// arithmetic `K(s) = Σ_t c_t(a_{t_n}) = Σ_τ G*_τ(a_τ)`, where
/// `G*_τ(a) = Σ_{t : t_n = τ} c_t(a)`, so changing `a_τ` alone moves
/// `K` by exactly the change of `G*_τ`. The kernel computes `K(s)` as a
/// left fold over `m` states and `G_τ` as a left fold over `τ`'s states,
/// each of the same operands, so with `u = 2⁻⁵³` and
/// `γ_k = k·u/(1 − k·u)` the standard bound on recursive summation gives
///
/// * `|fl K(s) − K*(s)| ≤ γ_{m−1}·Σ_t |c_t(a_{t_n})| ≤ γ_{m−1}·T`,
/// * `|G_τ(a) − G*_τ(a)| ≤ γ_{m−1}·T`,
///
/// where `T = Σ_t max_a |c_t(a)|` is what the scans return, summed over
/// `n`'s types. (Additions never underflow; `MAX_GAP_BASE` rules out
/// overflow.) So `e = 2·γ_{m−1}·T` bounds the gap between the group sums
/// and the fold on every profile of this `s₋ₙ`. The code takes
/// `e = fl(T·2·m·ε)` (`ε = 2u`) plus one ulp: at least twice that, and
/// rounded up.
///
/// Let `b` minimize `G_τ`, and let `x` have `G_τ(x) − G_τ(b) > 2e`. For
/// any profile `s` playing `x` at `τ`, the profile `s'` playing `b`
/// there instead has `K*(s) − K*(s') = G*_τ(x) − G*_τ(b) > 2e − 2γT ≥
/// 2γT`, so `fl K(s) ≥ K*(s) − γT > K*(s') + γT ≥ fl K(s')`: no profile
/// playing `x` attains the fold's minimum. Keeping, per type, every
/// action within `2e` of the minimum of `G_τ` therefore keeps every
/// minimizer of the fold, which the sweep then evaluates with the fold
/// itself. Generically each type keeps one action. If `e` is not
/// finite (an `∞` or NaN term) every action is kept, which is the full
/// inner sweep.
///
/// # Equilibria
///
/// Agent `n`'s slot verdicts depend on `s₋ₙ` only, so the equilibria
/// over this `s₋ₙ` are `s₋ₙ × Π_τ stable_τ`. The sweep visits the
/// product of the kept and the stable actions in odometer order and
/// checks the other agents' slots only where all of `n`'s are stable;
/// every visited profile's cost is the fold itself, so `best-eqP` and
/// `worst-eqP` are exact by construction.
struct Elimination {
    /// Agent `n`'s slots.
    inner: std::ops::Range<usize>,
    num_slots: usize,
    /// Start of each inner slot's candidates in the scan buffers (one
    /// extra terminal entry).
    base: Vec<usize>,
    /// Outer profiles `s₋ₙ`.
    size: u128,
    /// Whether `inner` holds the last slots, so that the visited
    /// profiles keep the odometer's relative order.
    in_order: bool,
    /// `2·m·ε`: the rounding gap per unit of `T`, before rounding up.
    gap_factor: f64,
}

/// Fewest strategies of an agent worth eliminating. Each outer profile
/// scans the agent's actions once per type and sets up the scan's
/// buffers once per sweep; below this the plain inner loop over the
/// agent's strategies is cheaper (on single-type two-agent matrix
/// games, 3 to 6 actions run slower eliminated and 8 or more faster).
const MIN_ELIMINATED_STRATEGIES: u128 = 8;

impl Elimination {
    /// The plan of a sweep over `domain`, when one applies: the domain is
    /// the flat space (orbit reduction found nothing), `lowered` scans
    /// slots, and some agent has at least [`MIN_ELIMINATED_STRATEGIES`]
    /// strategies. The agent with the most strategies is eliminated; on
    /// a tie, the last of them.
    fn plan<A: Clone + PartialEq>(
        space: &CompiledSpace<A>,
        domain: &Domain,
        lowered: &dyn Lowered,
    ) -> Option<Elimination> {
        if domain.symmetry.is_some() || !lowered.scans_slots() {
            return None;
        }
        let num_slots = space.num_slots();
        let mut best = (0u128, 0..0);
        let mut start = 0;
        while start < num_slots {
            let agent = space.slot(start).0;
            let mut end = start;
            let mut strategies = 1u128;
            while end < num_slots && space.slot(end).0 == agent {
                strategies *= u128::from(space.slot_size(end));
                end += 1;
            }
            if strategies >= best.0 {
                best = (strategies, start..end);
            }
            start = end;
        }
        let (strategies, inner) = best;
        if strategies < MIN_ELIMINATED_STRATEGIES {
            return None;
        }
        let mut base = vec![0];
        for j in inner.clone() {
            base.push(base[base.len() - 1] + space.slot_size(j) as usize);
        }
        Some(Elimination {
            num_slots,
            base,
            size: domain.size / strategies,
            in_order: inner.end == num_slots,
            gap_factor: 2.0 * domain.terms as f64 * f64::EPSILON,
            inner,
        })
    }

    /// The outer odometer's slots: every slot but agent `n`'s, in slot
    /// order.
    fn outer(&self) -> impl DoubleEndedIterator<Item = usize> {
        (0..self.inner.start).chain(self.inner.end..self.num_slots)
    }

    /// Sweeps the outer profiles `[start, start + count)`, odometer
    /// order with the last outer slot fastest, through one kernel seeded
    /// at the first of them.
    fn sweep_block<A: Clone + PartialEq>(
        &self,
        space: &CompiledSpace<A>,
        kernel: &mut dyn EvalKernel,
        digits: &mut [u32],
        start: u128,
        count: u128,
    ) -> SweepStats {
        let mut stats = SweepStats::new();
        if count == 0 {
            return stats;
        }
        let mut idx = start;
        for j in self.outer().rev() {
            let base = u128::from(space.slot_size(j));
            digits[j] = (idx % base) as u32;
            idx /= base;
        }
        digits[self.inner.clone()].fill(0);
        kernel.seed(digits);
        let candidates = self.base[self.inner.len()];
        let mut scan = Scan {
            stable: vec![false; candidates],
            group: vec![0.0; candidates],
            visit: vec![0; candidates],
            cursor: vec![(0, 0); self.inner.len()],
        };
        let mut done = 0u128;
        loop {
            self.scan(space, kernel, &mut scan);
            // The product of the visit lists, last inner slot fastest.
            let Scan {
                stable,
                visit,
                cursor,
                ..
            } = &mut scan;
            for (k, (pos, _)) in cursor.iter_mut().enumerate() {
                *pos = self.base[k];
                set_digit(kernel, digits, self.inner.start + k, visit[*pos]);
            }
            loop {
                let all_stable = (0..cursor.len())
                    .all(|k| stable[self.base[k] + digits[self.inner.start + k] as usize]);
                stats.observe(kernel.social_cost(), all_stable && kernel.is_equilibrium());
                let Some(k) = (0..cursor.len())
                    .rev()
                    .find(|&k| cursor[k].0 + 1 < cursor[k].1)
                else {
                    break;
                };
                cursor[k].0 += 1;
                set_digit(kernel, digits, self.inner.start + k, visit[cursor[k].0]);
                for k in k + 1..cursor.len() {
                    cursor[k].0 = self.base[k];
                    set_digit(kernel, digits, self.inner.start + k, visit[self.base[k]]);
                }
            }
            done += 1;
            if done == count {
                return stats;
            }
            for j in self.outer().rev() {
                let old = digits[j];
                if old + 1 < space.slot_size(j) {
                    digits[j] = old + 1;
                    kernel.advance(j, old, old + 1);
                    break;
                }
                digits[j] = 0;
                if old != 0 {
                    kernel.advance(j, old, 0);
                }
            }
        }
    }

    /// Scans agent `n`'s slots under the current `s₋ₙ` and fills each
    /// slot's visit list: its stable actions and the actions the
    /// certificate keeps, in digit order. A zero-weight slot is in no
    /// state, so it changes no cost and no verdict: it stays at digit 0.
    fn scan<A: Clone + PartialEq>(
        &self,
        space: &CompiledSpace<A>,
        kernel: &mut dyn EvalKernel,
        scan: &mut Scan,
    ) {
        let mut gap_base = 0.0;
        for (k, j) in self.inner.clone().enumerate() {
            let span = self.base[k]..self.base[k + 1];
            if space.weight(j) == 0.0 {
                scan.stable[span].fill(true);
                continue;
            }
            gap_base += kernel.scan_slot(j, &mut scan.stable[span.clone()], &mut scan.group[span]);
        }
        let gap = if gap_base <= MAX_GAP_BASE {
            f64::from_bits((gap_base * self.gap_factor).to_bits() + 1)
        } else {
            f64::INFINITY
        };
        for (k, j) in self.inner.clone().enumerate() {
            let span = self.base[k]..self.base[k + 1];
            let mut end = span.start;
            if space.weight(j) == 0.0 {
                scan.visit[end] = 0;
                end += 1;
            } else {
                let (stable, group) = (&scan.stable[span.clone()], &scan.group[span.clone()]);
                let least = group.iter().fold(f64::INFINITY, |least, &g| least.min(g));
                for a in 0..span.len() {
                    // A finite gap means every term is finite. Dropping
                    // needs `g − least > 2e` in floating point, which
                    // implies it exactly (rounding is monotone and `2e`
                    // is exact), so no action within `2e` is dropped.
                    if stable[a] || gap.is_infinite() || group[a] - least <= 2.0 * gap {
                        scan.visit[end] = a as u32;
                        end += 1;
                    }
                }
            }
            scan.cursor[k] = (span.start, end);
        }
    }
}

/// Per-block buffers of [`Elimination::sweep_block`], each inner slot's
/// candidates at [`Elimination::base`].
struct Scan {
    stable: Vec<bool>,
    group: Vec<f64>,
    /// Per inner slot, the digits to visit, from its base up.
    visit: Vec<u32>,
    /// Per inner slot, the visit position and the end of its list.
    cursor: Vec<(usize, usize)>,
}

/// Moves slot `j`'s digit to `new`, telling the kernel if it changed.
fn set_digit(kernel: &mut dyn EvalKernel, digits: &mut [u32], j: usize, new: u32) {
    let old = std::mem::replace(&mut digits[j], new);
    if old != new {
        kernel.advance(j, old, new);
    }
}

/// The budget check of an exhaustive solve, before anything is swept.
fn gate(required: u128, max_profiles: u128) -> Result<(), SolveError> {
    if required > max_profiles {
        return Err(SolveError::BudgetExceeded {
            required,
            max_profiles,
        });
    }
    Ok(())
}

/// Outcome of one kernel-driven dynamics run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DynamicsOutcome {
    /// The final digits are a pure Bayesian equilibrium (either the
    /// no-change fixed point or the max-rounds profile after an explicit
    /// check).
    Equilibrium,
    /// Max rounds elapsed without reaching an equilibrium.
    NoEquilibrium,
    /// Some best response is not in the candidate arena; the caller must
    /// redo this run with profile-based dynamics.
    Unrepresentable,
}

/// Interim best-response dynamics over the flat digit buffer — the same
/// sweep order, tolerances and termination rules as
/// [`BayesianModel::best_response_dynamics`], with the kernel's
/// incremental state reused across rounds.
fn kernel_dynamics<A: Clone + PartialEq>(
    space: &CompiledSpace<A>,
    kernel: &mut dyn EvalKernel,
    digits: &mut [u32],
    max_rounds: usize,
) -> DynamicsOutcome {
    for _ in 0..max_rounds {
        let mut changed = false;
        for (j, digit) in digits.iter_mut().enumerate() {
            if space.weight(j) == 0.0 {
                continue;
            }
            match kernel.slot_improvement(j) {
                SlotStep::Stable => {}
                SlotStep::Improve(new) => {
                    let old = *digit;
                    *digit = new;
                    kernel.advance(j, old, new);
                    changed = true;
                }
                SlotStep::Unrepresentable => return DynamicsOutcome::Unrepresentable,
            }
        }
        if !changed {
            return DynamicsOutcome::Equilibrium;
        }
    }
    if kernel.is_equilibrium() {
        DynamicsOutcome::Equilibrium
    } else {
        DynamicsOutcome::NoEquilibrium
    }
}

/// Running extrema of one (chunk of a) sweep.
#[derive(Clone, Copy, Debug)]
struct SweepStats {
    opt_p: f64,
    best_eq_p: f64,
    worst_eq_p: f64,
    found_equilibrium: bool,
    evaluated: u128,
}

impl SweepStats {
    fn new() -> Self {
        SweepStats {
            opt_p: f64::INFINITY,
            best_eq_p: f64::INFINITY,
            worst_eq_p: f64::NEG_INFINITY,
            found_equilibrium: false,
            evaluated: 0,
        }
    }

    fn observe(&mut self, social_cost: f64, is_equilibrium: bool) {
        self.evaluated += 1;
        self.opt_p = self.opt_p.min(social_cost);
        if is_equilibrium {
            self.found_equilibrium = true;
            self.best_eq_p = self.best_eq_p.min(social_cost);
            self.worst_eq_p = self.worst_eq_p.max(social_cost);
        }
    }

    fn merge(self, other: SweepStats) -> SweepStats {
        SweepStats {
            opt_p: self.opt_p.min(other.opt_p),
            best_eq_p: self.best_eq_p.min(other.best_eq_p),
            worst_eq_p: self.worst_eq_p.max(other.worst_eq_p),
            found_equilibrium: self.found_equilibrium || other.found_equilibrium,
            evaluated: self.evaluated + other.evaluated,
        }
    }
}

/// Blocks each worker aims to claim over a full sweep: small enough that
/// claim contention is negligible, large enough that a stalled worker
/// strands at most ~1/32 of the range.
const STEAL_BLOCKS_PER_WORKER: u128 = 32;

/// Smallest work-stealing block, in profiles: keeps the per-block decode
/// and kernel re-seed well under 1% of the block's evaluation work.
const MIN_STEAL_BLOCK: u128 = 1024;

/// Evaluates the contiguous index range `[start, start + count)` of the
/// sweep domain — flat profile indices (`symmetry: None`) or canonical
/// orbit ranks (`symmetry: Some`) — through an incremental kernel. The
/// caller owns the kernel and digit buffer (workers reuse them across
/// stolen blocks); the kernel is re-seeded once from the block's starting
/// digits, then delta-updated per tick — no action is cloned anywhere in
/// this loop.
fn sweep_block<A: Clone + PartialEq>(
    space: &CompiledSpace<A>,
    symmetry: Option<&Symmetry>,
    kernel: &mut dyn EvalKernel,
    digits: &mut [u32],
    start: u128,
    count: u128,
) -> SweepStats {
    let mut stats = SweepStats::new();
    if count == 0 {
        return stats;
    }
    match symmetry {
        None => space.decode(start, digits),
        Some(sym) => sym.decode_canonical(start, digits),
    }
    kernel.seed(digits);
    let mut done = 0u128;
    loop {
        stats.observe(kernel.social_cost(), kernel.is_equilibrium());
        done += 1;
        if done == count {
            return stats;
        }
        match symmetry {
            None => {
                // Odometer increment, last slot fastest; only the digits
                // that change are pushed into the kernel (amortized O(1)
                // per tick).
                let mut j = digits.len();
                loop {
                    debug_assert!(j > 0, "odometer overflow before count was reached");
                    j -= 1;
                    let old = digits[j];
                    if old + 1 < space.slot_size(j) {
                        digits[j] = old + 1;
                        kernel.advance(j, old, old + 1);
                        break;
                    }
                    digits[j] = 0;
                    if old != 0 {
                        kernel.advance(j, old, 0);
                    }
                }
            }
            Some(sym) => {
                let more = sym.next_canonical(digits, |j, old, new| kernel.advance(j, old, new));
                debug_assert!(more, "canonical domain exhausted before count was reached");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bayesian::BayesianGame;
    use crate::game::MatrixFormGame;
    use crate::random_games::random_bayesian_potential_game;

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
    fn exhaustive_report_is_exact_and_counts_profiles() {
        let game = coordination_game();
        let report = Solver::default().solve(&game).unwrap();
        assert!(report.exact);
        assert_eq!(report.method, Backend::ExhaustiveEnum);
        assert_eq!(report.profiles_evaluated, 8);
        assert_eq!(report.measures.opt_p, 0.0);
        report.measures.verify_chain().unwrap();
    }

    #[test]
    fn threaded_sweep_matches_single_threaded_bitwise() {
        for seed in 0..4 {
            let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
            let single = Solver::builder().threads(1).build().solve(&game).unwrap();
            let multi = Solver::builder().threads(4).build().solve(&game).unwrap();
            assert_eq!(single.measures, multi.measures, "seed {seed}");
            assert_eq!(single.profiles_evaluated, multi.profiles_evaluated);
        }
    }

    /// One support state, `k` agents with one type each, every agent
    /// paying the same permutation-invariant cost — the whole agent set
    /// is one interchangeability class.
    fn symmetric_congestion_game(k: usize, actions: usize) -> BayesianGame {
        let g = MatrixFormGame::from_fn(k, &vec![actions; k], |_, a| {
            a.iter().map(|&x| (x * x + 1) as f64).sum()
        });
        BayesianGame::new(vec![1; k], vec![(vec![0; k], 1.0, g)]).unwrap()
    }

    /// Seven agents, four actions, one support state, no symmetry: a
    /// 4^7 = 16384-profile space that crosses
    /// [`PARALLEL_SWEEP_MIN_PROFILES`], so multi-thread solves take the
    /// work-stealing path.
    fn large_asymmetric_game() -> BayesianGame {
        // Exact potential structure (separable part + common term), so a
        // pure equilibrium exists; the per-agent parts differ, so no two
        // agents are interchangeable.
        let g = MatrixFormGame::from_fn(7, &[4; 7], |i, a| {
            let own = ((i + 1) * (a[i] * a[i] + 3 * a[i] + 1)) % 13;
            let common = a
                .iter()
                .enumerate()
                .map(|(j, &x)| (x + 1) * (j + 3))
                .sum::<usize>()
                % 17;
            (own + common) as f64
        });
        BayesianGame::new(vec![1; 7], vec![(vec![0; 7], 1.0, g)]).unwrap()
    }

    /// `(optP, best-eqP, worst-eqP)` by brute force over every profile
    /// through the trait methods: the unreduced oracle of the sweep.
    fn brute_force_partial(game: &BayesianGame) -> (f64, f64, f64) {
        let mut stats = SweepStats::new();
        for profile in game.strategies().unwrap() {
            stats.observe(
                BayesianModel::social_cost(game, &profile),
                game.is_equilibrium(&profile),
            );
        }
        (stats.opt_p, stats.best_eq_p, stats.worst_eq_p)
    }

    fn partial(report: &SolveReport) -> (f64, f64, f64) {
        let m = report.measures;
        (m.opt_p, m.best_eq_p, m.worst_eq_p)
    }

    fn symmetry_of(game: &BayesianGame) -> Symmetry {
        Symmetry::detect(game, &CompiledSpace::compile(game).unwrap())
    }

    #[test]
    fn orbit_sweep_matches_full_sweep_and_reports_stats() {
        let game = symmetric_congestion_game(3, 2);
        let report = Solver::default().solve(&game).unwrap();
        assert_eq!(partial(&report), brute_force_partial(&game));
        // The report covers the full space, as an unreduced sweep's did.
        assert_eq!(report.profiles_evaluated, 8);
        // 3 interchangeable binary agents: multichoose(2, 3) = 4 orbits.
        let sym = symmetry_of(&game);
        assert_eq!(sym.classes(), &[vec![0, 1, 2]]);
        assert_eq!(sym.orbit_count().unwrap(), 4);
        assert_eq!(sym.group_order_saturating(), 6);
    }

    #[test]
    fn auto_symmetry_on_an_asymmetric_game_reports_no_orbit() {
        let game = coordination_game();
        assert!(symmetry_of(&game).is_trivial());
        let report = Solver::default().solve(&game).unwrap();
        assert_eq!(report.profiles_evaluated, 8);
        assert_eq!(partial(&report), brute_force_partial(&game));
    }

    #[test]
    fn budget_gates_on_the_orbit_count_under_auto_symmetry() {
        let game = symmetric_congestion_game(3, 2);
        // 8 profiles but only 4 orbits: a 4-orbit budget exactly fits the
        // reduced sweep, a 3-orbit one does not.
        let report = Solver::builder()
            .max_profiles(4)
            .build()
            .solve(&game)
            .unwrap();
        assert_eq!(report.profiles_evaluated, 8);
        let err = Solver::builder()
            .max_profiles(3)
            .build()
            .solve(&game)
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::BudgetExceeded { required: 4, .. }
        ));
    }

    #[test]
    fn dense_symmetric_game_sweeps_its_orbits() {
        // The BENCH_solver.json `symmetric-matrix` shape: 14
        // interchangeable binary agents over one dense 2^14-entry state.
        // multichoose(2, 14) = 15 orbits, so a 15-profile budget admits
        // the solve only if the reduced sweep ran.
        let game = symmetric_congestion_game(14, 2);
        assert_eq!(symmetry_of(&game).orbit_count().unwrap(), 15);
        let report = Solver::builder()
            .max_profiles(15)
            .build()
            .solve(&game)
            .unwrap();
        assert_eq!(report.profiles_evaluated, 1 << 14);
        assert_eq!(partial(&report), brute_force_partial(&game));
        assert_eq!(report, Solver::default().solve(&game).unwrap());
    }

    #[test]
    fn work_stealing_sweep_is_deterministic_across_thread_counts() {
        use crate::model::BayesianModel as _;
        let game = large_asymmetric_game();
        assert!(game.strategy_space_size().unwrap() >= PARALLEL_SWEEP_MIN_PROFILES);
        let baseline = Solver::builder().threads(1).build().solve(&game).unwrap();
        for threads in [2, 4, 8] {
            let report = Solver::builder()
                .threads(threads)
                .build()
                .solve(&game)
                .unwrap();
            assert_eq!(report, baseline, "threads {threads}");
        }
    }

    /// The agent [`Elimination::plan`] picks for `game`, if any.
    fn eliminated_agent(game: &BayesianGame) -> Option<usize> {
        let space = CompiledSpace::compile(game).unwrap();
        let domain = Domain::detect(game, &space).unwrap();
        let lowered = game.lower(&space);
        let plan = Elimination::plan(&space, &domain, lowered.as_ref())?;
        assert_eq!(plan.size * strategies(&space, &plan.inner), domain.size);
        Some(space.slot(plan.inner.start).0)
    }

    fn strategies(space: &CompiledSpace<usize>, slots: &std::ops::Range<usize>) -> u128 {
        slots
            .clone()
            .map(|j| u128::from(space.slot_size(j)))
            .product()
    }

    #[test]
    fn elimination_picks_the_agent_with_the_most_strategies() {
        // Agent 0 has 3^2 = 9 strategies, agent 1 has 8: agent 0 goes,
        // though it is not last.
        let (game, _) = random_bayesian_potential_game(&[2, 1], &[3, 8], 2, 5);
        assert_eq!(eliminated_agent(&game), Some(0));
        // A tie goes to the last agent.
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], 4, 5);
        assert_eq!(eliminated_agent(&game), Some(1));
        // Under the floor, and with interchangeable agents, the sweep
        // enumerates every profile (or orbit).
        let (game, _) = random_bayesian_potential_game(&[1, 1], &[4, 4], 1, 5);
        assert_eq!(eliminated_agent(&game), None);
        assert_eq!(eliminated_agent(&symmetric_congestion_game(2, 9)), None);
    }

    #[test]
    fn eliminated_sweep_is_deterministic_across_thread_counts() {
        // Three agents of 144 strategies: 20,736 outer profiles, past
        // PARALLEL_SWEEP_MIN_PROFILES, so multi-thread solves steal
        // blocks of outer profiles.
        let (game, _) = random_bayesian_potential_game(&[2, 2, 2], &[12, 12, 12], 5, 3);
        assert_eq!(eliminated_agent(&game), Some(2));
        let baseline = Solver::builder().threads(1).build().solve(&game).unwrap();
        let report = Solver::builder().threads(4).build().solve(&game).unwrap();
        assert_eq!(report, baseline);
        assert_eq!(report.profiles_evaluated, 144u128.pow(3));
    }

    #[test]
    fn budget_gates_exhaustive_enumeration() {
        let game = coordination_game();
        let err = Solver::builder()
            .max_profiles(4)
            .build()
            .solve(&game)
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::BudgetExceeded {
                required: 8,
                max_profiles: 4
            }
        ));
    }

    #[test]
    fn monte_carlo_caps_samples_at_the_profile_budget() {
        let game = coordination_game();
        let report = Solver::builder()
            .backend(Backend::MonteCarloSampling {
                samples: 32,
                seed: 3,
            })
            .max_profiles(4)
            .build()
            .solve(&game)
            .unwrap();
        // Never errors on budget, but the truncation is visible: 4 starts,
        // each evaluated once plus its dynamics endpoint.
        assert!(!report.exact);
        assert_eq!(report.sample_cap, Some(4));
        assert!(report.profiles_evaluated <= 8);
        report.measures.verify_chain().unwrap();
    }

    #[test]
    fn monte_carlo_zero_budget_still_runs_one_start() {
        let game = coordination_game();
        let report = Solver::builder()
            .backend(Backend::MonteCarloSampling {
                samples: 32,
                seed: 3,
            })
            .max_profiles(0)
            .build()
            .solve(&game)
            .unwrap();
        // Not a spurious NoEquilibrium: one start runs and its dynamics
        // find a genuine equilibrium.
        assert_eq!(report.sample_cap, Some(1));
        report.measures.verify_chain().unwrap();
    }

    #[test]
    fn monte_carlo_within_budget_reports_no_cap() {
        let game = coordination_game();
        let report = Solver::builder()
            .backend(Backend::MonteCarloSampling {
                samples: 8,
                seed: 3,
            })
            .build()
            .solve(&game)
            .unwrap();
        assert_eq!(report.sample_cap, None);
        let exhaustive = Solver::default().solve(&game).unwrap();
        assert_eq!(exhaustive.sample_cap, None);
    }

    #[test]
    fn solver_config_round_trips() {
        let config = SolverConfig {
            backend: Backend::MonteCarloSampling {
                samples: 16,
                seed: 9,
            },
            budget: Budget {
                max_profiles: 1000,
                max_iterations: 32,
            },
            threads: 3,
        };
        let solver = Solver::from_config(config);
        assert_eq!(solver.config(), config);
        assert_eq!(Solver::from(config).config(), config);
        assert_eq!(SolverConfig::default(), Solver::default().config());
        assert_eq!(solver.threads(), 3);
    }

    #[test]
    fn sampling_backends_bracket_the_exact_measures() {
        for seed in 0..4 {
            let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed);
            let exact = Solver::default().solve(&game).unwrap().measures;
            for backend in [
                Backend::BestResponseDynamics {
                    restarts: 8,
                    seed: 11,
                },
                Backend::MonteCarloSampling {
                    samples: 64,
                    seed: 11,
                },
            ] {
                let approx = Solver::builder()
                    .backend(backend)
                    .build()
                    .solve(&game)
                    .unwrap()
                    .measures;
                assert!(exact.opt_p <= approx.opt_p + 1e-12, "seed {seed}");
                assert!(exact.best_eq_p <= approx.best_eq_p + 1e-12, "seed {seed}");
                assert!(approx.worst_eq_p <= exact.worst_eq_p + 1e-12, "seed {seed}");
            }
        }
    }

    #[test]
    fn dynamics_backends_are_deterministic_per_seed() {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, 9);
        let backend = Backend::MonteCarloSampling {
            samples: 32,
            seed: 5,
        };
        let a = Solver::builder().backend(backend).build().solve(&game);
        let b = Solver::builder().backend(backend).build().solve(&game);
        assert_eq!(a.unwrap().measures, b.unwrap().measures);
    }

    /// 129 one-type agents with 2 candidate actions each: the candidate
    /// product is `2^129 > u128::MAX`. Interim cost equals the played
    /// action, so the all-zeros profile is the unique equilibrium and
    /// best-response dynamics reach it from anywhere in one sweep.
    ///
    /// `dominated` says whether the strictly dominated action 1 is a
    /// candidate. The one support state's game leaves it out: the
    /// optimum and every equilibrium lie on `{0}`, so that is exact by
    /// the candidate contract, and the complete-information side stays
    /// enumerable.
    struct HugeSpaceModel {
        dominated: bool,
    }

    impl BayesianModel for HugeSpaceModel {
        type Action = usize;

        fn num_agents(&self) -> usize {
            129
        }

        fn type_count(&self, _agent: usize) -> usize {
            1
        }

        fn type_weight(&self, _agent: usize, _tau: usize) -> f64 {
            1.0
        }

        fn candidate_actions(&self, _agent: usize, _tau: usize) -> Result<Vec<usize>, SolveError> {
            Ok(if self.dominated { vec![0, 1] } else { vec![0] })
        }

        fn social_cost(&self, profile: &Vec<Vec<usize>>) -> f64 {
            profile.iter().flatten().map(|&a| a as f64).sum()
        }

        fn interim_cost(
            &self,
            _agent: usize,
            _tau: usize,
            action: &usize,
            _profile: &Vec<Vec<usize>>,
        ) -> f64 {
            *action as f64
        }

        fn best_response(
            &self,
            _agent: usize,
            _tau: usize,
            _profile: &Vec<Vec<usize>>,
        ) -> (usize, f64) {
            (0, 0.0)
        }

        fn state_count(&self) -> usize {
            1
        }

        fn state_prob(&self, _idx: usize) -> f64 {
            1.0
        }

        fn state_model(&self, _idx: usize, _prob: f64) -> Self {
            HugeSpaceModel { dominated: false }
        }
    }

    #[test]
    fn space_overflow_errors_only_under_the_exhaustive_backend() {
        let model = HugeSpaceModel { dominated: true };
        assert!(matches!(
            BayesianModel::strategy_space_size(&model),
            Err(SolveError::SpaceTooLarge)
        ));
        let err = Solver::default().solve(&model).unwrap_err();
        assert!(matches!(err, SolveError::SpaceTooLarge));

        // The sampling backends never size the space: they must solve it.
        let report = Solver::builder()
            .backend(Backend::MonteCarloSampling {
                samples: 8,
                seed: 1,
            })
            .build()
            .solve(&model)
            .unwrap();
        assert!(!report.exact);
        assert_eq!(report.measures.opt_p, 0.0);
        assert_eq!(report.measures.best_eq_p, 0.0);
        assert_eq!(report.measures.worst_eq_p, 0.0);
        // The state game's one-candidate space is swept exactly.
        assert_eq!(report.measures.opt_c, 0.0);
        assert_eq!(report.measures.best_eq_c, 0.0);
        assert_eq!(report.measures.worst_eq_c, 0.0);
    }

    /// Binary agents whose costs are exact integer counts (so every
    /// permutation of agents with the same types is bitwise
    /// cost-preserving). Playing action 1 costs 1, so the all-zeros
    /// profile is optimal and the unique equilibrium. A state game keeps
    /// at most 4 agents, so a one-state model of many agents still has an
    /// enumerable complete-information side. Every `social_cost` call is
    /// counted, the state games' calls included.
    struct CountingModel {
        agents: usize,
        /// Each support state's type tuple.
        states: Vec<Vec<usize>>,
        calls: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl CountingModel {
        /// `agents` interchangeable one-type agents in one state.
        fn new(agents: usize) -> Self {
            CountingModel {
                agents,
                states: vec![vec![0; agents]],
                calls: Default::default(),
            }
        }

        /// `states` support states, every agent at type `t` in state `t`
        /// (a diagonal support); with `shared`, agent 0 is at type 0 in
        /// state 1 too, so that slot appears in two states and agent 0's
        /// type 1 in none.
        fn diagonal(agents: usize, states: usize, shared: bool) -> Self {
            let mut types: Vec<Vec<usize>> = (0..states).map(|t| vec![t; agents]).collect();
            if shared {
                types[1][0] = 0;
            }
            CountingModel {
                agents,
                states: types,
                calls: Default::default(),
            }
        }

        fn calls(&self) -> u64 {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl BayesianModel for CountingModel {
        type Action = usize;

        fn num_agents(&self) -> usize {
            self.agents
        }

        fn type_count(&self, agent: usize) -> usize {
            self.states
                .iter()
                .map(|types| types[agent] + 1)
                .max()
                .unwrap()
        }

        fn type_weight(&self, agent: usize, tau: usize) -> f64 {
            let states = self.states.iter().filter(|types| types[agent] == tau);
            states.count() as f64
        }

        fn candidate_actions(&self, agent: usize, tau: usize) -> Result<Vec<usize>, SolveError> {
            Ok(if self.type_weight(agent, tau) > 0.0 {
                vec![0, 1]
            } else {
                vec![0]
            })
        }

        fn social_cost(&self, profile: &Vec<Vec<usize>>) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.states
                .iter()
                .flat_map(|types| profile.iter().zip(types).map(|(s, &t)| s[t] as f64))
                .sum()
        }

        fn interim_cost(
            &self,
            _agent: usize,
            _tau: usize,
            action: &usize,
            _profile: &Vec<Vec<usize>>,
        ) -> f64 {
            *action as f64
        }

        fn best_response(
            &self,
            _agent: usize,
            _tau: usize,
            _profile: &Vec<Vec<usize>>,
        ) -> (usize, f64) {
            (0, 0.0)
        }

        fn state_count(&self) -> usize {
            self.states.len()
        }

        fn state_prob(&self, _idx: usize) -> f64 {
            1.0 / self.states.len() as f64
        }

        fn state_types(&self, idx: usize) -> Option<&[usize]> {
            Some(&self.states[idx])
        }

        fn state_model(&self, _idx: usize, _prob: f64) -> Self {
            CountingModel {
                calls: std::sync::Arc::clone(&self.calls),
                ..CountingModel::new(self.agents.min(4))
            }
        }

        fn agents_interchangeable(&self, a: usize, b: usize) -> bool {
            self.states.iter().all(|types| types[a] == types[b])
        }
    }

    #[test]
    fn diagonal_support_sweeps_each_state_alone() {
        // Two interchangeable binary agents in four states: 2^8 = 256
        // profiles, but each state game has multichoose(2, 2) = 3 orbits,
        // so the split sweep evaluates 4 · 3 = 12 profiles.
        let diagonal = CountingModel::diagonal(2, 4, false);
        // One shared slot makes the whole model one sweep. The agents
        // are no longer interchangeable and agent 0's type 1 is in no
        // state (one candidate): 2^3 · 2^4 = 128 profiles, all evaluated.
        let shared = CountingModel::diagonal(2, 4, true);
        for (model, full, evaluated) in [(&diagonal, 256, 12), (&shared, 128, 128)] {
            let space = CompiledSpace::compile(model).unwrap();
            let stats = Solver::default()
                .exhaustive(model, &space, evaluated)
                .unwrap();
            assert_eq!(model.calls(), evaluated as u64);
            assert_eq!(stats.evaluated, full);
            assert!(stats.found_equilibrium);
            assert_eq!((stats.opt_p, stats.worst_eq_p), (0.0, 0.0));
            let err = Solver::default()
                .exhaustive(model, &space, evaluated - 1)
                .unwrap_err();
            assert!(matches!(
                err,
                SolveError::BudgetExceeded { required, .. } if required == evaluated
            ));
        }
    }

    #[test]
    fn symmetric_spaces_past_the_enumeration_limit_solve_by_orbits() {
        // 2^30 profiles, far past MAX_ENUMERATION, but only 31 orbits:
        // the budget gates the sweep it runs, over the orbits.
        let model = CountingModel::new(30);
        assert!(BayesianModel::strategy_space_size(&model).unwrap() > MAX_ENUMERATION);
        let report = Solver::default().solve(&model).unwrap();
        assert_eq!(report.profiles_evaluated, 1 << 30);
        assert_eq!(report.measures.opt_p, 0.0);
        assert_eq!(report.measures.worst_eq_p, 0.0);
        assert_eq!(report.measures.opt_c, 0.0);
        assert_eq!(report.measures.worst_eq_c, 0.0);
        // A 30-orbit budget is one short of the partial side's 31.
        let err = Solver::builder()
            .max_profiles(30)
            .build()
            .solve(&model)
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::BudgetExceeded { required: 31, .. }
        ));
    }

    #[test]
    fn errors_format_and_chain() {
        let e = SolveError::BudgetExceeded {
            required: 10,
            max_profiles: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.source().is_none());
        let inner = crate::game::EnumerationError { required: 7 };
        let wrapped = SolveError::Model(Box::new(inner));
        assert!(wrapped.source().is_some());
    }
}
