//! Experiment drivers for the `table1` binary, and the unreduced and
//! kernel-free oracles of the parity suites and `bench_solver_sweep`.
//!
//! Each driver regenerates the measured analogue of one Table 1 cell
//! (or Section 4 claim) of *Bayesian ignorance* and returns the series
//! of `(size, value)` points so callers can print or fit them.
//! `EXPERIMENTS.md` records the outputs against the paper's bounds; the
//! paper's inequalities themselves are asserted by the tier-1 tests
//! (`tests/paper_claims.rs` and this crate's unit tests).

mod baseline;
mod unreduced;

pub use baseline::{baseline_sweep, BaselineStats};
pub use unreduced::Unreduced;

use bi_constructions::affine_game::AffinePlaneGame;
use bi_constructions::diamond_game::DiamondGame;
use bi_constructions::frt_strategy::{self, FrtRouting};
use bi_constructions::gworst::{GWorstGame, GWorstVariant};
use bi_constructions::pos_game::GkGame;
use bi_constructions::universal::{lemma_3_1_check, random_bayesian_ncs};
use bi_core::randomness::CostTuple;
use bi_core::solve::{Backend, SolveReport, Solver};
use bi_graph::{Direction, NodeId};

/// One measured point of an experiment series.
#[derive(Clone, Debug)]
pub struct Point {
    /// The instance-size parameter (k, n, or depth as documented per
    /// experiment).
    pub size: f64,
    /// The measured ratio/value.
    pub value: f64,
}

/// E2/E4 — Lemma 3.2 (directed `Ω(k)` existential): the affine-plane game
/// ratio `optP/worst-eqC` per prime-power order. For small orders the
/// strategy-invariance is verified exactly; the series reports the exact
/// analytic ratio (which equals the measured one for every profile).
///
/// # Panics
///
/// Panics if an order is not a supported prime power.
#[must_use]
pub fn affine_series(orders: &[u64]) -> Vec<Point> {
    orders
        .iter()
        .map(|&m| {
            let game = AffinePlaneGame::new(m).expect("prime-power order");
            // Cross-check the analytic value on a concrete profile.
            let measured = game
                .expected_social_cost(&game.first_line_strategies())
                .expect("valid strategies");
            assert!((measured - game.analytic_opt_p()).abs() < 1e-9);
            Point {
                size: game.num_agents() as f64,
                value: game.analytic_ratio(),
            }
        })
        .collect()
}

/// E5/E13 — Lemma 3.3 / Remark 1 (directed `O(1/log k)` existential):
/// the `G_k` bliss ratio `worst-eqP/best-eqC`, exact for `k ≤ exact_max`,
/// analytic beyond.
#[must_use]
pub fn gk_series(ks: &[usize], exact_max: usize) -> Vec<Point> {
    ks.iter()
        .map(|&k| {
            let game = GkGame::new(k).expect("valid k");
            let value = if k <= exact_max {
                let m = game.exact_measures().expect("small instance");
                m.worst_eq_p / m.best_eq_c
            } else {
                game.analytic_bliss_ratio()
            };
            Point {
                size: k as f64,
                value,
            }
        })
        .collect()
}

/// E6/E11/E12 — Lemmas 3.6/3.7 (undirected `Ω(k)` / `O(1/k)` existential
/// on `O(1)` vertices): the `G_worst` ratio `worst-eqP/worst-eqC`, exact
/// for `k ≤ exact_max`, analytic beyond.
#[must_use]
pub fn gworst_series(ks: &[usize], variant: GWorstVariant, exact_max: usize) -> Vec<Point> {
    ks.iter()
        .map(|&k| {
            let game = GWorstGame::new(k, variant).expect("valid k");
            let value = if k <= exact_max {
                let m = game.exact_measures().expect("small instance");
                m.worst_eq_p / m.worst_eq_c
            } else {
                game.analytic_ratio()
            };
            Point {
                size: k as f64,
                value,
            }
        })
        .collect()
}

/// E7 — Lemma 3.4 (undirected `O(log n)` universal): FRT strategy cost
/// over `optC` on `side×side` grids with random shared-source priors.
#[must_use]
pub fn frt_series(sides: &[usize], seed: u64) -> Vec<Point> {
    sides
        .iter()
        .map(|&side| {
            let graph = bi_graph::generators::grid_graph(side, side, 1.0);
            let routing = FrtRouting::build(&graph, 8, seed).expect("grid metric");
            let root = NodeId::new(0);
            let states = frt_strategy::random_terminal_states(&graph, root, 6, 4, seed + 1);
            let m = frt_strategy::measure_shared_source(&graph, &routing, root, &states);
            Point {
                size: (side * side) as f64,
                value: m.ratio(),
            }
        })
        .collect()
}

/// E8/E10 — Lemma 3.5 (undirected `Ω(log n)` existential): the diamond
/// game. Depth-wise series of `E[greedy]/optC` (the online benchmark) and,
/// where enumerable, the locally-optimal path-system cost (an upper bound
/// on `optP` exhibiting the same growth). Sizes are vertex counts.
#[must_use]
pub fn diamond_series(depths: &[u32], samples: u32, seed: u64) -> Vec<Point> {
    depths
        .iter()
        .map(|&j| {
            let game = DiamondGame::new(j);
            let n = game.diamond().graph().node_count() as f64;
            let greedy = game.expected_greedy_cost(samples, seed);
            Point {
                size: n,
                value: greedy / game.analytic_opt_c(),
            }
        })
        .collect()
}

/// E8 (exact flank): exact `optP/optC` for depth 1 and a certified
/// path-system upper bound for depth 2, confirming growth beyond the
/// depth-1 exact value.
#[must_use]
pub fn diamond_exact_points() -> Vec<Point> {
    let g1 = DiamondGame::new(1);
    let m1 = g1.exact_measures().expect("depth-1 enumerable");
    let g2 = DiamondGame::new(2);
    let (c2, _) = g2.optimize_path_system(3, 7);
    vec![
        Point {
            size: g1.diamond().graph().node_count() as f64,
            value: m1.opt_p / m1.opt_c,
        },
        Point {
            size: g2.diamond().graph().node_count() as f64,
            value: c2 / g2.analytic_opt_c(),
        },
    ]
}

/// E1/E3 — universal bounds on random games: returns the maximum observed
/// `worst-eqP/(k·optC)` over a seeded sweep (must be ≤ 1 by Lemma 3.1)
/// and the maximum `optP/optC` normalized slack.
#[must_use]
pub fn universal_sweep(direction: Direction, trials: u64) -> (f64, f64) {
    let mut max_lemma31 = 0.0f64;
    let mut max_chain_violation = 0.0f64;
    for seed in 0..trials {
        let game = random_bayesian_ncs(direction, 5, 0.3, 2, 2, seed).expect("valid game");
        let check = lemma_3_1_check(&game).expect("solvable");
        max_lemma31 = max_lemma31.max(check.worst_eq_p / check.bound);
        let m = game.measures().expect("solvable");
        max_chain_violation = max_chain_violation.max(m.opt_c - m.opt_p);
    }
    (max_lemma31, max_chain_violation)
}

/// E17 — the unified solver's backends on one seeded random Bayesian NCS
/// game (2 agents × 2 types on a 5-vertex directed network): exact
/// exhaustive sweeps (single- and multi-threaded), best-response-dynamics
/// restarts, and Monte Carlo sampling. Returns
/// `(label, report, wall-clock seconds)` rows; the exact rows must agree
/// bit-for-bit and the sampled rows must bracket them (recorded in
/// `EXPERIMENTS.md`).
///
/// # Panics
///
/// Panics if the seeded instance is unsolvable (it is not).
#[must_use]
pub fn backend_comparison(seed: u64) -> Vec<(String, SolveReport, f64)> {
    let game = random_bayesian_ncs(Direction::Directed, 5, 0.35, 2, 2, seed).expect("valid game");
    let configs: Vec<(&str, Solver)> = vec![
        ("exhaustive/1-thread", Solver::builder().build()),
        ("exhaustive/4-threads", Solver::builder().threads(4).build()),
        (
            "best-response/16-restarts",
            Solver::builder()
                .backend(Backend::BestResponseDynamics { restarts: 16, seed })
                .build(),
        ),
        (
            "monte-carlo/256-samples",
            Solver::builder()
                .backend(Backend::MonteCarloSampling { samples: 256, seed })
                .build(),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, solver)| {
            let t0 = std::time::Instant::now();
            let report = solver.solve(&game).expect("solvable");
            (label.to_string(), report, t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// E16 — Section 4: builds the `G_k` cost tuple, solves for `R̃(φ)` and
/// the public-randomness distribution `q`, computes `R(φ)` independently
/// by bisection, and returns `(r_tilde, r_star, worst_guarantee_gap)`
/// where the gap is `max over sampled priors of (lhs − R̃)` (must be
/// ≤ 0 up to tolerance).
///
/// # Panics
///
/// Panics if the instance is too large to tabulate.
#[must_use]
pub fn section4_measurements(k: usize, prior_samples: u32, seed: u64) -> (f64, f64, f64) {
    use rand::Rng;
    let gk = GkGame::new(k).expect("valid k");
    // Convert the NCS game into the enumerable core representation via its
    // cost tuple: tabulate over strategy profiles and support states.
    let tuple = cost_tuple_of_gk(&gk);
    let sol = tuple.solve().expect("LP solvable");
    let r_star = tuple.r_star(1e-7).expect("bisection converges");
    let mut rng = bi_util::rng::seeded(seed);
    let mut worst_gap = f64::NEG_INFINITY;
    for _ in 0..prior_samples {
        let raw: Vec<f64> = (0..tuple.num_states())
            .map(|_| rng.random_range(0.01..1.0))
            .collect();
        let total: f64 = raw.iter().sum();
        let prior: Vec<f64> = raw.into_iter().map(|p| p / total).collect();
        let lhs = tuple.guarantee(&sol.distribution, &prior);
        worst_gap = worst_gap.max(lhs - sol.r_tilde);
    }
    (sol.r_tilde, r_star, worst_gap)
}

/// Tabulates the `G_k` game's Section 4 cost tuple by enumerating its
/// strategy profiles against its support states.
fn cost_tuple_of_gk(gk: &GkGame) -> CostTuple {
    // Reuse the generic core machinery by building a matrix directly: the
    // CostTuple API accepts a BayesianGame; construct an equivalent one.
    // G_k strategy sets are tiny: each deterministic agent picks direct or
    // hub; agent k is forced. Tabulate social costs per (profile, state).
    let game = gk.game();
    let sets = game.strategy_sets().expect("small sets");
    let slot_sizes: Vec<usize> = sets.iter().flatten().map(Vec::len).collect();
    let mut slots = Vec::new();
    for (i, types) in game.agent_types().iter().enumerate() {
        for tau in 0..types.len() {
            slots.push((i, tau));
        }
    }
    let mut k_matrix: Vec<Vec<f64>> = Vec::new();
    for assignment in bi_core::game::ProfileIter::new(slot_sizes) {
        let mut s: Vec<Vec<bi_ncs::Path>> = game
            .agent_types()
            .iter()
            .map(|types| vec![bi_ncs::Path::new(); types.len()])
            .collect();
        for (&(i, tau), &choice) in slots.iter().zip(&assignment) {
            s[i][tau] = sets[i][tau][choice].clone();
        }
        let row: Vec<f64> = (0..game.support().len())
            .map(|idx| {
                let underlying = game.underlying_game(idx);
                let profile: Vec<bi_ncs::Path> = game.support()[idx]
                    .0
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let tau = game.agent_types()[i]
                            .iter()
                            .position(|u| u == t)
                            .expect("type in support");
                        s[i][tau].clone()
                    })
                    .collect();
                underlying.social_cost(&profile).max(1e-6)
            })
            .collect();
        k_matrix.push(row);
    }
    CostTuple::from_matrix(k_matrix).expect("positive costs")
}

/// Fits the growth exponent of a series on a log–log scale.
///
/// # Panics
///
/// Panics if the series has fewer than two points or non-positive values.
#[must_use]
pub fn growth_exponent(series: &[Point]) -> f64 {
    let xs: Vec<f64> = series.iter().map(|p| p.size).collect();
    let ys: Vec<f64> = series.iter().map(|p| p.value).collect();
    bi_util::log_log_slope(&xs, &ys)
}

/// Fits a `value ≈ a + b·ln(size)` model and returns `b` (positive for
/// logarithmic growth).
///
/// # Panics
///
/// Panics if the series has fewer than two points.
#[must_use]
pub fn log_fit_slope(series: &[Point]) -> f64 {
    let xs: Vec<f64> = series.iter().map(|p| p.size.ln()).collect();
    let ys: Vec<f64> = series.iter().map(|p| p.value).collect();
    bi_util::linear_fit(&xs, &ys).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_series_grows_linearly() {
        let series = affine_series(&[2, 3, 4, 5]);
        let alpha = growth_exponent(&series);
        assert!((alpha - 1.0).abs() < 0.3, "alpha {alpha}");
    }

    #[test]
    fn gk_series_decays() {
        // Within each regime the ratio is decreasing; across the
        // exact→analytic switch it may tick up because the analytic
        // denominator H(k−1)/2 is only a lower bound on best-eqC.
        let analytic = gk_series(&[4, 6, 8, 12, 24], 0);
        assert!(analytic.windows(2).all(|w| w[1].value < w[0].value));
        let exact = gk_series(&[4, 6, 8], 8);
        assert!(exact.windows(2).all(|w| w[1].value < w[0].value));
    }

    #[test]
    fn gworst_series_shapes() {
        let up = gworst_series(&[4, 6, 8], GWorstVariant::InvK, 6);
        assert!(growth_exponent(&up) > 0.5);
        let down = gworst_series(&[4, 6, 8], GWorstVariant::Half, 6);
        assert!(growth_exponent(&down) < -0.5);
    }

    #[test]
    fn universal_sweep_respects_lemma_3_1() {
        for direction in [Direction::Directed, Direction::Undirected] {
            let (max31, chain) = universal_sweep(direction, 10);
            assert!(max31 <= 1.0 + 1e-9, "{direction:?}: {max31}");
            assert!(chain <= 1e-9, "{direction:?}: {chain}");
        }
    }

    #[test]
    fn section4_prop_4_2_and_lemma_4_1() {
        let (r_tilde, r_star, gap) = section4_measurements(4, 50, 3);
        assert!((r_tilde - r_star).abs() < 1e-4, "{r_tilde} vs {r_star}");
        assert!(gap <= 1e-7, "guarantee violated by {gap}");
        assert!(r_tilde >= 1.0 - 1e-9);
    }

    #[test]
    fn diamond_exact_points_grow() {
        let pts = diamond_exact_points();
        assert!(pts[1].value > pts[0].value);
    }

    #[test]
    fn backend_comparison_rows_are_consistent() {
        let rows = backend_comparison(11);
        assert_eq!(rows.len(), 4);
        let exact = rows[0].1.measures;
        // The two exhaustive rows agree bit-for-bit; sampled rows bracket.
        assert_eq!(exact, rows[1].1.measures);
        for (label, report, _) in &rows[2..] {
            assert!(!report.exact, "{label}");
            assert!(exact.opt_p <= report.measures.opt_p + 1e-12, "{label}");
            assert!(
                report.measures.worst_eq_p <= exact.worst_eq_p + 1e-12,
                "{label}"
            );
        }
    }
}
