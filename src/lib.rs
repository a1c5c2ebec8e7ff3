//! # bayesian-ignorance
//!
//! A comprehensive Rust reproduction of **"Bayesian ignorance"** by Noga
//! Alon, Yuval Emek, Michal Feldman and Moshe Tennenholtz (PODC 2010;
//! journal version in *Theoretical Computer Science* 452 (2012) 1–11).
//!
//! The paper quantifies the effect of agents having only *local views* in a
//! Bayesian game by comparing the social cost achievable under partial
//! information against the expected social cost under complete information,
//! for benevolent agents (`optP/optC`) and for selfish agents at best and
//! worst equilibria (`best-eqP/best-eqC`, `worst-eqP/worst-eqC`). Most of
//! its results concern Bayesian **network cost-sharing (NCS) games**.
//!
//! This facade crate re-exports the entire workspace:
//!
//! * [`core`] *(crate `bi-core`)* — the Bayesian game model, equilibria,
//!   potentials, the six ignorance measures, Section 4's
//!   public-randomness machinery, and the unified solver engine
//!   ([`core::model::BayesianModel`] + [`core::solve::Solver`]) that
//!   computes the measures for every game representation through one
//!   configurable entry point (pluggable backends, budgets, threads);
//! * [`ncs`] — complete-information and Bayesian NCS games with exact
//!   solvers;
//! * [`service`] *(crate `bi-service`)* — the serving layer: the
//!   canonical JSON wire codec ([`util::json`] + per-crate
//!   `Encode`/`Decode` impls), a content-addressed sharded LRU solve
//!   cache, the `bi-serve` HTTP server (worker pool, bounded queue,
//!   `503` backpressure) and the `bi-loadgen` load generator, which checks
//!   every answer against an in-process solve;
//! * [`constructions`] — every explicit construction from the paper
//!   (affine-plane game, `G_k`, `G_worst`, diamond game, FRT strategies);
//! * [`graph`], [`geometry`], [`metric`], [`online`], [`zerosum`],
//!   [`util`] — the substrates.
//!
//! # Quickstart
//!
//! Build a 2-agent Bayesian NCS game and solve it through the unified
//! engine — the same [`core::solve::Solver`] serves matrix-form
//! [`core::BayesianGame`]s and graph-form [`ncs::BayesianNcsGame`]s:
//!
//! ```
//! use bayesian_ignorance::core::solve::Solver;
//! use bayesian_ignorance::graph::{Direction, Graph};
//! use bayesian_ignorance::ncs::{BayesianNcsGame, NcsGame, Prior};
//!
//! // A directed diamond: two routes from s to t.
//! let mut g = Graph::new(Direction::Directed);
//! let s = g.add_node();
//! let m = g.add_node();
//! let t = g.add_node();
//! g.add_edge(s, m, 1.0);
//! g.add_edge(m, t, 1.0);
//! g.add_edge(s, t, 3.0);
//!
//! // Agent 0 always travels s→t; agent 1 travels s→t or stays put.
//! let prior = Prior::independent(vec![
//!     vec![((s, t), 1.0)],
//!     vec![((s, t), 0.5), ((s, s), 0.5)],
//! ]);
//! let game = BayesianNcsGame::new(g, prior).expect("valid game");
//!
//! // Exact exhaustive solve, swept by two worker threads. Swap the
//! // backend (`Backend::MonteCarloSampling { .. }`) and budget for games
//! // beyond exhaustive reach.
//! let report = Solver::builder()
//!     .threads(2)
//!     .build()
//!     .solve(&game)
//!     .expect("solvable");
//! assert!(report.exact);
//! let measures = report.measures;
//! // Complete or partial, someone must buy a route, so optP ≥ optC ≥ 2.
//! assert!(measures.opt_c >= 2.0 - 1e-9);
//! assert!(measures.opt_p >= measures.opt_c - 1e-9);
//! # let _ = NcsGame::new; // re-exported API exercised elsewhere
//! ```

pub use bi_constructions as constructions;
pub use bi_core as core;
pub use bi_geometry as geometry;
pub use bi_graph as graph;
pub use bi_metric as metric;
pub use bi_ncs as ncs;
pub use bi_online as online;
pub use bi_service as service;
pub use bi_util as util;
pub use bi_zerosum as zerosum;
