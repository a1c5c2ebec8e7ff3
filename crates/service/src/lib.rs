//! # bi-service
//!
//! The serving layer of the `bayesian-ignorance` workspace: everything
//! between the unified solver engine (`bi_core::solve::Solver`) and a
//! TCP socket, built on `std` alone.
//!
//! The paper's six ignorance measures are **pure functions of a game
//! description** — the same request always has the same answer — which
//! makes solve results perfectly content-addressable. This crate turns
//! that observation into a subsystem:
//!
//! ```text
//!   client ──► bi-router ──(consistent-hash ring over canonical key)──►
//!               reactor +                    bi-serve node 1..N, each:
//!               forwarder pool
//!                  │ no live backend
//!                  ▼
//!                 503
//!
//!                    reactor thread (poll-based, nonblocking)
//!   client ──► read ──► canon_check ──► raw-byte index ──► hit: bytes out
//!     ▲                    │ non-canonical  │ miss              (zero parse)
//!     │                    ▼                ▼
//!     │               decode once ──► sharded LRU cache ──► hit: bytes out
//!     │                                     │ miss
//!     │                                     ▼
//!     │                            disk tier (append-only log)
//!     │                              │ hit: promote to LRU
//!     │                              │ miss
//!     │                              bounded try_send ──► solver pool
//!     │                                 │ full                 │
//!     └── 429 + Retry-After ◄───────────┘      wake pipe +     │
//!     └── SolveReport bytes ◄── completion queue ◄─────────────┘
//! ```
//!
//! * [`cache`] — the content-addressed solve cache: XXH64 over
//!   canonical request bytes into a sharded, capacity-bounded, exact-LRU
//!   store with hit/miss/eviction counters;
//! * [`service`] — the transport-independent core: [`GameSpec`] (matrix
//!   or NCS games), [`SolveRequest`]/[`BatchRequest`] wire types, and
//!   [`SolveService`] routing every solve through the cache (with the
//!   raw-byte zero-copy index in front); its `compute` is the only
//!   place anything is solved, one game at a time, and a batch is a
//!   list of such solves in request order;
//! * [`http`] — a minimal HTTP/1.1 layer over `std::io`: the
//!   allocation-free incremental head parser the reactor feeds, the one
//!   response head writer, and the blocking client;
//! * [`reactor`] — the readiness layer: a `ppoll(2)` syscall shim (no
//!   libc) with a portable fallback, plus the loopback wake channel;
//! * [`server`] — the one connection engine, behind both binaries: a
//!   single reactor thread multiplexing every connection, a bounded
//!   worker pool, `429` + `Retry-After` backpressure on its queue, the
//!   connection cap and the idle sweep. What a request means is a
//!   dispatcher's business; `bi-serve`'s (here) answers hits inline and
//!   sends only cache misses to the solver pool, for endpoints
//!   `POST /solve`, `POST /solve_batch`, `POST /cache_put`,
//!   `GET /metrics`, `GET /healthz`, `GET /debug/trace`;
//! * [`metrics`] — the relaxed-atomic counters `GET /metrics` reports,
//!   including the reactor's zero-copy/parsed hit split and the
//!   per-stage latency histograms ([`bi_obs::StageTimings`]);
//! * [`persist`] — the disk-backed second cache tier: an append-only log
//!   of canonical-request-bytes → response-bytes with CRC-framed
//!   records, rebuilt by a torn-tail-tolerant boot scan, appended behind
//!   the hot path — a restarted node answers its old key space warm;
//! * [`cluster`] — `bi-router`: a second dispatcher on the same reactor,
//!   whose forwarder pool routes `/solve` bodies by canonical cache key
//!   over a consistent-hash ring (virtual nodes over the same XXH64 key
//!   space the cache uses) across N `bi-serve` backends over keep-alive
//!   upstream pools, with `/healthz` probing, automatic eject/readmit,
//!   replication and retries. A `/solve_batch` is routed game by game,
//!   each game retried, failed over, written through and read-repaired
//!   exactly as a `/solve`, and the answers spliced in request order.
//!   The router never solves: it returns a node's answer, or `503`
//!   when no backend is live.
//!
//! Every request is traced end to end through the `bi_obs` flight
//! recorder: the reactor adopts an `X-Bi-Trace` id or mints one, stage
//! spans (`route`/`parse`/`ring_lookup`/`upstream`/`write` on the
//! router; `request`/`parse`/`cache`/`disk_promote`/`solve`/`encode`/
//! `write` on a backend) nest under it, and `GET /debug/trace` dumps the recent
//! span window as JSON. The commonly needed tracing types are
//! re-exported here as [`Recorder`], [`Stage`], and [`TraceCtx`].
//!
//! The three binaries are thin wrappers: `bi-serve` runs [`Server`];
//! `bi-router` runs [`Router`] in front of N of them; `bi-loadgen`
//! replays seeded random-game workloads against a running server or
//! router, checks every answer byte for byte against an in-process
//! solve, and exits non-zero on a failed request or a missed hit-rate
//! or latency bound — the load gate of CI. It writes no report; the
//! speed record is perfbench's.
//!
//! # Examples
//!
//! In-process use of the service core (no sockets):
//!
//! ```
//! use bi_core::random_games::random_bayesian_potential_game;
//! use bi_core::solve::SolverConfig;
//! use bi_service::{CacheConfig, GameSpec, SolveRequest, SolveService};
//!
//! let service = SolveService::new(CacheConfig::default());
//! let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, 7);
//! let request = SolveRequest {
//!     game: GameSpec::Matrix(game),
//!     config: SolverConfig::default(),
//! };
//! let cold = service.solve(&request).unwrap();
//! let warm = service.solve(&request).unwrap();
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.body, warm.body);
//! ```

pub mod cache;
pub mod cluster;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod persist;
pub mod reactor;
pub mod server;
pub mod service;
pub mod workload;

pub use bi_obs::{Recorder, SpanEvent, Stage, TraceCtx};
pub use cache::{CacheConfig, CacheStats, ShardedLru};
pub use cluster::{FallbackMode, HashRing, Router, RouterConfig, RouterHandle};
pub use fault::{FaultKind, FaultPlan};
pub use metrics::ServiceMetrics;
pub use persist::{DiskTier, DiskTierConfig, DiskTierStats};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{
    BatchRequest, FastOutcome, GameSpec, PreparedSolve, ServeError, ServedResponse, SolveRequest,
    SolveService,
};
