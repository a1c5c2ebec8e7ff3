//! # bi-obs
//!
//! The observability substrate of the `bayesian-ignorance` serving tier,
//! built on `std` alone like everything else in the workspace.
//!
//! A request now crosses a router, a consistent-hash ring, a backend
//! reactor, an LRU + disk cache, and a solver pool. This crate is how we
//! see *where time goes per request and per stage*, correlated across
//! hops, without perturbing the zero-copy hot path:
//!
//! * [`span`] — a lock-free flight recorder of [`SpanEvent`]s: fixed
//!   capacity, overwrite-oldest, relaxed atomics, **zero allocation on
//!   the record path**. One 64-bit trace id (assigned by `bi-serve`, or
//!   adopted from an `X-Bi-Trace` header so `bi-router` can originate
//!   it) correlates the router hop, ring lookup, upstream forward, and
//!   the backend's parse/cache/solve/encode/write stages.
//! * [`hist`] — the log₂-bucketed [`LatencyHistogram`] (moved here from
//!   `bi-service` so router and backend share it) with a tear-free
//!   [`LatencyHistogram::snapshot`], and [`StageTimings`]: one histogram
//!   per pipeline [`Stage`], surfaced under `"stages"` in `GET /metrics`.
//! * [`log`] — a structured JSON-lines logger for the binaries' stderr
//!   diagnostics: level filter via the `BI_LOG` environment variable,
//!   one write syscall per line, never on the hot path unless a request
//!   trips a `--trace-slow-us` threshold.
//!
//! The recorder is exposed over HTTP as `GET /debug/trace`; its JSON
//! uses the same conventions as the rest of the workspace (u64 values
//! are decimal strings, [`bi_util::Json::from_u64`]), so dumps from the
//! router and every backend can be joined on `trace` in a few lines of
//! scripting.
//!
//! # Examples
//!
//! Recording and reading back a two-span trace:
//!
//! ```
//! use bi_obs::{Recorder, Stage};
//!
//! let recorder = Recorder::new(64);
//! let trace = recorder.new_trace_id();
//! let root = recorder.next_span_id();
//! let t0 = recorder.now_ns();
//! let t1 = recorder.now_ns();
//! recorder.record(trace, root, Stage::Parse, t0, t1);
//! recorder.record_span(root, trace, 0, Stage::Request, t0, t1);
//! let spans = recorder.trace_spans(trace);
//! assert_eq!(spans.len(), 2);
//! assert!(spans.iter().any(|s| s.parent == root));
//! ```

pub mod hist;
pub mod log;
pub mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram, StageTimings, HISTOGRAM_BUCKETS};
pub use log::Level;
pub use span::{Recorder, SpanEvent, Stage, TraceCtx};
