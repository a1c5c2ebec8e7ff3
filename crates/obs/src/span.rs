//! The span flight recorder: a fixed-capacity, overwrite-oldest ring of
//! [`SpanEvent`]s written with relaxed atomics and **zero allocation**
//! on the record path.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path must not notice.** A `POST /solve` zero-copy hit is
//!    ~53 µs end to end; recording a span is a thread-local shard pick,
//!    one `fetch_add` on the shard cursor, and seven relaxed stores into
//!    preallocated slots — no locks, no heap, no syscalls.
//! 2. **Always on.** There is no sampling decision on the write side;
//!    the ring simply overwrites its oldest entries, so the recorder is
//!    a flight recorder in the aviation sense: it always holds the most
//!    recent window of activity, and `GET /debug/trace` dumps it.
//! 3. **Readers never block writers.** Snapshots validate each slot with
//!    a sequence counter (odd = mid-write) read before and after the
//!    payload; a slot that changed underneath the reader is simply
//!    skipped. The payload fields are themselves atomics, so a torn read
//!    is a *discarded* event, never undefined behavior. The one
//!    unguarded case — a full ring lap completing inside a single
//!    reader's slot visit so the sequence returns to the same value — is
//!    astronomically unlikely at realistic capacities and costs one
//!    mixed event in a diagnostic dump, nothing more.
//!
//! Trace ids and span ids are 64-bit. Span ids are unique per process
//! (a per-recorder random salt mixed with a counter), trace ids carry
//! the same salt so ids minted by a router and a backend never collide;
//! id `0` is reserved as "none" in both namespaces.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use bi_util::Json;

/// A named stage of the serving pipeline, the unit spans are tagged
/// with. The same enum covers both tiers: the router records
/// [`Stage::Route`]/[`Stage::RingLookup`]/[`Stage::Upstream`], a backend
/// records the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// A backend request end to end (first parsed byte to last written
    /// byte) — the root span on `bi-serve`.
    Request = 0,
    /// A router request end to end — the root span on `bi-router`.
    Route = 1,
    /// HTTP head parsing on the reactor.
    Parse = 2,
    /// Consistent-hash key derivation + ring walk on the router.
    RingLookup = 3,
    /// One forward attempt to an upstream backend (includes the retry
    /// economics: a failed attempt is its own span).
    Upstream = 4,
    /// Cache lookup: raw-byte index, primary LRU, and disk tier probe.
    Cache = 5,
    /// Promotion of a disk-tier hit into the in-memory LRU.
    DiskPromote = 6,
    /// The engine solve (or a whole batch on the solver pool).
    Solve = 7,
    /// Canonical JSON encoding of a freshly computed report (miss path)
    /// or staging the cached bytes (hit path).
    Encode = 8,
    /// Writing the staged response to the socket (staged → flushed).
    Write = 9,
    /// Decoding a canonical request on the solver pool, on a true miss
    /// (the reactor looked it up by its span key without decoding it).
    Decode = 10,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 11] = [
        Stage::Request,
        Stage::Route,
        Stage::Parse,
        Stage::RingLookup,
        Stage::Upstream,
        Stage::Cache,
        Stage::DiskPromote,
        Stage::Solve,
        Stage::Encode,
        Stage::Write,
        Stage::Decode,
    ];

    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = Stage::ALL.len();

    /// The stable wire name of the stage (used in `/debug/trace` dumps
    /// and as the `"stages"` histogram keys of `GET /metrics`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Route => "route",
            Stage::Parse => "parse",
            Stage::RingLookup => "ring_lookup",
            Stage::Upstream => "upstream",
            Stage::Cache => "cache",
            Stage::DiskPromote => "disk_promote",
            Stage::Solve => "solve",
            Stage::Encode => "encode",
            Stage::Write => "write",
            Stage::Decode => "decode",
        }
    }

    /// The inverse of [`Stage::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    fn from_u64(v: u64) -> Option<Stage> {
        Stage::ALL.get(usize::try_from(v).ok()?).copied()
    }
}

/// The trace context a request carries across layers (and, as
/// `X-Bi-Trace`/`X-Bi-Parent` headers, across processes): which trace
/// the work belongs to and which span is its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The 64-bit trace id correlating every span of one request; `0`
    /// means "untraced" (in-process callers that skip span recording).
    pub trace_id: u64,
    /// The span id child spans attach to; `0` means "no parent".
    pub parent: u64,
}

impl TraceCtx {
    /// The inactive context: spans are not recorded, histograms still
    /// are.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent: 0,
    };

    /// Whether spans should be recorded under this context.
    #[must_use]
    pub fn active(self) -> bool {
        self.trace_id != 0
    }

    /// The context a child stage should pass further down: same trace,
    /// `span` as the parent.
    #[must_use]
    pub fn child(self, span: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent: span,
        }
    }
}

/// One recorded span: a `[t_start_ns, t_end_ns]` interval of a named
/// pipeline stage, keyed by trace and linked to its parent span.
///
/// Timestamps are nanoseconds since the owning [`Recorder`]'s epoch
/// (its construction instant), so intervals recorded by one process are
/// mutually comparable; cross-process alignment is by trace id and
/// parent links, not by clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this span belongs to (never 0 in a recorded event).
    pub trace_id: u64,
    /// This span's own id (unique per process, never 0).
    pub span_id: u64,
    /// The parent span id (`0` for a root span).
    pub parent: u64,
    /// The pipeline stage the interval covers.
    pub stage: Stage,
    /// Interval start, ns since the recorder epoch.
    pub t_start_ns: u64,
    /// Interval end, ns since the recorder epoch.
    pub t_end_ns: u64,
}

impl SpanEvent {
    /// The `/debug/trace` wire form of one span. u64 ids and timestamps
    /// are decimal strings, the workspace-wide convention for values
    /// beyond exact-`f64` range ([`Json::from_u64`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace".into(), Json::from_u64(self.trace_id)),
            ("span".into(), Json::from_u64(self.span_id)),
            ("parent".into(), Json::from_u64(self.parent)),
            ("stage".into(), Json::str(self.stage.name())),
            ("start_ns".into(), Json::from_u64(self.t_start_ns)),
            ("end_ns".into(), Json::from_u64(self.t_end_ns)),
        ])
    }

    /// Parses the wire form back (the inverse of [`SpanEvent::to_json`]);
    /// `None` when a field is missing or malformed.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<SpanEvent> {
        Some(SpanEvent {
            trace_id: v.get("trace")?.as_u64()?,
            span_id: v.get("span")?.as_u64()?,
            parent: v.get("parent")?.as_u64()?,
            stage: Stage::from_name(v.get("stage")?.as_str()?)?,
            t_start_ns: v.get("start_ns")?.as_u64()?,
            t_end_ns: v.get("end_ns")?.as_u64()?,
        })
    }
}

/// Slots per shard below which a shard is not worth having.
const MIN_SHARD_SLOTS: usize = 16;

/// Write shards (threads are spread across them round-robin; 8 covers
/// the reactor + a typical solver pool without contention).
const SHARDS: usize = 8;

/// One ring slot: a sequence word plus the six payload words. The
/// sequence is `2·ticket + 1` while the writer is mid-store and
/// `2·ticket + 2` once the payload is complete, so readers can both
/// skip in-progress slots (odd) and detect a slot that was overwritten
/// underneath them (value changed between the pre- and post-read).
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    stage: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
        }
    }
}

/// One write shard: a ticket counter and its slice of the ring.
#[derive(Debug)]
struct Shard {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

/// Threads are assigned shard indices round-robin from this process-wide
/// counter on first record (thread ids are not stably numeric on stable
/// Rust).
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The flight recorder: a sharded ring of [`SpanEvent`] slots plus the
/// id mints. See the module docs for the write/read protocol.
#[derive(Debug)]
pub struct Recorder {
    shards: [Shard; SHARDS],
    epoch: Instant,
    /// Per-process salt mixed into every minted id so two processes'
    /// recorders never mint colliding trace or span ids.
    salt: u64,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

impl Recorder {
    /// A recorder holding (at least) `capacity` most-recent spans,
    /// rounded up so every shard gets the same power-of-two slot count.
    #[must_use]
    pub fn new(capacity: usize) -> Recorder {
        let per_shard = capacity
            .div_ceil(SHARDS)
            .next_power_of_two()
            .max(MIN_SHARD_SLOTS);
        Recorder {
            shards: std::array::from_fn(|_| Shard {
                cursor: AtomicU64::new(0),
                slots: (0..per_shard).map(|_| Slot::empty()).collect(),
            }),
            epoch: Instant::now(),
            salt: process_salt(),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Total slot count (≥ the requested capacity).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Nanoseconds since this recorder's construction — the timebase of
    /// every span it holds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Mints a fresh, never-zero trace id (process-salted, so router and
    /// backend mints never collide).
    #[must_use]
    pub fn new_trace_id(&self) -> u64 {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        mix(self.salt ^ n.rotate_left(17)).max(1)
    }

    /// Mints a fresh, never-zero span id. Allocate the root span id
    /// *before* recording children so their `parent` field can point at
    /// it, then close the root with [`Recorder::record_span`].
    #[must_use]
    pub fn next_span_id(&self) -> u64 {
        let n = self.next_span.fetch_add(1, Ordering::Relaxed);
        mix(self.salt ^ n).max(1)
    }

    /// Records a span under a freshly minted id and returns that id (so
    /// the caller can parent further spans under it).
    pub fn record(
        &self,
        trace_id: u64,
        parent: u64,
        stage: Stage,
        t_start_ns: u64,
        t_end_ns: u64,
    ) -> u64 {
        let span_id = self.next_span_id();
        self.record_span(span_id, trace_id, parent, stage, t_start_ns, t_end_ns);
        span_id
    }

    /// Records a span under a pre-allocated id (see
    /// [`Recorder::next_span_id`]). The record path: one thread-local
    /// read, one `fetch_add`, seven atomic stores — no locks, no heap.
    pub fn record_span(
        &self,
        span_id: u64,
        trace_id: u64,
        parent: u64,
        stage: Stage,
        t_start_ns: u64,
        t_end_ns: u64,
    ) {
        let shard = &self.shards[thread_shard_index() % SHARDS];
        let ticket = shard.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &shard.slots[(ticket as usize) & (shard.slots.len() - 1)];
        // Odd = mid-write: readers arriving now skip the slot. Release
        // so the payload stores below are not reordered before it.
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        slot.trace.store(trace_id, Ordering::Relaxed);
        slot.span.store(span_id, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.stage.store(u64::from(stage as u8), Ordering::Relaxed);
        slot.start.store(t_start_ns, Ordering::Relaxed);
        slot.end.store(t_end_ns, Ordering::Relaxed);
        // Even = complete; Release publishes the payload with it.
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Every consistent event currently in the ring, ordered by start
    /// time (ties by span id). In-progress and torn slots are skipped.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq == 0 || seq % 2 == 1 {
                    continue; // never written, or a writer is mid-store
                }
                let event = SpanEvent {
                    trace_id: slot.trace.load(Ordering::Relaxed),
                    span_id: slot.span.load(Ordering::Relaxed),
                    parent: slot.parent.load(Ordering::Relaxed),
                    stage: match Stage::from_u64(slot.stage.load(Ordering::Relaxed)) {
                        Some(stage) => stage,
                        None => continue,
                    },
                    t_start_ns: slot.start.load(Ordering::Relaxed),
                    t_end_ns: slot.end.load(Ordering::Relaxed),
                };
                if slot.seq.load(Ordering::Acquire) != seq {
                    continue; // overwritten underneath us: discard
                }
                out.push(event);
            }
        }
        out.sort_unstable_by_key(|e| (e.t_start_ns, e.span_id));
        out
    }

    /// The events of one trace, ordered by start time — what the
    /// slow-request sampler logs.
    #[must_use]
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanEvent> {
        let mut spans = self.spans();
        spans.retain(|e| e.trace_id == trace_id);
        spans
    }

    /// The `GET /debug/trace` document: `{"capacity": …, "spans": […]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("capacity".into(), Json::num(self.capacity() as f64)),
            (
                "spans".into(),
                Json::Arr(self.spans().iter().map(SpanEvent::to_json).collect()),
            ),
        ])
    }
}

impl Default for Recorder {
    /// A 4096-slot recorder — a few seconds of history at full hot-path
    /// throughput, which is what a `/debug/trace` scrape or a
    /// slow-request dump needs.
    fn default() -> Self {
        Recorder::new(4096)
    }
}

/// The calling thread's stable shard index (assigned round-robin on
/// first use).
fn thread_shard_index() -> usize {
    THREAD_SHARD.with(|cell| {
        let assigned = cell.get();
        if assigned != usize::MAX {
            return assigned;
        }
        let fresh = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        cell.set(fresh);
        fresh
    })
}

/// SplitMix64's finalizer: a bijective avalanche over `u64`, so distinct
/// counter values always mint distinct ids within one process.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-process salt: pid mixed with a coarse wall-clock reading, so
/// two processes started at the same moment still separate by pid.
fn process_salt() -> u64 {
    let pid = u64::from(std::process::id());
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    mix(pid.rotate_left(32) ^ clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(Stage::from_u64(u64::from(stage as u8)), Some(stage));
        }
        assert_eq!(Stage::from_name("nonsense"), None);
        assert_eq!(Stage::from_u64(255), None);
    }

    #[test]
    fn trace_ctx_threads_parents() {
        assert!(!TraceCtx::NONE.active());
        let ctx = TraceCtx {
            trace_id: 7,
            parent: 0,
        };
        assert!(ctx.active());
        let child = ctx.child(42);
        assert_eq!(child.trace_id, 7);
        assert_eq!(child.parent, 42);
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let r = Recorder::new(64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = r.next_span_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "span id minted twice");
        }
        for _ in 0..10_000 {
            let id = r.new_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "trace id collided");
        }
    }

    #[test]
    fn recorded_spans_come_back_ordered() {
        let r = Recorder::new(64);
        let trace = r.new_trace_id();
        let root = r.next_span_id();
        let parse = r.record(trace, root, Stage::Parse, 10, 20);
        let cache = r.record(trace, root, Stage::Cache, 20, 30);
        // Start the root strictly before its children: the sort is by
        // (t_start_ns, span_id) and span ids are random, so a start-time
        // tie would make the order nondeterministic.
        r.record_span(root, trace, 0, Stage::Request, 5, 40);
        let spans = r.trace_spans(trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].span_id, root, "root starts first");
        assert_eq!(spans[0].stage, Stage::Request);
        assert!(spans.iter().any(|s| s.span_id == parse && s.parent == root));
        assert!(spans.iter().any(|s| s.span_id == cache && s.parent == root));
        // An unrelated trace id filters to nothing.
        assert!(r.trace_spans(trace ^ 1).is_empty());
    }

    #[test]
    fn wraparound_keeps_the_newest_events() {
        // Single-threaded: everything lands in one shard, whose slot
        // count is 16 (the minimum). Recording 100 spans must retain
        // exactly the newest 16.
        let r = Recorder::new(1);
        let trace = r.new_trace_id();
        for i in 0..100u64 {
            r.record(trace, 0, Stage::Solve, i, i + 1);
        }
        let spans = r.trace_spans(trace);
        assert_eq!(spans.len(), 16, "one full shard survives");
        let starts: Vec<u64> = spans.iter().map(|s| s.t_start_ns).collect();
        assert_eq!(
            starts,
            (84..100).collect::<Vec<u64>>(),
            "the survivors are exactly the newest events"
        );
    }

    #[test]
    fn concurrent_recording_keeps_trace_correlation() {
        // Reactor + workers all record under their own trace ids while a
        // reader snapshots; no event may ever carry a mixed-up pairing
        // of trace id and payload. Trace `t` only ever records start
        // times `start % THREADS == t-index`, so any cross-thread tear
        // would be visible.
        let r = Recorder::new(4096);
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let traces: Vec<u64> = (0..THREADS as u64).map(|i| 1 + i).collect();
        std::thread::scope(|scope| {
            for (idx, &trace) in traces.iter().enumerate() {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let start = i * THREADS as u64 + idx as u64;
                        r.record(trace, trace, Stage::Solve, start, start + 1);
                    }
                });
            }
            // Concurrent snapshots must stay internally consistent.
            let r = &r;
            scope.spawn(move || {
                for _ in 0..50 {
                    for span in r.spans() {
                        assert_eq!(span.t_end_ns, span.t_start_ns + 1);
                    }
                }
            });
        });
        for (idx, &trace) in traces.iter().enumerate() {
            let spans = r.trace_spans(trace);
            assert!(!spans.is_empty(), "trace {trace} lost every span");
            for span in spans {
                assert_eq!(
                    span.t_start_ns % THREADS as u64,
                    idx as u64,
                    "a span's payload was torn across traces"
                );
                assert_eq!(span.parent, trace, "parent field torn");
            }
        }
    }

    #[test]
    fn json_dump_round_trips_through_bi_util_json() {
        let r = Recorder::new(64);
        let trace = r.new_trace_id();
        let root = r.next_span_id();
        r.record(trace, root, Stage::Cache, 100, 250);
        r.record(trace, root, Stage::Write, 250, 300);
        r.record_span(root, trace, 0, Stage::Request, 100, 300);
        let dump = r.to_json().to_string();
        let parsed = Json::parse(&dump).expect("the dump is valid JSON");
        let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        let decoded: Vec<SpanEvent> = spans
            .iter()
            .map(|s| SpanEvent::from_json(s).unwrap())
            .collect();
        assert_eq!(decoded, r.spans(), "wire form round-trips losslessly");
        assert_eq!(
            parsed.get("capacity").and_then(Json::as_usize),
            Some(r.capacity())
        );
    }
}
