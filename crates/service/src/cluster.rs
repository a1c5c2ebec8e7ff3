//! The `bi-router` engine: consistent-hash routing of solve traffic
//! across N `bi-serve` backends.
//!
//! Every measure the engine serves is a pure function of the canonical
//! request bytes, so the content-addressed cache key
//! ([`SolveService::cache_key`](crate::SolveService::cache_key)) *is*
//! the result identity — which makes horizontal sharding trivially
//! correct: route each request to the backend owning its key and that
//! backend's cache concentrates exactly its arc of the key space. The
//! router keys a `/solve` body with its node's own helper, so a
//! canonical body is keyed by the spans of its bytes, with no decode,
//! and a non-canonical one is forwarded as the canonical bytes it was
//! keyed by.
//! The ring is a classic consistent hash with virtual nodes over the
//! 64-bit XXH64 space the caches index with ([`bi_util::xxh64`]). A
//! `/solve_batch` is a list of routed solves: each game goes through the
//! same routing step as a `/solve` body, so a game sent alone and inside
//! a batch meet the same backend.
//!
//! ```text
//!   client ──► bi-router ──hash(cache_key)──► ring ──► backend k
//!                 │                            │ backend k dead
//!                 │                            ▼
//!                 │                  clockwise successor walk
//!                 │ every backend dead
//!                 ▼
//!        503 {"error":"no live backend"}
//! ```
//!
//! **Routing is deterministic**: the ring is built once from the
//! configured backend list, so the same key always maps to the same
//! backend while the live set is unchanged. Liveness is handled by
//! walking clockwise past dead backends at lookup time — ejecting a
//! backend therefore moves **only the ejected backend's arcs** (every
//! key whose first live point belonged to someone else keeps its
//! mapping), and readmission restores the original assignment exactly.
//! Both properties are locked by unit tests below.
//!
//! The router serves on the same reactor as a node ([`crate::server`]):
//! it is a [`Dispatcher`] that answers `GET /healthz`, `GET /metrics`
//! and `GET /debug/trace` inline, and turns every `POST /solve` and
//! `POST /solve_batch` into a `Routed` value: connection state that
//! the reactor steps with each upstream outcome. A step asks for one of
//! three things — send this body to backend k, wait until t (backoff or
//! `Retry-After`), or answer — and the reactor does it. Upstream sockets
//! sit in the reactor's poll set beside the downstream ones, their
//! answers are read with the one response parser the blocking client
//! uses, and retry waits and the upstream timeout are folded into the
//! poll timeout. So a routed hit crosses no thread. Nothing on the
//! reactor blocks: `std` has no nonblocking connect, so when no idle
//! socket to a backend is left the prober dials one and hands it back
//! over the wake channel. The router runs its reactor, the prober and
//! the repair worker, and no pool workers. Routes in flight are capped
//! at a node's queue capacity; past the cap a request is answered
//! `429` + `Retry-After`, exactly as a node sheds load. Connection and
//! status counters and stage histograms live in the router's own
//! [`ServiceMetrics`], the struct a node reports; the router adds only
//! its `503`, retry and replication counters. The router never solves:
//! every answer it returns came from a node.
//!
//! Health is probed (`GET /healthz`) on an interval; failed exchanges
//! count against the same consecutive-failure threshold, so a backend
//! that dies mid-burst is ejected by the traffic itself rather than
//! waiting for the next probe cycle. Upstream sockets are kept alive per
//! backend; one that breaks after an earlier exchange (the backend may
//! have closed an idle keep-alive) is replaced by a fresh dial before
//! the attempt counts as failed. A `/solve_batch` is split by the
//! splitter a node uses, which decodes it once to reject an invalid
//! game; each of its games is routed in turn as its canonical `/solve`
//! body, under one deadline, with the retries, failover, write-through
//! and read-repair below, and the answers are spliced in request order,
//! exactly as a node splices its own.
//!
//! **Replication** (`--replication R`): each key's *intended owners* are
//! its first R distinct ring successors, liveness-blind
//! ([`HashRing::route_replicas`]). Serving still walks the live ring —
//! when the primary is dead the next live replica answers from its own
//! copy — and a background worker, woken as each delivery is queued,
//! brings the owners back in sync over `POST /cache_put` on its own
//! blocking client per backend: freshly
//! solved misses are **written through** to
//! the other live owners, and owners that were dead at serve time get a
//! **read-repair** queued until they return, so a restarted backend is
//! repopulated without re-solving anything. Responses are pure functions
//! of the canonical request bytes, which is what makes shipping them
//! byte-for-byte between replicas correct.
//!
//! **Retries**: every `/solve` gets a deadline budget (a batch gets one
//! for all its games). Transport
//! failures fail over to the next live replica immediately (and feed
//! ejection); retryable statuses (`429`, `5xx`) are retried across
//! replicas and rounds with capped, deterministically jittered
//! exponential backoff, honoring an upstream `Retry-After`. When the
//! rounds or the budget run out, the last upstream answer is returned as
//! it came (status, body, `X-Backend`, `Retry-After`), so a node's `429`
//! stays a `429`. Only a request that finds no live backend at all is
//! answered `503 {"error":"no live backend"}` with `X-Backend: none`.
//!
//! **Tracing**: the reactor gives every downstream request a 64-bit
//! trace id — adopted from an `X-Bi-Trace` header when present, minted
//! otherwise — plus `parse`/`write` spans and a root `route` span. A
//! route records `ring_lookup`, the reactor one `upstream` span per
//! attempt (its dial, write and read), and each attempt carries the
//! trace id plus the upstream span id
//! (`X-Bi-Trace` / `X-Bi-Parent`) so the backend's own spans nest under
//! this hop. Everything lands in the router's own [`Recorder`], which
//! `GET /debug/trace` dumps.
//!
//! [`Dispatcher`]: crate::server

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::convert::Infallible;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bi_obs::{Recorder, Stage, TraceCtx};
use bi_util::{fnv1a, xxh64, Json};

use crate::cache::{CacheConfig, ShardedLru};
use crate::fault::mix;
use crate::http::{dial, ClientResponse, HttpClient, Response};
use crate::metrics::ServiceMetrics;
use crate::server::{
    serve, Dispatched, Dispatcher, Engine, Handback, Outcome, Reply, Request, ServerConfig, Step,
    UPSTREAM_TIMEOUT,
};
use crate::service::{error_body, reports_body, solve_key, split_batch, BatchGame, ServeError};

/// What the router answers when no live backend is left. It has one
/// value, because the router never solves; the type and
/// [`RouterConfig::fallback`] remain only because the benchmark crate
/// (`perfbench`) still names them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackMode {
    /// Answer `503 {"error":"no live backend"}` with `X-Backend: none`.
    Unavailable,
}

/// A consistent-hash ring: `vnodes` virtual points per backend over the
/// 64-bit space of key hashes, routing a key hash to the first live
/// backend at or clockwise after it. Backends are identified by their index in the
/// configured backend list, never by address, so the ring (and every
/// key's owner) is the same on every run, whatever ports the backends
/// bound.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend index)`, sorted by point; ties (64-bit point
    /// collisions across backends) keep the lowest index, so the ring is
    /// a pure function of the backend list.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds the ring for `backends` backends with `vnodes` virtual
    /// points each (point `v` of backend `i` is the splitmix64-style
    /// hash `mix(i, v)`, which spreads the points evenly over the ring).
    #[must_use]
    pub fn new(backends: usize, vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends * vnodes);
        for i in 0..backends {
            for v in 0..vnodes {
                points.push((mix(i as u64, v as u64), i));
            }
        }
        points.sort_unstable();
        points.dedup_by(|a, b| a.0 == b.0);
        HashRing { points, backends }
    }

    /// How many backends the ring was built over.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend owning `hash`: the first point at or clockwise after
    /// it whose backend `live` accepts, or `None` when none does.
    /// Skipping dead backends *here* (rather than rebuilding the ring)
    /// is what makes an eject move only the ejected arcs.
    pub fn route(&self, hash: u64, live: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        (0..n)
            .map(|k| self.points[(start + k) % n].1)
            .find(|&idx| live(idx))
    }

    /// The first `r` **distinct** backends at or clockwise after `hash`
    /// that `live` accepts, in ring order — the key's replica owners.
    /// `route` is exactly the first element. Returns fewer than `r`
    /// owners when fewer distinct backends qualify. Because dead
    /// backends are skipped at lookup time (never rebuilt into the
    /// ring), an eject moves only the ejected backend's arcs: every
    /// surviving owner keeps its position in every key's owner list.
    pub fn route_replicas(&self, hash: u64, r: usize, live: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut owners = Vec::with_capacity(r.min(self.backends));
        if self.points.is_empty() || r == 0 {
            return owners;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        for k in 0..n {
            let idx = self.points[(start + k) % n].1;
            if live(idx) && !owners.contains(&idx) {
                owners.push(idx);
                if owners.len() == r {
                    break;
                }
            }
        }
        owners
    }
}

/// The router settings a caller sets: addressing, health policy,
/// replication, retries and sampling. The ring shape, the upstream
/// timeouts, the deadline budget, the first backoff and the
/// repair-queue bound are constants.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port `0` for ephemeral.
    pub addr: String,
    /// Backend `host:port` addresses the ring is built over.
    pub backends: Vec<String>,
    /// What to answer when no backend is live (always `503`).
    pub fallback: FallbackMode,
    /// How often the prober sweeps `/healthz` across backends.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or forward) that eject a backend.
    pub fail_threshold: u32,
    /// Idle keep-alive timeout for downstream client connections.
    pub read_timeout: Duration,
    /// Sizing of the body-bytes → routing-hash cache (skips re-decoding
    /// hot canonical bodies). Every `/solve` body is looked up, so its
    /// `misses` in `/metrics` also count non-canonical bodies, which are
    /// never inserted.
    pub key_cache: CacheConfig,
    /// When set, any request whose end-to-end routing time reaches this
    /// many microseconds gets its span tree logged at `warn`.
    pub trace_slow_us: Option<u64>,
    /// Replica owners per key (clamped to ≥ 1). At `1` the router
    /// shards exactly as before (plus read-repair after a failover); at
    /// `R` each solved result is written through to all `R` owners, so
    /// killing any single backend loses no cached work.
    pub replication: usize,
    /// Backoff ceiling across retry rounds.
    pub retry_max_backoff: Duration,
    /// Retry rounds per `/solve` (clamped to ≥ 1): each round walks
    /// every live replica once; later rounds re-try backends that
    /// answered a retryable status (`429`/`5xx`) earlier.
    pub max_retry_rounds: u32,
}

impl Default for RouterConfig {
    /// Ephemeral port, no backends, 500 ms probes, 2-failure ejection,
    /// a node's 10 s idle timeout, no replicas, 3 retry rounds backing
    /// off to at most 500 ms.
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            fallback: FallbackMode::Unavailable,
            probe_interval: Duration::from_millis(500),
            fail_threshold: 2,
            read_timeout: ServerConfig::default().read_timeout,
            key_cache: CacheConfig::default(),
            trace_slow_us: None,
            replication: 1,
            retry_max_backoff: Duration::from_millis(500),
            max_retry_rounds: 3,
        }
    }
}

/// Virtual points per backend on the ring.
const VNODES: usize = 64;
/// Connect deadline for upstream sockets (dials, probes and repairs).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Total deadline budget per `/solve`, and per `/solve_batch` for all
/// its games: retries and backoff sleeps stop once it is spent, and each
/// game still unanswered gets its last upstream answer (`503` when no
/// live backend answered it).
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// First-round retry backoff (doubled per round, deterministically
/// jittered, capped by [`RouterConfig::retry_max_backoff`]).
const RETRY_BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Pending write-through/read-repair deliveries retained; overflow is
/// dropped (and counted) rather than growing without bound.
const REPAIR_QUEUE_CAPACITY: usize = 4096;

/// One upstream backend: liveness and failure accounting.
struct Backend {
    addr: String,
    alive: AtomicBool,
    consecutive_failures: AtomicU64,
    /// Idle keep-alive sockets the reactor holds to it.
    pooled: AtomicU64,
    forwarded: AtomicU64,
    upstream_errors: AtomicU64,
    ejects: AtomicU64,
    readmits: AtomicU64,
    /// Milliseconds since router start of the last `/healthz` probe
    /// (`u64::MAX` until the first probe lands) — surfaced by the
    /// router's aggregated `/healthz`.
    last_probe_ms: AtomicU64,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            alive: AtomicBool::new(true),
            consecutive_failures: AtomicU64::new(0),
            pooled: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            ejects: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
            last_probe_ms: AtomicU64::new(u64::MAX),
        }
    }

    /// A successful probe or forward: clears the failure streak and
    /// readmits the backend if it was ejected.
    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if !self.alive.swap(true, Ordering::Relaxed) {
            self.readmits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A failed probe or forward: ejects at the threshold. Forwarding
    /// failures land here too, so a backend killed mid-burst is ejected
    /// by the very traffic that notices, not the next probe cycle.
    fn record_failure(&self, threshold: u32) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= u64::from(threshold) && self.alive.swap(false, Ordering::Relaxed) {
            self.ejects.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The router-only counters of `GET /metrics`; request, connection and
/// status counts and the stage histograms are the reactor's, kept in
/// the router's `ServiceMetrics`.
#[derive(Default)]
struct RouterMetrics {
    /// Requests that found no live backend, answered `503`.
    fallback_503: AtomicU64,
    /// Forward attempts that failed at the transport (connect/read) —
    /// these feed ejection and fail over to the next replica.
    retries_transport: AtomicU64,
    /// Forward attempts answered a retryable `5xx` (the backend is
    /// alive; the work was lost — retried without ejection credit).
    retries_5xx: AtomicU64,
    /// Forward attempts answered `429` (shed load; retried after the
    /// upstream's `Retry-After` when present).
    retries_429: AtomicU64,
    /// Write-through `cache_put` deliveries to owners that were live
    /// when the result was solved.
    replication_writes: AtomicU64,
    /// Read-repair `cache_put` deliveries to owners that were dead at
    /// serve time and have since returned.
    read_repairs: AtomicU64,
    /// Repair jobs dropped (queue overflow or delivery given up).
    repair_drops: AtomicU64,
}

/// One pending `POST /cache_put` delivery: bring `backend` a copy of
/// the response for the key hashing to `hash`.
struct RepairJob {
    backend: usize,
    hash: u64,
    /// The framed `cache_put` body (`[request_len][request][response]`).
    body: Vec<u8>,
    /// `true` when the owner was dead at serve time (a read-repair);
    /// `false` for a write-through to a live owner.
    repair: bool,
    /// Delivery attempts so far (given up — and counted dropped — at
    /// [`REPAIR_MAX_ATTEMPTS`]).
    attempts: u32,
}

/// The bounded write-through/read-repair delivery queue, deduplicated
/// by `(backend, key hash)` so a hot key enqueues at most one pending
/// delivery per owner.
#[derive(Default)]
struct RepairQueue {
    jobs: VecDeque<RepairJob>,
    pending: HashSet<(usize, u64)>,
}

/// Delivery attempts before a repair job is dropped (the target keeps
/// refusing while nominally alive).
const REPAIR_MAX_ATTEMPTS: u32 = 64;

/// Everything the reactor, the prober and the repair worker share; it is
/// also the router's [`Dispatcher`].
struct Shared {
    config: RouterConfig,
    ring: HashRing,
    backends: Vec<Backend>,
    metrics: RouterMetrics,
    /// Exact canonical body bytes → routing hash (skips re-decode).
    key_cache: ShardedLru<u64>,
    /// The reactor's request, connection and status counters and the
    /// stage histograms.
    served: ServiceMetrics,
    /// Every routing span (`GET /debug/trace` dumps it).
    recorder: Recorder,
    /// Pending replica deliveries, drained by the repair worker.
    repair: Mutex<RepairQueue>,
    /// Wakes the repair worker when a delivery is queued (and on stop),
    /// so a write-through leaves right behind its answer instead of in a
    /// burst after a polling sleep.
    repair_queued: Condvar,
    /// Backends the reactor wants a fresh socket to; the prober dials
    /// them.
    dials: Mutex<VecDeque<usize>>,
    /// Wakes the prober when a dial is queued (and on stop).
    dial_queued: Condvar,
    /// Router start time — the epoch of `last_probe_ms`.
    started: Instant,
    /// Stops the prober and the repair worker.
    shutdown: AtomicBool,
}

impl Shared {
    /// The router's state over `config.backends`, before any socket.
    fn new(config: RouterConfig) -> Shared {
        Shared {
            ring: HashRing::new(config.backends.len(), VNODES),
            backends: config.backends.iter().cloned().map(Backend::new).collect(),
            metrics: RouterMetrics::default(),
            key_cache: ShardedLru::new(config.key_cache),
            served: ServiceMetrics::default(),
            recorder: Recorder::default(),
            repair: Mutex::new(RepairQueue::default()),
            repair_queued: Condvar::new(),
            dials: Mutex::new(VecDeque::new()),
            dial_queued: Condvar::new(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            config,
        }
    }
}

impl Dispatcher for Shared {
    type Job = Infallible;
    type Route = Routed;
    const ROOT: Stage = Stage::Route;
    const NAME: &'static str = "bi-router";

    fn metrics(&self) -> &ServiceMetrics {
        &self.served
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn dispatch(
        &self,
        request: &Request<'_>,
        reply: &mut Reply<'_>,
    ) -> Dispatched<Infallible, Routed> {
        let route = |phase| {
            Dispatched::Route(Routed {
                ctx: request.ctx,
                phase,
            })
        };
        match (request.method, request.path) {
            (b"POST", b"/solve") => return route(Phase::Solve),
            (b"POST", b"/solve_batch") => return route(Phase::Batch),
            (b"GET", b"/healthz") => reply.send(200, &healthz_json(self).canonical_bytes(), &[]),
            (b"GET", b"/metrics") => {
                reply.send(200, metrics_json(self).to_string().as_bytes(), &[]);
            }
            (b"GET", b"/debug/trace") => {
                reply.send(200, self.recorder.to_json().to_string().as_bytes(), &[]);
            }
            (_, b"/solve" | b"/solve_batch" | b"/healthz" | b"/metrics" | b"/debug/trace") => {
                reply.send(405, &error_body("method not allowed"), &[]);
            }
            _ => reply.send(404, &error_body("unknown endpoint"), &[]),
        }
        Dispatched::Answered
    }

    fn run(&self, job: Infallible) -> Response {
        match job {}
    }

    fn step<'a>(
        &self,
        routed: &'a mut Routed,
        request: &'a [u8],
        outcome: Outcome,
        now: Instant,
    ) -> Step<'a> {
        match routed.advance(self, request, outcome, now) {
            RouteStep::Send(backend) => Step::Send {
                backend,
                body: routed.body(request),
            },
            RouteStep::Wait(until) => Step::Wait(until),
            RouteStep::Done(answer) => Step::Done(answer),
        }
    }

    fn dial(&self, backend: usize) {
        self.dials
            .lock()
            .expect("dial queue poisoned")
            .push_back(backend);
        self.dial_queued.notify_one();
    }

    fn pooled(&self, backend: usize, idle: usize) {
        self.backends[backend]
            .pooled
            .store(idle as u64, Ordering::Relaxed);
    }
}

/// A routed `POST /solve` or `POST /solve_batch`: the connection state
/// the reactor steps with each upstream outcome.
pub(crate) struct Routed {
    ctx: TraceCtx,
    phase: Phase,
}

enum Phase {
    /// A `/solve`, admitted but not yet keyed.
    Solve,
    /// A `/solve_batch`, admitted but not yet split.
    Batch,
    /// A keyed `/solve`: its route, the canonical bytes when they are
    /// not the body as sent, and whether the body may enter the key
    /// cache once answered `200`.
    Keyed {
        route: Route,
        canonical: Option<Vec<u8>>,
        cacheable: bool,
    },
    /// A split batch: its games, the answers so far, and the route of
    /// the next game, all under one deadline.
    Games {
        games: Vec<BatchGame>,
        answers: Vec<Response>,
        route: Route,
    },
}

impl Routed {
    /// Advances the request by `outcome` (see [`Route::step`]); a batch
    /// routes its games one after another, each as its `/solve` body.
    fn advance(
        &mut self,
        shared: &Shared,
        request: &[u8],
        mut outcome: Outcome,
        now: Instant,
    ) -> RouteStep {
        loop {
            match &mut self.phase {
                Phase::Solve => {
                    shared.served.solve_requests.fetch_add(1, Ordering::Relaxed);
                    let t_lookup = shared.recorder.now_ns();
                    let (hash, canonical, cacheable) = match routing_hash(shared, request) {
                        Ok(routed) => routed,
                        Err(response) => return RouteStep::Done(response),
                    };
                    shared.served.finish_stage(
                        &shared.recorder,
                        self.ctx,
                        Stage::RingLookup,
                        t_lookup,
                    );
                    self.phase = Phase::Keyed {
                        route: Route::new(shared, hash, now + REQUEST_DEADLINE),
                        canonical: match canonical {
                            Cow::Borrowed(_) => None,
                            Cow::Owned(bytes) => Some(bytes),
                        },
                        cacheable,
                    };
                }
                Phase::Batch => {
                    shared.served.batch_requests.fetch_add(1, Ordering::Relaxed);
                    let games = match split_batch(request) {
                        Ok((games, _)) if !games.is_empty() => games,
                        Ok(_) => {
                            let none = std::iter::empty::<Result<&[u8], &[u8]>>();
                            return RouteStep::Done(Response::json(200, reports_body(none)));
                        }
                        Err(e) => return RouteStep::Done(e.response()),
                    };
                    let route =
                        Route::new(shared, route_hash(&games[0].key), now + REQUEST_DEADLINE);
                    self.phase = Phase::Games {
                        answers: Vec::with_capacity(games.len()),
                        games,
                        route,
                    };
                }
                Phase::Keyed {
                    route,
                    canonical,
                    cacheable,
                } => {
                    let body = canonical.as_deref().unwrap_or(request);
                    let step = route.step(shared, body, outcome, now);
                    if let RouteStep::Done(answer) = &step {
                        if *cacheable && answer.status == 200 {
                            shared.key_cache.insert(request, route.hash);
                        }
                    }
                    return step;
                }
                Phase::Games {
                    games,
                    answers,
                    route,
                } => {
                    let answer = match route.step(shared, &games[answers.len()].body, outcome, now)
                    {
                        RouteStep::Done(answer) => answer,
                        step => return step,
                    };
                    // A game answered `500` answers the whole batch, as
                    // on a node.
                    if answer.status == 500 {
                        return RouteStep::Done(answer);
                    }
                    answers.push(answer);
                    let Some(next) = games.get(answers.len()) else {
                        let entries = answers.iter().map(|answer| {
                            if answer.status == 200 {
                                Ok(&answer.body[..])
                            } else {
                                Err(&answer.body[..])
                            }
                        });
                        return RouteStep::Done(Response::json(200, reports_body(entries)));
                    };
                    *route = Route::new(shared, route_hash(&next.key), route.deadline);
                }
            }
            outcome = Outcome::Start;
        }
    }

    /// The body the current route sends: the request's own bytes, their
    /// canonical form, or the current batch game's.
    fn body<'a>(&'a self, request: &'a [u8]) -> &'a [u8] {
        match &self.phase {
            Phase::Keyed { canonical, .. } => canonical.as_deref().unwrap_or(request),
            Phase::Games { games, answers, .. } => &games[answers.len()].body,
            Phase::Solve | Phase::Batch => request,
        }
    }
}

/// What a [`Route`] asks for next: the engine's [`Step`] before the
/// body to send is attached.
#[derive(Debug)]
enum RouteStep {
    Send(usize),
    Wait(Instant),
    Done(Response),
}

/// One canonical `/solve` body on its way to an answer: the key's
/// backend first, failing over clockwise on transport errors (each
/// feeds the ejection counter), retrying retryable statuses across
/// replicas and rounds with capped jittered backoff (honoring upstream
/// `Retry-After`), until the rounds or the deadline run out. A served
/// `200` schedules write-through/read-repair to the key's other
/// intended owners. When the rounds or the budget run out, the last
/// upstream answer is returned as it came; a request that no live
/// backend answered gets `503`.
struct Route {
    hash: u64,
    /// The key's intended owners, liveness-blind: where its value should
    /// live. The serve walk skips dead backends; `schedule_repairs`
    /// reconciles the difference after a successful serve.
    owners: Vec<usize>,
    deadline: Instant,
    round: u32,
    /// Backends tried this round.
    tried: Vec<bool>,
    /// The backend of the outstanding send.
    pending: Option<usize>,
    retry_hint: Option<Duration>,
    last: Option<Response>,
}

impl Route {
    fn new(shared: &Shared, hash: u64, deadline: Instant) -> Route {
        Route {
            hash,
            owners: shared
                .ring
                .route_replicas(hash, shared.config.replication.max(1), |_| true),
            deadline,
            round: 0,
            tried: vec![false; shared.backends.len()],
            pending: None,
            retry_hint: None,
            last: None,
        }
    }

    /// Takes the outcome of the last step (`body` is what was sent) and
    /// says what to do next at `now`.
    fn step(&mut self, shared: &Shared, body: &[u8], outcome: Outcome, now: Instant) -> RouteStep {
        match outcome {
            Outcome::Start => {}
            Outcome::Answer(upstream) => {
                let idx = self.pending.take().expect("an answer follows a send");
                let backend = &shared.backends[idx];
                backend.record_success();
                if !retryable_status(upstream.status) {
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                    if upstream.status == 200 {
                        let miss = upstream.header("x-cache") == Some("miss");
                        schedule_repairs(
                            shared,
                            &self.owners,
                            idx,
                            self.hash,
                            body,
                            &upstream.body,
                            miss,
                        );
                    }
                    return RouteStep::Done(relay(backend, upstream));
                }
                let cause = if upstream.status == 429 {
                    &shared.metrics.retries_429
                } else {
                    &shared.metrics.retries_5xx
                };
                cause.fetch_add(1, Ordering::Relaxed);
                self.retry_hint = upstream
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs)
                    .or(self.retry_hint);
                self.last = Some(relay(backend, upstream));
            }
            Outcome::Failed => {
                let idx = self.pending.take().expect("a failure follows a send");
                let backend = &shared.backends[idx];
                shared
                    .metrics
                    .retries_transport
                    .fetch_add(1, Ordering::Relaxed);
                backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
                backend.record_failure(shared.config.fail_threshold);
            }
            Outcome::Woke => {
                self.round += 1;
                self.tried.fill(false);
            }
        }
        let tried = &self.tried;
        let next = shared.ring.route(self.hash, |i| {
            !tried[i] && shared.backends[i].alive.load(Ordering::Relaxed)
        });
        if let Some(idx) = next {
            self.tried[idx] = true;
            self.pending = Some(idx);
            return RouteStep::Send(idx);
        }
        // The round is over: wait for the next one, unless nobody live
        // was tried, the rounds are exhausted or the budget is spent.
        let attempted = self.tried.contains(&true);
        let remaining = self.deadline.saturating_duration_since(now);
        if attempted
            && self.round + 1 < shared.config.max_retry_rounds.max(1)
            && !remaining.is_zero()
        {
            let wait = self
                .retry_hint
                .take()
                .unwrap_or_else(|| retry_backoff(&shared.config, self.hash, self.round));
            return RouteStep::Wait(now + wait.min(remaining));
        }
        RouteStep::Done(self.last.take().unwrap_or_else(|| {
            shared.metrics.fallback_503.fetch_add(1, Ordering::Relaxed);
            Response::json(503, error_body("no live backend")).with_header("X-Backend", "none")
        }))
    }
}

/// A bound (but not yet serving) router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Router {
    /// Binds the listener and builds the ring over `config.backends`.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared::new(config));
        Ok(Router { listener, shared })
    }

    /// The actually bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the reactor, the health prober (which also dials the
    /// reactor's upstream sockets) and the repair worker; returns the
    /// stop handle. The router has no pool workers.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn start(self) -> io::Result<RouterHandle> {
        let config = &self.shared.config;
        let engine_config = ServerConfig {
            workers: 0,
            read_timeout: config.read_timeout,
            trace_slow_us: config.trace_slow_us,
            // The cap on routes in flight and the connection cap are a
            // node's queue and connection defaults.
            ..ServerConfig::default()
        };
        let engine = serve(self.listener, Arc::clone(&self.shared), &engine_config)?;
        let prober = {
            let shared = Arc::clone(&self.shared);
            let mut handback = engine.handback()?;
            std::thread::spawn(move || probe_loop(&shared, &mut handback))
        };
        let repairer = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || repair_loop(&shared))
        };
        Ok(RouterHandle {
            engine,
            shared: self.shared,
            prober,
            repairer,
        })
    }

    /// Binds-and-routes forever (the `bi-router` binary's main loop).
    ///
    /// # Errors
    ///
    /// Propagates startup failures; never returns otherwise.
    pub fn run(self) -> io::Result<()> {
        self.start()?.engine.join();
        Ok(())
    }
}

/// A running router: address plus the stop switch.
pub struct RouterHandle {
    engine: Engine<Infallible>,
    shared: Arc<Shared>,
    prober: JoinHandle<()>,
    repairer: JoinHandle<()>,
}

impl RouterHandle {
    /// The routing address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The `GET /metrics` document (for asserting in tests without a
    /// socket round-trip).
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        metrics_json(&self.shared)
    }

    /// Stops the reactor, the prober and the repair worker, joining
    /// every thread.
    pub fn stop(self) {
        self.engine.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.repair_queued.notify_all();
        self.shared.dial_queued.notify_all();
        let _ = self.prober.join();
        let _ = self.repairer.join();
    }
}

/// Where a cache key sits on the ring. A `/solve` body and each game of
/// a `/solve_batch` are placed through here, so a game routes to the
/// same backend whether it is sent alone or inside a batch.
fn route_hash(key: &[u8]) -> u64 {
    xxh64(key)
}

/// The routing hash of a `/solve` body: the [`route_hash`] of its
/// content address, through the body-bytes → hash cache so hot traffic
/// skips even the key scan. On a key-cache miss the body is keyed by
/// [`solve_key`], a node's own keying (a `400` when a non-canonical body
/// does not decode; a canonical one that does not decode is answered
/// `400` by its node). The second value is what to forward: the body
/// itself when it arrived canonical, else the canonical bytes
/// [`solve_key`] encoded, so the node keys them by their spans and
/// decodes them once, on its pool. The third says whether the body
/// arrived canonical and so may enter the key cache once answered
/// `200`: [`handle_solve`] inserts it then, so a body that never decodes
/// never takes a key-cache entry.
///
/// The cache is looked up **first**, without checking the body. This is
/// sound because only bodies `span_key` keys (they pass
/// [`bi_util::json::canon_check`]) are ever inserted, and a hit compares
/// the full body bytes, so a hit is byte-identical to a body that once
/// passed the check.
fn routing_hash<'a>(
    shared: &Shared,
    body: &'a [u8],
) -> Result<(u64, Cow<'a, [u8]>, bool), Response> {
    if let Some(hash) = shared.key_cache.get(body) {
        debug_assert!(
            bi_util::json::canon_check(body),
            "only canonical bodies enter the key cache"
        );
        return Ok((hash, Cow::Borrowed(body), false));
    }
    let (key, canonical) = solve_key(body).map_err(|e| ServeError::Decode(e).response())?;
    let arrived_canonical = matches!(canonical, Cow::Borrowed(_));
    Ok((route_hash(&key), canonical, arrived_canonical))
}

/// The router's aggregated `GET /healthz`: overall status plus one row
/// per backend with liveness, ejection/readmission counts, the failure
/// streak, and probe recency — canonical JSON, so two routers over the
/// same cluster state answer byte-identically (modulo probe timing).
fn healthz_json(shared: &Shared) -> Json {
    let now_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let mut live = 0u64;
    let rows: Vec<Json> = shared
        .backends
        .iter()
        .map(|b| {
            let alive = b.alive.load(Ordering::Relaxed);
            live += u64::from(alive);
            let last_probe = b.last_probe_ms.load(Ordering::Relaxed);
            Json::Obj(vec![
                ("addr".into(), Json::str(b.addr.clone())),
                ("alive".into(), Json::Bool(alive)),
                ("ejected".into(), Json::Bool(!alive)),
                (
                    "consecutive_failures".into(),
                    Json::from_u64(b.consecutive_failures.load(Ordering::Relaxed)),
                ),
                (
                    "ejects".into(),
                    Json::from_u64(b.ejects.load(Ordering::Relaxed)),
                ),
                (
                    "readmits".into(),
                    Json::from_u64(b.readmits.load(Ordering::Relaxed)),
                ),
                (
                    "last_probe_ms_ago".into(),
                    if last_probe == u64::MAX {
                        Json::Null
                    } else {
                        Json::from_u64(now_ms.saturating_sub(last_probe))
                    },
                ),
            ])
        })
        .collect();
    let status = if shared.backends.is_empty() || live > 0 {
        "ok"
    } else {
        "degraded"
    };
    Json::Obj(vec![
        ("status".into(), Json::str(status)),
        ("live_backends".into(), Json::from_u64(live)),
        (
            "replication".into(),
            Json::from_u64(shared.config.replication.max(1) as u64),
        ),
        ("backends".into(), Json::Arr(rows)),
    ])
}

/// A status the router retries on another replica (or a later round)
/// instead of returning: the backend answered — it is alive and earns no
/// ejection credit — but the work was shed (`429`) or lost (`5xx`).
fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 500 | 502..=504)
}

/// The sleep before retry round `round + 1`: exponential in the round,
/// capped, with deterministic jitter in `[cap/2, cap]` drawn from the
/// key hash — two routers never thundering-herd the same backend on the
/// same schedule, yet a rerun of the same traffic backs off identically.
fn retry_backoff(config: &RouterConfig, hash: u64, round: u32) -> Duration {
    let base = u64::try_from(RETRY_BASE_BACKOFF.as_millis()).unwrap_or(u64::MAX);
    let cap = u64::try_from(config.retry_max_backoff.as_millis().max(1)).unwrap_or(u64::MAX);
    let exp = base.saturating_mul(1u64 << round.min(16)).min(cap).max(1);
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&hash.to_le_bytes());
    seed[8..].copy_from_slice(&u64::from(round).to_le_bytes());
    Duration::from_millis(exp / 2 + fnv1a(&seed) % (exp / 2 + 1))
}

/// An upstream answer as the router returns it: the status and body as
/// they came, the answering backend in `X-Backend`, and the upstream's
/// `X-Cache` and `Retry-After` when it sent them.
fn relay(backend: &Backend, upstream: ClientResponse) -> Response {
    let ClientResponse {
        status,
        headers,
        body,
    } = upstream;
    let mut response = Response::json(status, body).with_header("X-Backend", backend.addr.clone());
    for (name, value) in headers {
        match name.as_str() {
            "x-cache" => response = response.with_header("X-Cache", value),
            "retry-after" => response = response.with_header("Retry-After", value),
            _ => {}
        }
    }
    response
}

/// Queues `POST /cache_put` deliveries reconciling a just-served `200`
/// with the key's intended owners: write-through of fresh misses to
/// live owners that did not serve it, read-repair to dead owners so a
/// returning backend is repopulated without re-solving. Live owners are
/// skipped on cache hits (steady state — they were written through when
/// the result was first solved). Deduplicated by `(owner, key hash)`
/// and bounded; overflow is dropped and counted.
fn schedule_repairs(
    shared: &Shared,
    owners: &[usize],
    served_by: usize,
    hash: u64,
    request: &[u8],
    response: &[u8],
    miss: bool,
) {
    let Ok(request_len) = u32::try_from(request.len()) else {
        return;
    };
    for &owner in owners {
        if owner == served_by {
            continue;
        }
        let owner_alive = shared.backends[owner].alive.load(Ordering::Relaxed);
        if owner_alive && !miss {
            continue;
        }
        let mut queue = shared.repair.lock().expect("repair queue poisoned");
        if !queue.pending.insert((owner, hash)) {
            continue; // a delivery for this (owner, key) is already queued
        }
        if queue.jobs.len() >= REPAIR_QUEUE_CAPACITY {
            queue.pending.remove(&(owner, hash));
            shared.metrics.repair_drops.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let mut framed = Vec::with_capacity(4 + request.len() + response.len());
        framed.extend_from_slice(&request_len.to_le_bytes());
        framed.extend_from_slice(request);
        framed.extend_from_slice(response);
        queue.jobs.push_back(RepairJob {
            backend: owner,
            hash,
            body: framed,
            repair: !owner_alive,
            attempts: 0,
        });
        drop(queue);
        shared.repair_queued.notify_one();
    }
}

/// The repair worker: drains queued deliveries, holding jobs whose
/// target is still ejected (re-queued until the prober readmits it —
/// that is what repopulates a restarted backend), and giving up on jobs
/// a live target keeps refusing.
fn repair_loop(shared: &Shared) {
    // The worker's own blocking keep-alive client per backend.
    let mut clients: Vec<Option<HttpClient>> = shared.backends.iter().map(|_| None).collect();
    while !shared.shutdown.load(Ordering::Relaxed) {
        let job = {
            let mut queue = shared.repair.lock().expect("repair queue poisoned");
            if queue.jobs.is_empty() {
                // `schedule_repairs` and `stop` notify; the timeout only
                // bounds a wake-up lost to a racing stop.
                queue = shared
                    .repair_queued
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("repair queue poisoned")
                    .0;
            }
            queue.jobs.pop_front()
        };
        let Some(mut job) = job else {
            continue;
        };
        if !shared.backends[job.backend].alive.load(Ordering::Relaxed) {
            // The target is ejected: hold the job for its return.
            shared
                .repair
                .lock()
                .expect("repair queue poisoned")
                .jobs
                .push_back(job);
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let addr = &shared.backends[job.backend].addr;
        match put(&mut clients[job.backend], addr, &job.body) {
            Ok(response) if response.status == 200 => {
                shared
                    .repair
                    .lock()
                    .expect("repair queue poisoned")
                    .pending
                    .remove(&(job.backend, job.hash));
                let counter = if job.repair {
                    &shared.metrics.read_repairs
                } else {
                    &shared.metrics.replication_writes
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                job.attempts += 1;
                let mut queue = shared.repair.lock().expect("repair queue poisoned");
                if job.attempts >= REPAIR_MAX_ATTEMPTS {
                    queue.pending.remove(&(job.backend, job.hash));
                    shared.metrics.repair_drops.fetch_add(1, Ordering::Relaxed);
                } else {
                    queue.jobs.push_back(job);
                }
                drop(queue);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// One `POST /cache_put` to `addr` over the repair worker's `client`,
/// retried once on a fresh socket (a kept-alive one may have idled out
/// on the backend side between bursts).
fn put(client: &mut Option<HttpClient>, addr: &str, body: &[u8]) -> io::Result<ClientResponse> {
    if let Some(kept) = client.as_mut() {
        if let Ok(response) = kept.request("POST", "/cache_put", body) {
            return Ok(response);
        }
    }
    *client = None;
    let mut fresh = HttpClient::connect_timeout(addr, CONNECT_TIMEOUT)?;
    fresh.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
    let response = fresh.request("POST", "/cache_put", body)?;
    *client = Some(fresh);
    Ok(response)
}

/// The prober: dials every socket the reactor asks for, handing each
/// back over the wake channel, and probes every backend's `/healthz` on
/// the configured interval. Dials go first — a route is waiting on each
/// — so between two probes it serves every queued dial.
fn probe_loop(shared: &Shared, handback: &mut Handback) {
    let mut next_probe = Instant::now();
    loop {
        let dial = {
            let mut dials = shared.dials.lock().expect("dial queue poisoned");
            if dials.is_empty() && !shared.shutdown.load(Ordering::Relaxed) {
                let wait = next_probe.saturating_duration_since(Instant::now());
                dials = shared
                    .dial_queued
                    .wait_timeout(dials, wait)
                    .expect("dial queue poisoned")
                    .0;
            }
            dials.pop_front()
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if let Some(idx) = dial {
            handback.give(idx, dial_backend(&shared.backends[idx]));
            continue;
        }
        if Instant::now() < next_probe {
            continue;
        }
        for backend in &shared.backends {
            while let Some(idx) = shared
                .dials
                .lock()
                .expect("dial queue poisoned")
                .pop_front()
            {
                handback.give(idx, dial_backend(&shared.backends[idx]));
            }
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if probe(backend) {
                backend.record_success();
            } else {
                backend.record_failure(shared.config.fail_threshold);
            }
            backend.last_probe_ms.store(
                u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        next_probe = Instant::now() + shared.config.probe_interval;
    }
}

/// A fresh socket to `backend` for the reactor: nodelay and nonblocking,
/// its connect bounded by [`CONNECT_TIMEOUT`].
fn dial_backend(backend: &Backend) -> io::Result<TcpStream> {
    let stream = dial(&backend.addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// One `/healthz` round-trip on a fresh connection, each leg bounded by
/// [`CONNECT_TIMEOUT`].
fn probe(backend: &Backend) -> bool {
    let Ok(mut client) = HttpClient::connect_timeout(&backend.addr, CONNECT_TIMEOUT) else {
        return false;
    };
    if client.set_read_timeout(Some(CONNECT_TIMEOUT)).is_err() {
        return false;
    }
    client
        .request("GET", "/healthz", b"")
        .is_ok_and(|response| response.status == 200)
}

/// The router's `GET /metrics` document, per-backend array included.
fn metrics_json(shared: &Shared) -> Json {
    let load = |a: &AtomicU64| Json::from_u64(a.load(Ordering::Relaxed));
    let served = &shared.served;
    let key_cache = shared.key_cache.stats();
    let backends: Vec<Json> = shared
        .backends
        .iter()
        .map(|b| {
            Json::Obj(vec![
                ("addr".into(), Json::str(b.addr.clone())),
                ("alive".into(), Json::Bool(b.alive.load(Ordering::Relaxed))),
                ("consecutive_failures".into(), load(&b.consecutive_failures)),
                ("forwarded".into(), load(&b.forwarded)),
                ("upstream_errors".into(), load(&b.upstream_errors)),
                ("ejects".into(), load(&b.ejects)),
                ("readmits".into(), load(&b.readmits)),
                ("pooled_connections".into(), load(&b.pooled)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("requests_total".into(), load(&served.requests_total)),
        ("solve_requests".into(), load(&served.solve_requests)),
        ("batch_requests".into(), load(&served.batch_requests)),
        ("connections_total".into(), load(&served.connections_total)),
        (
            "responses".into(),
            Json::Obj(vec![
                ("status_2xx".into(), load(&served.responses_2xx)),
                ("status_4xx".into(), load(&served.responses_4xx)),
                ("status_5xx".into(), load(&served.responses_5xx)),
            ]),
        ),
        (
            "fallback".into(),
            Json::Obj(vec![(
                "unavailable_503".into(),
                load(&shared.metrics.fallback_503),
            )]),
        ),
        (
            "retries".into(),
            Json::Obj(vec![
                ("transport".into(), load(&shared.metrics.retries_transport)),
                ("status_5xx".into(), load(&shared.metrics.retries_5xx)),
                ("status_429".into(), load(&shared.metrics.retries_429)),
            ]),
        ),
        (
            "replication".into(),
            Json::Obj(vec![
                (
                    "factor".into(),
                    Json::from_u64(shared.config.replication.max(1) as u64),
                ),
                ("writes".into(), load(&shared.metrics.replication_writes)),
                ("read_repairs".into(), load(&shared.metrics.read_repairs)),
                ("repair_drops".into(), load(&shared.metrics.repair_drops)),
                (
                    "repair_queue_depth".into(),
                    Json::from_u64(
                        shared
                            .repair
                            .lock()
                            .expect("repair queue poisoned")
                            .jobs
                            .len() as u64,
                    ),
                ),
            ]),
        ),
        ("stages".into(), served.stages.to_json()),
        (
            "key_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::from_u64(key_cache.hits)),
                ("misses".into(), Json::from_u64(key_cache.misses)),
                ("entries".into(), Json::from_u64(key_cache.entries as u64)),
            ]),
        ),
        ("backends".into(), Json::Arr(backends)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full assignment of `count` deterministic key hashes.
    fn assignment(ring: &HashRing, live: &[bool], count: u64) -> Vec<Option<usize>> {
        (0..count)
            .map(|i| ring.route(route_hash(format!("key-{i}").as_bytes()), |b| live[b]))
            .collect()
    }

    #[test]
    fn routing_is_deterministic() {
        let a = HashRing::new(3, 64);
        let b = HashRing::new(3, 64);
        let all = vec![true; 3];
        assert_eq!(assignment(&a, &all, 1000), assignment(&b, &all, 1000));
    }

    #[test]
    fn every_backend_owns_a_share_of_the_space() {
        let ring = HashRing::new(3, 64);
        let all = vec![true; 3];
        let mut counts = [0usize; 3];
        for owner in assignment(&ring, &all, 3000) {
            counts[owner.unwrap()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > 300,
                "backend {i} owns {count}/3000 keys — vnodes are not spreading"
            );
        }
    }

    #[test]
    fn eject_moves_only_the_ejected_arc_and_readmit_restores_it() {
        let ring = HashRing::new(3, 64);
        let before = assignment(&ring, &[true, true, true], 2000);
        let after = assignment(&ring, &[true, false, true], 2000);
        let mut moved = 0usize;
        for (b, a) in before.iter().zip(&after) {
            let (b, a) = (b.unwrap(), a.unwrap());
            if b == 1 {
                // The ejected backend's keys must land elsewhere …
                assert_ne!(a, 1, "a key still routes to the ejected backend");
                moved += 1;
            } else {
                // … and every other key must keep its mapping exactly.
                assert_eq!(a, b, "an unrelated arc moved on eject");
            }
        }
        assert!(moved > 0, "the ejected backend owned no keys");
        // Readmission restores the original assignment bit-for-bit.
        let restored = assignment(&ring, &[true, true, true], 2000);
        assert_eq!(before, restored);
    }

    #[test]
    fn route_is_none_only_when_every_backend_is_dead() {
        let ring = HashRing::new(2, 16);
        assert_eq!(ring.route(12345, |_| false), None);
        assert!(ring.route(12345, |i| i == 1).is_some());
        assert_eq!(HashRing::new(0, 16).route(1, |_| true), None);
    }

    #[test]
    fn route_replicas_yields_distinct_owners_led_by_the_primary() {
        let ring = HashRing::new(4, 64);
        for i in 0..500u64 {
            let hash = route_hash(format!("key-{i}").as_bytes());
            let owners = ring.route_replicas(hash, 2, |_| true);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(Some(owners[0]), ring.route(hash, |_| true));
        }
        // Asking for more replicas than backends yields every backend.
        let mut all = ring.route_replicas(route_hash(b"k"), 9, |_| true);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert!(ring
            .route_replicas(route_hash(b"k"), 0, |_| true)
            .is_empty());
    }

    #[test]
    fn ejecting_a_backend_keeps_every_surviving_owner_in_place() {
        let ring = HashRing::new(4, 64);
        for i in 0..500u64 {
            let hash = route_hash(format!("key-{i}").as_bytes());
            let before = ring.route_replicas(hash, 2, |_| true);
            let after = ring.route_replicas(hash, 2, |b| b != 1);
            // Surviving owners keep their relative order; the ejected
            // backend's slot is backfilled by the next ring successor.
            let survivors: Vec<usize> = before.iter().copied().filter(|&b| b != 1).collect();
            assert_eq!(&after[..survivors.len()], &survivors[..]);
            assert!(!after.contains(&1));
            assert_eq!(after.len(), 2);
        }
    }

    /// Router state over `n` backends that are never dialed: the route
    /// tests below drive [`Route`] with scripted outcomes, no sockets.
    fn shared_over(n: usize, config: RouterConfig) -> Shared {
        Shared::new(RouterConfig {
            backends: (0..n).map(|i| format!("127.0.0.1:{}", 9 + i)).collect(),
            ..config
        })
    }

    fn answer(status: u16, headers: &[(&str, &str)], body: &[u8]) -> Outcome {
        Outcome::Answer(ClientResponse {
            status,
            headers: headers
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            body: body.to_vec(),
        })
    }

    fn sent(step: RouteStep) -> usize {
        match step {
            RouteStep::Send(backend) => backend,
            other => panic!("expected a send, got {other:?}"),
        }
    }

    fn done(step: RouteStep) -> Response {
        match step {
            RouteStep::Done(response) => response,
            other => panic!("expected an answer, got {other:?}"),
        }
    }

    fn header<'a>(response: &'a Response, name: &str) -> Option<&'a str> {
        let mut found = response.extra_headers.iter().filter(|(k, _)| *k == name);
        found.next().map(|(_, v)| v.as_str())
    }

    const BODY: &[u8] = b"{}";
    const HASH: u64 = 0x5eed;

    #[test]
    fn a_transport_error_fails_over_to_the_next_live_replica_and_counts_toward_ejection() {
        let shared = shared_over(
            2,
            RouterConfig {
                fail_threshold: 1,
                ..RouterConfig::default()
            },
        );
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now + REQUEST_DEADLINE);
        let first = sent(route.step(&shared, BODY, Outcome::Start, now));
        let second = sent(route.step(&shared, BODY, Outcome::Failed, now));
        assert_ne!(first, second, "the failover goes to the other replica");
        let failed = &shared.backends[first];
        assert_eq!(failed.upstream_errors.load(Ordering::Relaxed), 1);
        assert_eq!(
            failed.ejects.load(Ordering::Relaxed),
            1,
            "threshold 1 ejects"
        );
        assert!(!failed.alive.load(Ordering::Relaxed));
        let metrics = &shared.metrics;
        assert_eq!(metrics.retries_transport.load(Ordering::Relaxed), 1);
        let relayed = done(route.step(
            &shared,
            BODY,
            answer(200, &[("x-cache", "hit")], b"[1]"),
            now,
        ));
        assert_eq!((relayed.status, &relayed.body[..]), (200, &b"[1]"[..]));
        assert_eq!(
            header(&relayed, "X-Backend"),
            Some(shared.backends[second].addr.as_str())
        );
        assert_eq!(header(&relayed, "X-Cache"), Some("hit"));
    }

    #[test]
    fn a_429_with_retry_after_one_waits_one_second() {
        let shared = shared_over(1, RouterConfig::default());
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now + REQUEST_DEADLINE);
        assert_eq!(sent(route.step(&shared, BODY, Outcome::Start, now)), 0);
        let shed = answer(429, &[("retry-after", "1")], b"{}");
        match route.step(&shared, BODY, shed, now) {
            RouteStep::Wait(until) => assert_eq!(until, now + Duration::from_secs(1)),
            other => panic!("expected a wait, got {other:?}"),
        }
        assert_eq!(shared.metrics.retries_429.load(Ordering::Relaxed), 1);
        assert!(
            shared.backends[0].alive.load(Ordering::Relaxed),
            "a 429 is no failure"
        );
        let later = now + Duration::from_secs(1);
        assert_eq!(sent(route.step(&shared, BODY, Outcome::Woke, later)), 0);
    }

    #[test]
    fn a_5xx_goes_to_the_other_replica_then_to_the_next_round_after_the_jittered_backoff() {
        let shared = shared_over(2, RouterConfig::default());
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now + REQUEST_DEADLINE);
        let first = sent(route.step(&shared, BODY, Outcome::Start, now));
        let second = sent(route.step(&shared, BODY, answer(503, &[], b"{}"), now));
        assert_ne!(first, second);
        let backoff = retry_backoff(&shared.config, HASH, 0);
        assert!(
            (RETRY_BASE_BACKOFF / 2..=RETRY_BASE_BACKOFF).contains(&backoff),
            "round 0 jitters within [base/2, base]: {backoff:?}"
        );
        match route.step(&shared, BODY, answer(500, &[], b"{}"), now) {
            RouteStep::Wait(until) => assert_eq!(until, now + backoff),
            other => panic!("expected a wait, got {other:?}"),
        }
        assert_eq!(shared.metrics.retries_5xx.load(Ordering::Relaxed), 2);
        // The next round walks the ring from the key's owner again.
        assert_eq!(
            sent(route.step(&shared, BODY, Outcome::Woke, now + backoff)),
            first
        );
    }

    #[test]
    fn exhausted_rounds_relay_the_last_upstream_answer_with_x_backend() {
        let shared = shared_over(
            1,
            RouterConfig {
                max_retry_rounds: 2,
                ..RouterConfig::default()
            },
        );
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now + REQUEST_DEADLINE);
        sent(route.step(&shared, BODY, Outcome::Start, now));
        let first = answer(503, &[], b"{\"round\":0}");
        assert!(matches!(
            route.step(&shared, BODY, first, now),
            RouteStep::Wait(_)
        ));
        sent(route.step(&shared, BODY, Outcome::Woke, now));
        let last = answer(502, &[("retry-after", "3")], b"{\"round\":1}");
        let relayed = done(route.step(&shared, BODY, last, now));
        assert_eq!(
            (relayed.status, &relayed.body[..]),
            (502, &b"{\"round\":1}"[..])
        );
        assert_eq!(
            header(&relayed, "X-Backend"),
            Some(shared.backends[0].addr.as_str())
        );
        assert_eq!(header(&relayed, "Retry-After"), Some("3"));
        assert_eq!(shared.metrics.fallback_503.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn with_no_live_backend_the_answer_is_503_from_none() {
        let shared = shared_over(2, RouterConfig::default());
        for backend in &shared.backends {
            backend.alive.store(false, Ordering::Relaxed);
        }
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now + REQUEST_DEADLINE);
        let answer = done(route.step(&shared, BODY, Outcome::Start, now));
        assert_eq!(answer.status, 503);
        assert_eq!(answer.body, br#"{"error":"no live backend"}"#);
        assert_eq!(header(&answer, "X-Backend"), Some("none"));
        assert_eq!(shared.metrics.fallback_503.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_spent_deadline_stops_the_route() {
        let shared = shared_over(2, RouterConfig::default());
        let now = Instant::now();
        let mut route = Route::new(&shared, HASH, now);
        let first = sent(route.step(&shared, BODY, Outcome::Start, now));
        // The round still tries every live replica …
        let second = sent(route.step(&shared, BODY, answer(503, &[], b"{}"), now));
        assert_ne!(first, second);
        // … but with the budget spent, no next round is waited for: the
        // last answer is relayed.
        let relayed = done(route.step(&shared, BODY, answer(504, &[], b"{}"), now));
        assert_eq!(relayed.status, 504);
        assert_eq!(
            header(&relayed, "X-Backend"),
            Some(shared.backends[second].addr.as_str())
        );
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::new(1, 8);
        for i in 0..100u64 {
            assert_eq!(ring.route(route_hash(&i.to_le_bytes()), |_| true), Some(0));
        }
    }
}
