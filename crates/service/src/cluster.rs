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
//! and `GET /debug/trace` on the reactor thread and hands every
//! `POST /solve` and `POST /solve_batch` to a bounded pool of
//! forwarders, one per pooled upstream connection (`backends ×
//! POOL_CAPACITY`). The forwarders block on upstream I/O, retries and
//! backoff; the reactor never does. A full forward queue is answered
//! `429` + `Retry-After`, exactly as a node sheds load. Connection and
//! status counters and stage histograms live in the router's own
//! [`ServiceMetrics`], the struct a node reports; the router adds only
//! its `503`, retry and replication counters. The router never solves:
//! every answer it returns came from a node.
//!
//! Health is probed (`GET /healthz`) on an interval; forwarding failures
//! count against the same consecutive-failure threshold, so a backend
//! that dies mid-burst is ejected by the traffic itself rather than
//! waiting for the next probe cycle. Upstream connections are pooled and
//! kept alive per backend. A `/solve_batch` is split by the splitter a
//! node uses, which decodes it once to reject an invalid game; each of
//! its games is routed as its canonical `/solve` body, with the retries,
//! failover, write-through and read-repair below, and the answers are
//! spliced in request order, exactly as a node splices its own.
//!
//! **Replication** (`--replication R`): each key's *intended owners* are
//! its first R distinct ring successors, liveness-blind
//! ([`HashRing::route_replicas`]). Serving still walks the live ring —
//! when the primary is dead the next live replica answers from its own
//! copy — and a background worker, woken as each delivery is queued,
//! brings the owners back in sync over `POST /cache_put`: freshly
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
//! otherwise — plus `parse`/`write` spans and a root `route` span. The
//! forwarders record `ring_lookup` and one `upstream` span per forward
//! attempt, and forward the trace id plus the upstream span id
//! (`X-Bi-Trace` / `X-Bi-Parent`) so the backend's own spans nest under
//! this hop. Everything lands in the router's own [`Recorder`], which
//! `GET /debug/trace` dumps.
//!
//! [`Dispatcher`]: crate::server

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bi_obs::{Recorder, Stage, TraceCtx};
use bi_util::{fnv1a, xxh64, Json};

use crate::cache::{CacheConfig, ShardedLru};
use crate::fault::mix;
use crate::http::{ClientResponse, HttpClient, Response};
use crate::metrics::ServiceMetrics;
use crate::server::{serve, Dispatcher, Engine, Reply, Request, ServerConfig};
use crate::service::{error_body, reports_body, solve_key, split_batch, ServeError};

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
/// timeouts, the pool size, the deadline budget, the first backoff and
/// the repair-queue bound are constants of this module.
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
/// Connect deadline for upstream sockets (forwarding and probing).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Response deadline for a forwarded request.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);
/// Pooled keep-alive connections retained per backend. The router runs
/// one forwarder thread per pooled connection (`backends ×
/// POOL_CAPACITY`, at least one).
const POOL_CAPACITY: usize = 8;
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

/// One upstream backend: liveness, failure accounting, and the
/// keep-alive connection pool.
struct Backend {
    addr: String,
    alive: AtomicBool,
    consecutive_failures: AtomicU64,
    pool: Mutex<Vec<HttpClient>>,
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
            pool: Mutex::new(Vec::new()),
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
            // A dead backend's pooled connections are dead too.
            self.pool.lock().expect("pool poisoned").clear();
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

/// Everything the reactor, the forwarders, the prober and the repair
/// worker share; it is also the router's [`Dispatcher`].
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
    /// Router start time — the epoch of `last_probe_ms`.
    started: Instant,
    /// Stops the prober and the repair worker.
    shutdown: AtomicBool,
}

/// A `POST /solve` or `POST /solve_batch` body (copied out of the
/// connection buffer) on its way to a forwarder, with its trace.
enum Forward {
    Solve(Vec<u8>, TraceCtx),
    Batch(Vec<u8>, TraceCtx),
}

impl Dispatcher for Shared {
    type Job = Forward;
    const ROOT: Stage = Stage::Route;
    const NAME: &'static str = "bi-router";

    fn metrics(&self) -> &ServiceMetrics {
        &self.served
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn dispatch(&self, request: &Request<'_>, reply: &mut Reply<'_>) -> Option<Forward> {
        match (request.method, request.path) {
            (b"POST", b"/solve") => {
                return Some(Forward::Solve(request.body.to_vec(), request.ctx))
            }
            (b"POST", b"/solve_batch") => {
                return Some(Forward::Batch(request.body.to_vec(), request.ctx));
            }
            (b"GET", b"/healthz") => reply.send(200, &healthz_json(self).canonical_bytes(), &[]),
            (b"GET", b"/metrics") => {
                reply.send(200, metrics_json(self).to_string().as_bytes(), &[])
            }
            (b"GET", b"/debug/trace") => {
                reply.send(200, self.recorder.to_json().to_string().as_bytes(), &[]);
            }
            (_, b"/solve" | b"/solve_batch" | b"/healthz" | b"/metrics" | b"/debug/trace") => {
                reply.send(405, &error_body("method not allowed"), &[]);
            }
            _ => reply.send(404, &error_body("unknown endpoint"), &[]),
        }
        None
    }

    fn run(&self, job: Forward) -> Response {
        match job {
            Forward::Solve(body, ctx) => handle_solve(self, &body, ctx),
            Forward::Batch(body, ctx) => handle_batch(self, &body, ctx),
        }
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
        let ring = HashRing::new(config.backends.len(), VNODES);
        let backends = config.backends.iter().cloned().map(Backend::new).collect();
        let key_cache = ShardedLru::new(config.key_cache);
        let shared = Arc::new(Shared {
            ring,
            backends,
            metrics: RouterMetrics::default(),
            key_cache,
            served: ServiceMetrics::default(),
            recorder: Recorder::default(),
            repair: Mutex::new(RepairQueue::default()),
            repair_queued: Condvar::new(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            config,
        });
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

    /// Starts the reactor with its forwarders, the health prober and the
    /// repair worker; returns the stop handle.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn start(self) -> io::Result<RouterHandle> {
        let config = &self.shared.config;
        let engine_config = ServerConfig {
            // One forwarder per pooled upstream connection.
            workers: (config.backends.len() * POOL_CAPACITY).max(1),
            read_timeout: config.read_timeout,
            trace_slow_us: config.trace_slow_us,
            // The forward-queue bound and the connection cap are a
            // node's defaults.
            ..ServerConfig::default()
        };
        let engine = serve(self.listener, Arc::clone(&self.shared), &engine_config)?;
        let prober = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || probe_loop(&shared))
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
    engine: Engine<Forward>,
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

    /// Stops the reactor, the forwarders, the prober and the repair
    /// worker, joining every thread.
    pub fn stop(self) {
        self.engine.stop();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.repair_queued.notify_all();
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

/// [`forward`] as one `upstream` span. The span id is minted up front so
/// it rides the forwarded `X-Bi-Trace` / `X-Bi-Parent` headers as the
/// backend's parent, nesting the backend's spans under this hop.
fn forward_traced(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: &[u8],
    ctx: TraceCtx,
) -> io::Result<ClientResponse> {
    let recorder = &shared.recorder;
    let span = recorder.next_span_id();
    let headers = if ctx.active() {
        vec![
            ("X-Bi-Trace", ctx.trace_id.to_string()),
            ("X-Bi-Parent", span.to_string()),
        ]
    } else {
        Vec::new()
    };
    let t0 = recorder.now_ns();
    let outcome = forward(shared, idx, path, body, &headers);
    let t1 = recorder.now_ns();
    shared
        .served
        .stages
        .record(Stage::Upstream, t1.saturating_sub(t0) / 1_000);
    if ctx.active() {
        recorder.record_span(span, ctx.trace_id, ctx.parent, Stage::Upstream, t0, t1);
    }
    outcome
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

/// Routes one `/solve` body: the routing-hash lookup (its
/// `ring_lookup` stage), then [`route_solve`] of its canonical bytes
/// under the request's deadline budget.
fn handle_solve(shared: &Shared, body: &[u8], ctx: TraceCtx) -> Response {
    shared.served.solve_requests.fetch_add(1, Ordering::Relaxed);
    let t_lookup = shared.recorder.now_ns();
    let (hash, canonical, cacheable) = match routing_hash(shared, body) {
        Ok(routed) => routed,
        Err(response) => return response,
    };
    shared
        .served
        .finish_stage(&shared.recorder, ctx, Stage::RingLookup, t_lookup);
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let answer = route_solve(shared, hash, &canonical, ctx, deadline);
    if cacheable && answer.status == 200 {
        shared.key_cache.insert(body, hash);
    }
    answer
}

/// Routes one canonical `/solve` body whose key hashes to `hash`, until
/// `deadline`: forward to the key's backend, failing over clockwise on
/// transport errors (each feeds the ejection counter), retrying
/// retryable statuses across replicas and rounds with capped jittered
/// backoff (honoring upstream `Retry-After`). A served `200` schedules
/// write-through/read-repair to the key's other intended owners. When
/// the rounds or the budget run out, the last upstream answer is
/// returned as it came; a request that no live backend answered gets
/// `503`.
fn route_solve(
    shared: &Shared,
    hash: u64,
    body: &[u8],
    ctx: TraceCtx,
    deadline: Instant,
) -> Response {
    // The key's intended owners, liveness-blind: where its value should
    // live. The serve walk below skips dead backends; `schedule_repairs`
    // reconciles the difference after a successful serve.
    let owners = shared
        .ring
        .route_replicas(hash, shared.config.replication.max(1), |_| true);
    let mut retry_hint: Option<Duration> = None;
    let mut last: Option<Response> = None;
    for round in 0..shared.config.max_retry_rounds.max(1) {
        let mut tried = vec![false; shared.backends.len()];
        let mut attempted = false;
        while let Some(idx) = shared.ring.route(hash, |i| {
            !tried[i] && shared.backends[i].alive.load(Ordering::Relaxed)
        }) {
            tried[idx] = true;
            attempted = true;
            let backend = &shared.backends[idx];
            // Each attempt is its own `upstream` span.
            match forward_traced(shared, idx, "/solve", body, ctx) {
                Ok(upstream) if retryable_status(upstream.status) => {
                    backend.record_success();
                    let cause = if upstream.status == 429 {
                        &shared.metrics.retries_429
                    } else {
                        &shared.metrics.retries_5xx
                    };
                    cause.fetch_add(1, Ordering::Relaxed);
                    retry_hint = upstream
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                        .or(retry_hint);
                    last = Some(relay(backend, upstream));
                }
                Ok(upstream) => {
                    backend.record_success();
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                    if upstream.status == 200 {
                        let miss = upstream.header("x-cache") == Some("miss");
                        schedule_repairs(shared, &owners, idx, hash, body, &upstream.body, miss);
                    }
                    return relay(backend, upstream);
                }
                Err(_) => {
                    shared
                        .metrics
                        .retries_transport
                        .fetch_add(1, Ordering::Relaxed);
                    backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
                    backend.record_failure(shared.config.fail_threshold);
                }
            }
        }
        if !attempted || round + 1 >= shared.config.max_retry_rounds.max(1) {
            break; // nobody live, or rounds exhausted
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break; // deadline budget spent
        }
        let wait = retry_hint
            .take()
            .unwrap_or_else(|| retry_backoff(&shared.config, hash, round));
        std::thread::sleep(wait.min(remaining));
    }
    last.unwrap_or_else(|| {
        shared.metrics.fallback_503.fetch_add(1, Ordering::Relaxed);
        Response::json(503, error_body("no live backend")).with_header("X-Backend", "none")
    })
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
        match forward(shared, job.backend, "/cache_put", &job.body, &[]) {
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

/// Forwards one request to backend `idx` over a pooled connection,
/// retrying once on a fresh socket (a pooled connection may have idled
/// out on the backend side between bursts).
fn forward(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: &[u8],
    extra: &[(&str, String)],
) -> io::Result<ClientResponse> {
    let backend = &shared.backends[idx];
    let pooled = backend.pool.lock().expect("pool poisoned").pop();
    if let Some(mut client) = pooled {
        if let Ok(response) = client.request_with("POST", path, body, extra) {
            release(shared, idx, client);
            return Ok(response);
        }
        // Stale pooled socket: drop it and retry on a fresh connection.
    }
    let mut client = HttpClient::connect_timeout(&backend.addr, CONNECT_TIMEOUT)?;
    client.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
    let response = client.request_with("POST", path, body, extra)?;
    release(shared, idx, client);
    Ok(response)
}

/// Returns a healthy connection to backend `idx`'s pool (dropped when
/// the pool is full).
fn release(shared: &Shared, idx: usize, client: HttpClient) {
    let mut pool = shared.backends[idx].pool.lock().expect("pool poisoned");
    if pool.len() < POOL_CAPACITY {
        pool.push(client);
    }
}

/// Routes a `/solve_batch` as one [`route_solve`] per game, in request
/// order and under one deadline for the whole request: each game goes
/// as its canonical `/solve` body, so it meets the owner, the retries,
/// the failover, the write-through and the read-repair of the same game
/// sent alone. The answers are spliced as a node splices them; a game
/// answered `500` answers the whole batch, as on a node.
///
/// The batch is taken apart by [`split_batch`], the node's splitter, so
/// a bad batch gets the node's `400`.
fn handle_batch(shared: &Shared, body: &[u8], ctx: TraceCtx) -> Response {
    shared.served.batch_requests.fetch_add(1, Ordering::Relaxed);
    let games = match split_batch(body) {
        Ok((games, _)) => games,
        Err(e) => return e.response(),
    };
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut answers = Vec::with_capacity(games.len());
    for game in games {
        let answer = route_solve(shared, route_hash(&game.key), &game.body, ctx, deadline);
        if answer.status == 500 {
            return answer;
        }
        answers.push(answer);
    }
    let entries = answers.iter().map(|answer| {
        if answer.status == 200 {
            Ok(&answer.body[..])
        } else {
            Err(&answer.body[..])
        }
    });
    Response::json(200, reports_body(entries))
}

/// Probes every backend's `/healthz` on the configured interval.
fn probe_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        for backend in &shared.backends {
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
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
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
                (
                    "pooled_connections".into(),
                    Json::from_u64(b.pool.lock().expect("pool poisoned").len() as u64),
                ),
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

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::new(1, 8);
        for i in 0..100u64 {
            assert_eq!(ring.route(route_hash(&i.to_le_bytes()), |_| true), Some(0));
        }
    }
}
