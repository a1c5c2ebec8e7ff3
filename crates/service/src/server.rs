//! The event-driven HTTP engine behind both binaries: a single reactor
//! thread multiplexing every connection over [`crate::reactor`]
//! readiness — a router's upstream sockets included — plus a bounded
//! worker pool for the requests that must not run on it.
//!
//! ```text
//!                        ┌──────────────────────────────────┐
//!   clients ──accept──▶  │          reactor thread          │  upstream
//!     ▲                  │ poll(listener, conns, wake, ups) │◀─ sockets ─▶ backends
//!     │  inline answers, │ read → parse → dispatch          │  (a router's
//!     └── 4xx, metrics, ◀│ step routes: send / wait / done  │   routes)
//!         routed answers │ write staged responses           │
//!                        └──────┬──────────────────▲────────┘
//!                      jobs     │                  │ wake channel +
//!                 (bounded try_send)               │ completion queue
//!                        ┌──────▼──────────────────┴────────┐
//!                        │ worker pool (a node's solvers)   │
//!                        │ solves / batches                 │
//!                        └──────────────────────────────────┘
//! ```
//!
//! The reactor knows HTTP framing, connections and tracing; what a
//! request *means* is a `Dispatcher`'s business. For each parsed
//! request the dispatcher stages an inline answer, returns a job for
//! the pool, or returns a route. Two dispatchers exist: `bi-serve`'s
//! node (below: cache hits, probes and metrics inline; misses and
//! batches to the solver pool) and `bi-router`'s ([`crate::cluster`]:
//! probes and metrics inline; every `/solve` and `/solve_batch` a
//! route). A route is connection state: the reactor steps it with each
//! outcome (start, an upstream answer, a transport failure, a wait
//! over), and each step asks to send a body to backend k, to wait until
//! an instant, or to answer. The reactor runs the exchange on a kept
//! idle socket to k, or asks the dispatcher to have one dialed off the
//! reactor and takes it back over the wake channel; a reused socket
//! that breaks is replaced once by a fresh dial. Waits and the
//! 30 s per-exchange upstream timeout are folded into the poll timeout.
//! Either way, the connection cap, the idle sweep, in-order pipelining,
//! the `413`/`431` limits, `429` backpressure and trace roots are this
//! module's.
//!
//! Each connection is a small state machine (reading → dispatch →
//! writing) over two reusable buffers. On a node, `POST /solve` bodies
//! go through [`SolveService::try_serve_fast`], so a byte-identical
//! canonical body is served straight off the raw-byte index without
//! building a JSON value tree at all — a hit never queues behind a cold
//! solve. Any other canonical body is looked up by the key its bytes
//! spell ([`SolveService::span_key`]), also without a decode: the
//! reactor decodes only non-canonical bodies, to key them, and every
//! miss is decoded on the solver pool from its canonical bytes. (A
//! router forwards only canonical bytes, so a routed body is never
//! decoded on the reactor.) A
//! `/solve_batch` is decoded on the pool, once, and each of its games
//! is then served as the `/solve` of its canonical body.
//!
//! Backpressure is explicit at two levels: the job queue and the routes
//! in flight are bounded (both by `queue_capacity`), and their overflow
//! is answered `429 Too Many Requests` + `Retry-After` (the request was
//! understood — retry shortly); and a connection cap above which new
//! arrivals get `503` and an immediate close. Responses are staged one
//! at a time per connection, so pipelined requests are answered
//! strictly in order; the connection's read interest is dropped while a
//! response is pending, letting the TCP window push back on floods.
//!
//! A node's endpoints:
//!
//! | Endpoint            | Behavior                                        |
//! |---------------------|-------------------------------------------------|
//! | `POST /solve`       | one game through cache + [`Solver`]; `X-Cache: hit\|miss` |
//! | `POST /solve_batch` | many games, one config; each game served as a `/solve` |
//! | `POST /cache_put`   | install a peer's solved response (replication)  |
//! | `GET /metrics`      | service counters + reactor counters + cache stats |
//! | `GET /healthz`      | liveness probe                                  |
//! | `GET /debug/trace`  | the span flight recorder as JSON                |
//!
//! Every request is traced: the reactor adopts the trace id from an
//! `X-Bi-Trace` header (how a router hop correlates with the backend)
//! or mints one, records `parse` and `write` spans around its own work
//! plus the root span (`request` on a node, `route` on a router), and
//! the dispatcher and pool record their stages under the same trace, as
//! does the reactor one `upstream` span per routed attempt.
//! Recording is a few relaxed atomic stores per stage — the zero-copy
//! hit path stays intact. Requests slower than `trace_slow_us` get their
//! whole span tree logged as one JSON line.
//!
//! [`Solver`]: bi_core::solve::Solver

use std::collections::VecDeque;
use std::convert::Infallible;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use bi_obs::{Recorder, Stage, TraceCtx};
use bi_util::Json;

use crate::cache::CacheConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::http::{
    parse_head, parse_response_head, request_into, write_head_into, ClientResponse, Response,
};
use crate::metrics::ServiceMetrics;
use crate::persist::{DiskTier, DiskTierConfig};
use crate::reactor::{
    listener_fd, raw_fd, PollFd, Poller, WakePair, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT,
};
use crate::service::{
    chain_failure, error_body, reports_body, FastOutcome, PreparedSolve, SolveService,
};

/// Server sizing and addressing.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port (the bound
    /// address is available via [`Server::local_addr`]).
    pub addr: String,
    /// Solver threads (`0` = one per available core). Only cache misses
    /// cross into this pool; everything else is served on the reactor.
    pub workers: usize,
    /// Pending-solve queue bound; overflow is answered `429` with
    /// `Retry-After`.
    pub queue_capacity: usize,
    /// Solve-cache sizing.
    pub cache: CacheConfig,
    /// Idle keep-alive timeout per connection (stalled writers count as
    /// idle too; connections waiting on a solve do not).
    pub read_timeout: Duration,
    /// Maximum simultaneously open connections; arrivals beyond the cap
    /// are answered `503` and closed immediately.
    pub max_connections: usize,
    /// Path of the disk-backed cache log (`None` runs memory-only). The
    /// log is opened (and its torn tail repaired) at bind time; a
    /// restarted node replays its old key space warm, with the default
    /// [`DiskTierConfig`] sizing.
    pub disk_path: Option<std::path::PathBuf>,
    /// Deterministic fault injection (`--fault-plan` on `bi-serve`).
    /// `None` serves faithfully; `Some` threads the seeded plan through
    /// the reactor's accept/read/write/dispatch seams for chaos tests.
    pub fault: Option<Arc<FaultPlan>>,
    /// Slow-request sampling: a request whose end-to-end latency
    /// reaches this many µs gets its full span tree logged as one JSON
    /// line (`None` disables the sampler; spans are recorded either
    /// way).
    pub trace_slow_us: Option<u64>,
}

impl Default for ServerConfig {
    /// Ephemeral port on localhost, one solver per core, a queue of 128
    /// pending solves, the default cache, 10 s idle timeout, 8192
    /// connections.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 128,
            cache: CacheConfig::default(),
            read_timeout: Duration::from_secs(10),
            max_connections: 8192,
            disk_path: None,
            fault: None,
            trace_slow_us: None,
        }
    }
}

/// A bound (but not yet serving) solve server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    service: Arc<SolveService>,
}

impl Server {
    /// Binds the listener and builds the shared service state.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let disk = match &config.disk_path {
            Some(path) => Some(DiskTier::open(path, DiskTierConfig::default())?),
            None => None,
        };
        let service = Arc::new(SolveService::with_disk(config.cache, disk));
        Ok(Server {
            listener,
            config,
            service,
        })
    }

    /// The actually bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service state (for tests and embedding).
    #[must_use]
    pub fn service(&self) -> Arc<SolveService> {
        Arc::clone(&self.service)
    }

    /// Starts the reactor and solver pool; returns a handle that stops
    /// everything on [`ServerHandle::stop`].
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let mut config = self.config;
        if config.workers == 0 {
            config.workers =
                std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        }
        let node = Node {
            service: Arc::clone(&self.service),
            fault: config.fault.clone(),
        };
        Ok(ServerHandle {
            engine: serve(self.listener, Arc::new(node), &config)?,
            service: self.service,
        })
    }

    /// Binds-and-serves forever (the `bi-serve` binary's main loop).
    ///
    /// # Errors
    ///
    /// Propagates startup failures; never returns otherwise.
    pub fn run(self) -> io::Result<()> {
        self.start()?.engine.join();
        Ok(())
    }
}

/// A running server: address plus the stop switch.
pub struct ServerHandle {
    engine: Engine<NodeJob>,
    service: Arc<SolveService>,
}

impl ServerHandle {
    /// The serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The shared service state (for asserting on metrics in tests).
    #[must_use]
    pub fn service(&self) -> Arc<SolveService> {
        Arc::clone(&self.service)
    }

    /// Stops the reactor, drains the pool, and joins all threads.
    pub fn stop(self) {
        self.engine.stop();
    }
}

/// One fully buffered request, borrowed from its connection's buffer.
pub(crate) struct Request<'a> {
    pub(crate) method: &'a [u8],
    pub(crate) path: &'a [u8],
    pub(crate) body: &'a [u8],
    /// The request's trace: its id and the root span every stage nests
    /// under.
    pub(crate) ctx: TraceCtx,
}

/// What a dispatch leaves to do once it returns.
pub(crate) enum Dispatched<J, R> {
    /// The answer is staged (through [`Reply`]).
    Answered,
    /// Work for the bounded pool.
    Job(J),
    /// A request the reactor answers through upstream exchanges.
    Route(R),
}

/// What the reactor tells a route at each step.
pub(crate) enum Outcome {
    /// The route was admitted; nothing was sent yet.
    Start,
    /// The backend of the last [`Step::Send`] answered.
    Answer(ClientResponse),
    /// The exchange with that backend failed at the transport: no socket
    /// could be dialed, a fresh socket broke, or no whole answer came
    /// within [`UPSTREAM_TIMEOUT`].
    Failed,
    /// The [`Step::Wait`] is over.
    Woke,
}

/// What a route asks of the reactor next.
pub(crate) enum Step<'a> {
    /// `POST /solve` `body` to backend `backend`; its answer comes back
    /// as the next [`Outcome`].
    Send { backend: usize, body: &'a [u8] },
    /// Step again, with [`Outcome::Woke`], at this instant.
    Wait(Instant),
    /// The request's answer.
    Done(Response),
}

/// How long one upstream exchange may take, from its send (a dial
/// included) to the last byte of its answer.
pub(crate) const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);

/// What a request means: the part of serving that differs between a
/// node and a router. The reactor owns everything else.
pub(crate) trait Dispatcher: Send + Sync + 'static {
    /// Work that must leave the reactor thread for the bounded pool.
    type Job: Send + 'static;
    /// A request answered through upstream exchanges, kept as its
    /// connection's state while the reactor runs them.
    type Route: Send + 'static;
    /// The stage of each request's root span.
    const ROOT: Stage;
    /// The component name on the slow-request log line.
    const NAME: &'static str;
    /// The counters and stage histograms the reactor records into.
    fn metrics(&self) -> &ServiceMetrics;
    /// The flight recorder the reactor's spans land in.
    fn recorder(&self) -> &Recorder;
    /// Handles one request on the reactor thread: stages an answer
    /// through `reply`, or returns a job for the pool or a route (and
    /// stages nothing).
    fn dispatch(
        &self,
        request: &Request<'_>,
        reply: &mut Reply<'_>,
    ) -> Dispatched<Self::Job, Self::Route>;
    /// Runs one job on a pool thread; the answer travels back to the
    /// reactor over the wake channel.
    fn run(&self, job: Self::Job) -> Response;
    /// Advances `route` by `outcome`, on the reactor thread. `request`
    /// is the body of the request the route answers.
    fn step<'a>(
        &self,
        route: &'a mut Self::Route,
        request: &'a [u8],
        outcome: Outcome,
        now: Instant,
    ) -> Step<'a>;
    /// Asks for a connected, nonblocking socket to `backend`, handed
    /// back through the engine's [`Handback`]. Connects never run on
    /// the reactor: `std` has no nonblocking connect.
    fn dial(&self, _backend: usize) {}
    /// Notes that the reactor now keeps `idle` idle sockets to
    /// `backend`.
    fn pooled(&self, _backend: usize, _idle: usize) {}
}

/// Where a dispatcher stages an inline answer: straight into the
/// connection's reusable output buffer, with no intermediate copy.
pub(crate) struct Reply<'a> {
    conn: &'a mut Conn,
    recorder: &'a Recorder,
}

impl Reply<'_> {
    /// Stages `status` + `body` (+ `extra` headers) as the answer.
    pub(crate) fn send(&mut self, status: u16, body: &[u8], extra: &[(&str, &str)]) {
        stage_bytes(self.conn, self.recorder, status, body, extra);
    }
}

/// A running reactor and its pool of `J` jobs.
pub(crate) struct Engine<J> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: JoinHandle<()>,
    pool: Arc<Pool<J>>,
    workers: Vec<JoinHandle<()>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
}

impl<J> Engine<J> {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle through which another thread gives the reactor the
    /// sockets it asked a [`Dispatcher`] to dial.
    ///
    /// # Errors
    ///
    /// Propagates the wake-channel clone failure.
    pub(crate) fn handback(&self) -> io::Result<Handback> {
        Ok(Handback {
            completions: Arc::clone(&self.completions),
            waker: self.waker.try_clone()?,
        })
    }

    /// Blocks on the reactor thread, which only exits on [`Engine::stop`].
    pub(crate) fn join(self) {
        let _ = self.reactor.join();
    }

    /// Stops the reactor, drains the pool, and joins all threads.
    pub(crate) fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        let _ = self.reactor.join();
        // Workers finish the queued jobs, then exit.
        self.pool.close();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// The way back onto the reactor for a socket dialed off it.
pub(crate) struct Handback {
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
}

impl Handback {
    /// Gives the reactor what one [`Dispatcher::dial`] to `backend`
    /// came to: a connected, nonblocking socket, or the failure.
    pub(crate) fn give(&mut self, backend: usize, dialed: io::Result<TcpStream>) {
        self.completions
            .lock()
            .expect("completion lock poisoned")
            .push(Completion::Dialed { backend, dialed });
        self.waker.wake();
    }
}

/// Serves `listener` through `dispatcher` on a new reactor thread and
/// `config.workers` pool threads (none for a dispatcher that never
/// returns a job). Of `config` only the engine's sizing is read:
/// `workers`, `queue_capacity` (the pool's queue, and the cap on routes
/// in flight), `read_timeout`, `max_connections`, `trace_slow_us` and
/// `fault`.
///
/// # Errors
///
/// Propagates socket setup failures.
pub(crate) fn serve<D: Dispatcher>(
    listener: TcpListener,
    dispatcher: Arc<D>,
    config: &ServerConfig,
) -> io::Result<Engine<D::Job>> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let workers = config.workers;
    let queue_capacity = config.queue_capacity.max(1);
    let max_connections = config.max_connections.max(1);
    dispatcher.metrics().set_config_gauges(
        queue_capacity,
        u64::try_from(config.read_timeout.as_millis()).unwrap_or(u64::MAX),
        workers,
        max_connections,
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(Pool::new(queue_capacity));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let wake = WakePair::new()?;
    let stop_waker = wake.waker()?;
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let pool = Arc::clone(&pool);
        let dispatcher = Arc::clone(&dispatcher);
        let completions = Arc::clone(&completions);
        let mut waker = wake.waker()?;
        worker_handles.push(std::thread::spawn(move || {
            abort_on_panic(|| pool_loop(&pool, &*dispatcher, &completions, &mut waker));
        }));
    }
    let mut reactor = Reactor {
        io: Io {
            dispatcher,
            pool: Arc::clone(&pool),
            trace_slow_us: config.trace_slow_us,
            fault: config.fault.clone(),
        },
        listener,
        poller: Poller::new(),
        wake,
        completions: Arc::clone(&completions),
        slots: Vec::new(),
        free: Vec::new(),
        ups: Vec::new(),
        up_free: Vec::new(),
        idle: Vec::new(),
        dialing: Vec::new(),
        ready: VecDeque::new(),
        flights: 0,
        route_cap: queue_capacity,
        shutdown: Arc::clone(&shutdown),
        read_timeout: config.read_timeout,
        max_connections,
    };
    let reactor_handle = std::thread::spawn(move || abort_on_panic(|| reactor.run()));
    Ok(Engine {
        addr,
        shutdown,
        reactor: reactor_handle,
        pool,
        workers: worker_handles,
        completions,
        waker: stop_waker,
    })
}

/// Runs an engine thread's loop. Each dispatch, job and route step runs
/// under [`handle_panics`]; a panic anywhere else leaves the engine
/// unable to answer, so it aborts the process: the listener closes and
/// a router ejects the node, where a dead reactor behind a live
/// listener would leave every client waiting.
fn abort_on_panic(body: impl FnOnce()) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
        std::process::abort();
    }
}

/// Runs one dispatch, job or route step; a panic in it is counted and
/// becomes `None`, which the caller answers with [`panic_body`] as a
/// `500`. The panic message goes to stderr through the panic hook.
fn handle_panics<T>(metrics: &ServiceMetrics, body: impl FnOnce() -> T) -> Option<T> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    if outcome.is_err() {
        metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
    }
    outcome.ok()
}

/// The body of a `500` that answers a panicked handler.
fn panic_body() -> Vec<u8> {
    error_body("internal error: the request handler panicked")
}

/// A job on its way to the pool, tagged with the connection it answers.
struct Task<J> {
    slot: usize,
    generation: u64,
    job: J,
}

/// The bounded job queue between the reactor and its workers. Idle
/// workers wait on a stack, so the most recently idle one — its stack
/// and allocator arena still warm — takes the next job, and a light
/// load leaves the rest asleep instead of rotating through all of them.
struct Pool<J> {
    state: Mutex<PoolState<J>>,
    /// Queued (not yet taken) jobs beyond which `submit` refuses.
    capacity: usize,
}

struct PoolState<J> {
    queue: VecDeque<Task<J>>,
    /// Parked workers, most recently idle last.
    idle: Vec<Thread>,
    /// Set on stop: workers drain the queue, then exit.
    closed: bool,
}

impl<J> Pool<J> {
    fn new(capacity: usize) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                idle: Vec::new(),
                closed: false,
            }),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState<J>> {
        self.state.lock().expect("pool lock poisoned")
    }

    /// Queues `task` and wakes the most recently idle worker; hands the
    /// task back when `capacity` jobs are already waiting.
    fn submit(&self, task: Task<J>) -> Result<(), Task<J>> {
        let mut state = self.lock();
        if state.queue.len() >= self.capacity {
            return Err(task);
        }
        state.queue.push_back(task);
        if let Some(worker) = state.idle.pop() {
            worker.unpark();
        }
        Ok(())
    }

    /// The next job, parking until one is queued; `None` once the pool
    /// is closed and drained.
    fn take(&self) -> Option<Task<J>> {
        let me = std::thread::current();
        let mut state = self.lock();
        loop {
            if let Some(task) = state.queue.pop_front() {
                // A spurious wakeup may have left this worker listed.
                state.idle.retain(|t| t.id() != me.id());
                return Some(task);
            }
            if state.closed {
                return None;
            }
            if !state.idle.iter().any(|t| t.id() == me.id()) {
                state.idle.push(me.clone());
            }
            drop(state);
            std::thread::park();
            state = self.lock();
        }
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        for worker in state.idle.drain(..) {
            worker.unpark();
        }
    }
}

/// What other threads hand the reactor over the wake channel.
enum Completion {
    /// A finished pool job and the connection it answers.
    Job {
        slot: usize,
        generation: u64,
        response: Response,
    },
    /// What a [`Dispatcher::dial`] to `backend` came to.
    Dialed {
        backend: usize,
        dialed: io::Result<TcpStream>,
    },
}

fn pool_loop<D: Dispatcher>(
    pool: &Pool<D::Job>,
    dispatcher: &D,
    completions: &Mutex<Vec<Completion>>,
    waker: &mut Waker,
) {
    while let Some(task) = pool.take() {
        let response = handle_panics(dispatcher.metrics(), || dispatcher.run(task.job))
            .unwrap_or_else(|| Response::json(500, panic_body()));
        dispatcher
            .metrics()
            .solves_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        completions
            .lock()
            .expect("completion lock poisoned")
            .push(Completion::Job {
                slot: task.slot,
                generation: task.generation,
                response,
            });
        waker.wake();
    }
}

/// Per-connection read burst size.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's state machine: reading into `buf`, at most one
/// staged response in `out`, and the in-flight marker while a job is
/// in the pool or a route is out upstream.
struct Conn {
    stream: TcpStream,
    /// Accumulated request bytes (consumed per request, capacity kept).
    buf: Vec<u8>,
    /// The staged response (head + body), written from `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// The status of the staged response, counted (and reset to 0) just
    /// before its first flush: an answer replaced before it is sent — a
    /// panicking handler's — is never counted.
    status: u16,
    /// A job or a route is answering this connection's request; parsing
    /// is paused.
    in_flight: bool,
    /// Keep-alive of the request currently being answered.
    req_keep_alive: bool,
    /// Close once `out` drains (protocol error or `Connection: close`).
    close_after_write: bool,
    /// The peer finished sending; drop the connection once quiet.
    eof: bool,
    last_activity: Instant,
    /// The trace of the request currently being answered, closed (root
    /// span + `write` span recorded) once its response is fully flushed.
    trace: Option<ConnTrace>,
}

/// Trace state of one in-progress request on a connection.
struct ConnTrace {
    /// The trace id (adopted from `X-Bi-Trace` or minted).
    trace_id: u64,
    /// The root span id — pre-allocated so every stage span can parent
    /// under it before the root itself is recorded.
    root_span: u64,
    /// The upstream parent span (from `X-Bi-Parent`; 0 when this hop
    /// is the trace origin).
    parent: u64,
    /// When the request's bytes were first seen complete (ns).
    req_start_ns: u64,
    /// When its response was staged (ns); 0 until then. The gap to the
    /// final flush is the `write` span.
    staged_ns: u64,
}

/// A routed request's connection state: the dispatcher's route plus the
/// upstream exchange the reactor runs for it.
struct Flight<R> {
    route: R,
    ctx: TraceCtx,
    /// The request body within the connection buffer, which keeps the
    /// request (no copy) until it is answered.
    body: std::ops::Range<usize>,
    /// The request's length in that buffer, drained once it is answered.
    consumed: usize,
    /// The current attempt's upstream request, head and body.
    message: Vec<u8>,
    /// The outstanding attempt, if one is out.
    attempt: Option<Attempt>,
    /// When the attempt times out, or when a waiting route steps again.
    timer: Option<Instant>,
}

/// One upstream attempt, recorded as one `upstream` span.
struct Attempt {
    backend: usize,
    /// Minted at the send, so it rides `X-Bi-Parent` as the backend's
    /// parent span.
    span: u64,
    t0: u64,
    /// The socket carrying it; `None` while a dial is awaited.
    up: Option<usize>,
    /// A reused socket broke and the attempt moved to a fresh one.
    redialed: bool,
}

/// An upstream socket: idle in its backend's list, or carrying one
/// attempt.
struct Up {
    stream: TcpStream,
    backend: usize,
    /// The connection (slot, generation) whose attempt it carries.
    carrying: Option<(usize, u64)>,
    /// Bytes of the attempt's message written so far.
    sent: usize,
    /// The message is not yet fully written.
    writing: bool,
    /// Answer bytes read so far.
    buf: Vec<u8>,
    /// It carried an exchange before. A break on such a socket may only
    /// be a keep-alive the backend closed, so the attempt moves once to
    /// a fresh socket instead of failing.
    reused: bool,
}

/// Where an upstream exchange stands after an I/O pass.
enum Progress {
    Pending,
    /// A whole answer, and whether the socket may carry another.
    Answered(ClientResponse, bool),
    Broken,
}

/// A slab slot: its occupant plus a generation counter so completions
/// for closed connections are discarded instead of answering whoever
/// reused the slot, and the occupant's route while one is in flight.
struct Slot<R> {
    conn: Option<Conn>,
    generation: u64,
    flight: Option<Flight<R>>,
}

/// What to do with a connection after an I/O pass.
enum ConnAction<R> {
    Keep,
    Remove,
    /// A request became a route, to admit.
    Route(Flight<R>),
}

/// A poll-set entry past the wake channel and the listener.
#[derive(Clone, Copy)]
enum Tag {
    Conn(usize),
    Up(usize),
}

/// The reactor: owns the listener, the connection slab, the upstream
/// sockets, and the poll loop.
struct Reactor<D: Dispatcher> {
    /// What every connection pass needs (kept apart from the slab so a
    /// connection can be borrowed alongside it).
    io: Io<D>,
    listener: TcpListener,
    poller: Poller,
    wake: WakePair,
    completions: Arc<Mutex<Vec<Completion>>>,
    slots: Vec<Slot<D::Route>>,
    free: Vec<usize>,
    /// Upstream sockets (a router's), and the free indices among them.
    ups: Vec<Option<Up>>,
    up_free: Vec<usize>,
    /// Idle upstream sockets per backend.
    idle: Vec<Vec<usize>>,
    /// Connections whose attempt awaits a socket, per backend.
    dialing: Vec<VecDeque<(usize, u64)>>,
    /// Outcomes to step routes with, in order.
    ready: VecDeque<(usize, u64, Outcome)>,
    /// Routes in flight, and their cap; past it a request is shed `429`.
    flights: usize,
    route_cap: usize,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
    max_connections: usize,
}

/// The per-request side of the reactor: dispatch, the pool's queue, and
/// trace closing.
struct Io<D: Dispatcher> {
    dispatcher: Arc<D>,
    pool: Arc<Pool<D::Job>>,
    trace_slow_us: Option<u64>,
    /// The seeded fault plan, consulted at the accept, read and write
    /// seams (a node's dispatcher holds the same plan for its dispatch
    /// seam); `None` when serving faithfully.
    fault: Option<Arc<FaultPlan>>,
}

impl<D: Dispatcher> Reactor<D> {
    fn metrics(&self) -> &ServiceMetrics {
        self.io.dispatcher.metrics()
    }

    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tags: Vec<Tag> = Vec::new();
        let sweep_ms = u32::try_from(self.read_timeout.as_millis() / 4)
            .unwrap_or(u32::MAX)
            .clamp(10, 200);
        while !self.shutdown.load(Ordering::Relaxed) {
            fds.clear();
            tags.clear();
            fds.push(PollFd::new(self.wake.read_fd(), POLLIN));
            fds.push(PollFd::new(listener_fd(&self.listener), POLLIN));
            let mut next_timer: Option<Instant> = None;
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(conn) = &slot.conn {
                    let mut events = 0i16;
                    if !conn.in_flight && conn.out.is_empty() && !conn.eof {
                        events |= POLLIN;
                    }
                    if !conn.out.is_empty() {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd::new(raw_fd(&conn.stream), events));
                    tags.push(Tag::Conn(i));
                }
                if let Some(t) = slot.flight.as_ref().and_then(|f| f.timer) {
                    next_timer = Some(next_timer.map_or(t, |n| n.min(t)));
                }
            }
            for (u, up) in self.ups.iter().enumerate() {
                if let Some(up) = up {
                    // An idle socket is watched too: it turns readable
                    // when the backend closes it.
                    let events = if up.writing { POLLIN | POLLOUT } else { POLLIN };
                    fds.push(PollFd::new(raw_fd(&up.stream), events));
                    tags.push(Tag::Up(u));
                }
            }
            // Route waits and attempt deadlines are folded into the
            // poll timeout; the idle sweep bounds it.
            let timeout_ms = next_timer.map_or(sweep_ms, |t| {
                let us = t.saturating_duration_since(Instant::now()).as_micros();
                u32::try_from(us.div_ceil(1_000))
                    .unwrap_or(u32::MAX)
                    .min(sweep_ms)
            });
            let ready = match self.poller.wait(&mut fds, timeout_ms) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if ready > 0 {
                self.metrics()
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            if fds[0].ready(POLLIN) {
                self.wake.drain();
            }
            self.drain_completions();
            if fds[1].ready(POLLIN) {
                self.accept_ready();
            }
            // Nothing below opens an upstream socket before the routes
            // are stepped, so an `Up` tag never names a newer socket.
            for (fd, &tag) in fds[2..].iter().zip(&tags) {
                if fd.revents() == 0 {
                    continue;
                }
                match tag {
                    Tag::Conn(idx) => self.handle_conn_event(idx, *fd),
                    Tag::Up(u) => self.handle_up_event(u),
                }
            }
            self.fire_timers();
            self.step_ready();
            self.sweep_idle();
        }
    }

    /// Applies readiness to one connection and removes it on failure.
    fn handle_conn_event(&mut self, idx: usize, fd: PollFd) {
        let generation = self.slots[idx].generation;
        let io = &self.io;
        let Some(conn) = self.slots[idx].conn.as_mut() else {
            return;
        };
        let action = if fd.ready(POLLOUT) && !conn.out.is_empty() {
            io.pump(conn, idx, generation)
        } else if fd.ready(POLLIN) && !conn.in_flight && conn.out.is_empty() && !conn.eof {
            io.on_readable(conn, idx, generation)
        } else if fd.revents() & (POLLERR | POLLHUP | POLLNVAL) != 0 {
            // An errored or hung-up peer we have nothing staged for
            // (including one we are mid-job or mid-route for): drop it;
            // any completion is discarded by the generation check.
            Ok(ConnAction::Remove)
        } else {
            Ok(ConnAction::Keep)
        };
        self.settle(idx, action);
    }

    /// Carries out what a pass over connection `idx` left to do: drop
    /// it, or admit the route its request became — or, past the route
    /// cap, answer `429` and go on with its pipelined requests.
    fn settle(&mut self, idx: usize, mut action: io::Result<ConnAction<D::Route>>) {
        loop {
            match action {
                Ok(ConnAction::Keep) => return,
                Ok(ConnAction::Remove) | Err(_) => {
                    self.remove_conn(idx);
                    return;
                }
                Ok(ConnAction::Route(flight)) => {
                    let generation = self.slots[idx].generation;
                    if self.flights < self.route_cap {
                        self.flights += 1;
                        self.slots[idx].flight = Some(flight);
                        self.ready.push_back((idx, generation, Outcome::Start));
                        return;
                    }
                    let Some(conn) = self.slots[idx].conn.as_mut() else {
                        return;
                    };
                    conn.in_flight = false;
                    conn.buf.drain(..flight.consumed);
                    self.io.shed(conn);
                    action = self.io.pump(conn, idx, generation);
                }
            }
        }
    }

    /// Accepts until the backlog is dry, registering connections up to
    /// the cap and answering `503` beyond it.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let metrics = self.io.dispatcher.metrics();
            metrics.connections_total.fetch_add(1, Ordering::Relaxed);
            // The accept seam: a refused connection is dropped before a
            // byte is exchanged, as if the listener's backlog reset it.
            if let Some(plan) = &self.io.fault {
                if plan.next() == Some(FaultKind::Refuse) {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
            }
            let open = self.slots.iter().filter(|s| s.conn.is_some()).count();
            if open >= self.max_connections {
                reject_busy(stream, metrics);
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue; // the socket died before it ever registered
            }
            let conn = Conn {
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                status: 0,
                in_flight: false,
                req_keep_alive: true,
                close_after_write: false,
                eof: false,
                last_activity: Instant::now(),
                trace: None,
            };
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slots.push(Slot {
                        conn: None,
                        generation: 0,
                        flight: None,
                    });
                    self.slots.len() - 1
                }
            };
            self.slots[idx].conn = Some(conn);
            metrics.open_connections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stages every completed job onto its (still-live) connection and
    /// pushes the response out, and hands every dialed socket to an
    /// attempt waiting for one.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.completions.lock().expect("completion lock poisoned"));
        for completion in done {
            match completion {
                Completion::Job {
                    slot: idx,
                    generation,
                    response,
                } => {
                    if self.slots[idx].generation != generation {
                        continue; // the connection closed mid-job
                    }
                    let Some(conn) = self.slots[idx].conn.as_mut() else {
                        continue;
                    };
                    conn.in_flight = false;
                    stage_response(conn, self.io.dispatcher.recorder(), &response);
                    let action = self.io.pump(conn, idx, generation);
                    self.settle(idx, action);
                }
                Completion::Dialed { backend, dialed } => self.dialed(backend, dialed),
            }
        }
    }

    /// Steps every route that has an outcome waiting.
    fn step_ready(&mut self) {
        while let Some((idx, generation, outcome)) = self.ready.pop_front() {
            let slot = &self.slots[idx];
            if slot.generation == generation && slot.flight.is_some() {
                self.drive(idx, outcome);
            }
        }
    }

    /// Steps the route of connection `idx` with `outcome` and does what
    /// it asks: start an attempt, arm its wait, or stage its answer.
    fn drive(&mut self, idx: usize, outcome: Outcome) {
        let generation = self.slots[idx].generation;
        let slot = &mut self.slots[idx];
        let (Some(conn), Some(flight)) = (slot.conn.as_mut(), slot.flight.as_mut()) else {
            return;
        };
        let dispatcher = &*self.io.dispatcher;
        let now = Instant::now();
        let route = &mut flight.route;
        let request = &conn.buf[flight.body.clone()];
        let step = handle_panics(dispatcher.metrics(), move || {
            dispatcher.step(route, request, outcome, now)
        })
        .unwrap_or_else(|| Step::Done(Response::json(500, panic_body())));
        match step {
            Step::Send { backend, body } => {
                let recorder = dispatcher.recorder();
                let span = recorder.next_span_id();
                let headers = if flight.ctx.active() {
                    vec![
                        ("X-Bi-Trace", flight.ctx.trace_id.to_string()),
                        ("X-Bi-Parent", span.to_string()),
                    ]
                } else {
                    Vec::new()
                };
                request_into(&mut flight.message, "POST", "/solve", body, true, &headers);
                flight.attempt = Some(Attempt {
                    backend,
                    span,
                    t0: recorder.now_ns(),
                    up: None,
                    redialed: false,
                });
                flight.timer = Some(now + UPSTREAM_TIMEOUT);
                self.start_attempt(idx, generation, backend);
            }
            Step::Wait(until) => flight.timer = Some(until),
            Step::Done(response) => {
                let consumed = flight.consumed;
                slot.flight = None;
                self.flights -= 1;
                conn.in_flight = false;
                conn.buf.drain(..consumed);
                stage_response(conn, dispatcher.recorder(), &response);
                let action = self.io.pump(conn, idx, generation);
                self.settle(idx, action);
            }
        }
    }

    /// Puts connection `idx`'s new attempt on an idle socket to
    /// `backend`, or asks for a dial when there is none.
    fn start_attempt(&mut self, idx: usize, generation: u64, backend: usize) {
        self.reach(backend);
        match self.idle[backend].pop() {
            Some(u) => {
                self.io.dispatcher.pooled(backend, self.idle[backend].len());
                self.carry(u, idx, generation);
            }
            None => self.await_dial(idx, generation, backend),
        }
    }

    /// Sizes the per-backend lists to hold `backend`.
    fn reach(&mut self, backend: usize) {
        if self.idle.len() <= backend {
            self.idle.resize_with(backend + 1, Vec::new);
            self.dialing.resize_with(backend + 1, VecDeque::new);
        }
    }

    fn await_dial(&mut self, idx: usize, generation: u64, backend: usize) {
        self.dialing[backend].push_back((idx, generation));
        self.io.dispatcher.dial(backend);
    }

    /// The next connection whose attempt still awaits a socket to
    /// `backend` (entries left by attempts that ended are skipped).
    fn next_waiter(&mut self, backend: usize) -> Option<(usize, u64)> {
        while let Some((idx, generation)) = self.dialing[backend].pop_front() {
            let slot = &self.slots[idx];
            let waits = slot.generation == generation
                && slot
                    .flight
                    .as_ref()
                    .and_then(|f| f.attempt.as_ref())
                    .is_some_and(|a| a.backend == backend && a.up.is_none());
            if waits {
                return Some((idx, generation));
            }
        }
        None
    }

    /// Takes what a dial to `backend` came to: a socket carries the
    /// first waiting attempt (or idles), a failure fails that attempt.
    fn dialed(&mut self, backend: usize, dialed: io::Result<TcpStream>) {
        self.reach(backend);
        let waiter = self.next_waiter(backend);
        match dialed {
            Ok(stream) => {
                let up = Up {
                    stream,
                    backend,
                    carrying: None,
                    sent: 0,
                    writing: false,
                    buf: Vec::new(),
                    reused: false,
                };
                let u = match self.up_free.pop() {
                    Some(u) => {
                        self.ups[u] = Some(up);
                        u
                    }
                    None => {
                        self.ups.push(Some(up));
                        self.ups.len() - 1
                    }
                };
                match waiter {
                    Some((idx, generation)) => self.carry(u, idx, generation),
                    None => self.park_up(u),
                }
            }
            Err(_) => {
                if let Some((idx, generation)) = waiter {
                    self.end_attempt(idx);
                    self.ready.push_back((idx, generation, Outcome::Failed));
                }
            }
        }
    }

    /// Starts connection `idx`'s attempt on upstream socket `u`.
    fn carry(&mut self, u: usize, idx: usize, generation: u64) {
        let up = self.ups[u].as_mut().expect("a live upstream socket");
        up.carrying = Some((idx, generation));
        up.sent = 0;
        up.writing = true;
        up.buf.clear();
        if let Some(attempt) = self.slots[idx]
            .flight
            .as_mut()
            .and_then(|f| f.attempt.as_mut())
        {
            attempt.up = Some(u);
        }
        let progress = self.exchange(u);
        self.settle_up(u, progress);
    }

    /// Readiness on upstream socket `u`.
    fn handle_up_event(&mut self, u: usize) {
        let Some(up) = self.ups[u].as_ref() else {
            return;
        };
        if up.carrying.is_none() {
            // Nothing was asked on an idle socket: it turned readable
            // because the backend closed it.
            self.close_up(u);
            return;
        }
        let progress = self.exchange(u);
        self.settle_up(u, progress);
    }

    /// Writes what is left of the carried attempt's request or, once it
    /// is out, reads what has arrived of its answer, as far as the
    /// socket goes without blocking.
    fn exchange(&mut self, u: usize) -> Progress {
        let up = self.ups[u].as_mut().expect("a live upstream socket");
        let (idx, _) = up.carrying.expect("a socket carrying an attempt");
        if up.writing {
            let Some(flight) = self.slots[idx].flight.as_ref() else {
                return Progress::Broken;
            };
            while up.sent < flight.message.len() {
                match up.stream.write(&flight.message[up.sent..]) {
                    Ok(0) => return Progress::Broken,
                    Ok(n) => up.sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Progress::Pending,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Progress::Broken,
                }
            }
            // No answer can have come yet; it is read on `POLLIN`.
            up.writing = false;
            return Progress::Pending;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        loop {
            match up.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    up.buf.extend_from_slice(&chunk[..n]);
                    if n < READ_CHUNK {
                        break; // drained; `POLLIN` brings the rest
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Progress::Broken,
            }
        }
        match parse_response_head(&up.buf) {
            Ok(Some(head)) if up.buf.len() >= head.total_len() => {
                // Bytes past the answer, or a close, leave the socket
                // unfit for another exchange.
                let reusable = !eof
                    && up.buf.len() == head.total_len()
                    && head
                        .headers
                        .iter()
                        .all(|(k, v)| k != "connection" || !v.eq_ignore_ascii_case("close"));
                Progress::Answered(head.into_response(&up.buf), reusable)
            }
            Ok(_) if !eof => Progress::Pending,
            _ => Progress::Broken,
        }
    }

    /// Carries out what an exchange pass on socket `u` came to.
    fn settle_up(&mut self, u: usize, progress: Progress) {
        let answered = match progress {
            Progress::Pending => return,
            Progress::Answered(response, reusable) => Some((response, reusable)),
            Progress::Broken => None,
        };
        let up = self.ups[u].as_mut().expect("a live upstream socket");
        let (idx, generation) = up.carrying.take().expect("a socket carrying an attempt");
        let (backend, reused) = (up.backend, up.reused);
        up.reused = true;
        match answered {
            Some((response, reusable)) => {
                if reusable {
                    self.park_up(u);
                } else {
                    self.close_up(u);
                }
                self.end_attempt(idx);
                self.ready
                    .push_back((idx, generation, Outcome::Answer(response)));
            }
            None => {
                self.close_up(u);
                let attempt = self.slots[idx]
                    .flight
                    .as_mut()
                    .and_then(|f| f.attempt.as_mut());
                match attempt {
                    Some(attempt) if reused && !attempt.redialed => {
                        attempt.redialed = true;
                        attempt.up = None;
                        self.await_dial(idx, generation, backend);
                    }
                    _ => {
                        self.end_attempt(idx);
                        self.ready.push_back((idx, generation, Outcome::Failed));
                    }
                }
            }
        }
    }

    /// Returns socket `u` to its backend's idle list, or straight to an
    /// attempt waiting on a dial there.
    fn park_up(&mut self, u: usize) {
        let up = self.ups[u].as_mut().expect("a live upstream socket");
        up.buf.clear();
        let backend = up.backend;
        self.reach(backend);
        match self.next_waiter(backend) {
            Some((idx, generation)) => self.carry(u, idx, generation),
            None => {
                self.idle[backend].push(u);
                self.io.dispatcher.pooled(backend, self.idle[backend].len());
            }
        }
    }

    /// Closes upstream socket `u`, dropping it from the idle list.
    fn close_up(&mut self, u: usize) {
        let Some(up) = self.ups[u].take() else {
            return;
        };
        self.up_free.push(u);
        if let Some(list) = self.idle.get_mut(up.backend) {
            if let Some(at) = list.iter().position(|&v| v == u) {
                list.swap_remove(at);
                self.io.dispatcher.pooled(up.backend, list.len());
            }
        }
    }

    /// Ends connection `idx`'s attempt: records its `upstream` span and
    /// stage sample and disarms its deadline.
    fn end_attempt(&mut self, idx: usize) {
        let Some(flight) = self.slots[idx].flight.as_mut() else {
            return;
        };
        let Some(attempt) = flight.attempt.take() else {
            return;
        };
        flight.timer = None;
        let recorder = self.io.dispatcher.recorder();
        let t1 = recorder.now_ns();
        self.io
            .dispatcher
            .metrics()
            .stages
            .record(Stage::Upstream, t1.saturating_sub(attempt.t0) / 1_000);
        let ctx = flight.ctx;
        if ctx.active() {
            recorder.record_span(
                attempt.span,
                ctx.trace_id,
                ctx.parent,
                Stage::Upstream,
                attempt.t0,
                t1,
            );
        }
    }

    /// Fails attempts past their deadline and wakes routes whose wait
    /// is over.
    fn fire_timers(&mut self) {
        if self.flights == 0 {
            return; // a node never has one
        }
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let slot = &mut self.slots[idx];
            let Some(flight) = slot.flight.as_mut() else {
                continue;
            };
            if flight.timer.is_none_or(|t| t > now) {
                continue;
            }
            flight.timer = None;
            let generation = slot.generation;
            let outcome = match flight.attempt.as_ref() {
                Some(attempt) => {
                    if let Some(u) = attempt.up {
                        self.close_up(u);
                    }
                    self.end_attempt(idx);
                    Outcome::Failed
                }
                None => Outcome::Woke,
            };
            self.ready.push_back((idx, generation, outcome));
        }
    }

    /// Closes connections quiet for longer than the timeout. In-flight
    /// connections are exempt — their clock is the job or the route,
    /// not the peer.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let stale = self.slots[idx].conn.as_ref().is_some_and(|c| {
                !c.in_flight && now.duration_since(c.last_activity) > self.read_timeout
            });
            if stale {
                self.remove_conn(idx);
            }
        }
    }

    fn remove_conn(&mut self, idx: usize) {
        if let Some(flight) = self.slots[idx].flight.take() {
            self.flights -= 1;
            // A half-done exchange leaves its socket unfit for another.
            if let Some(u) = flight.attempt.and_then(|a| a.up) {
                self.close_up(u);
            }
        }
        if self.slots[idx].conn.take().is_some() {
            self.slots[idx].generation += 1;
            self.free.push(idx);
            self.metrics()
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<D: Dispatcher> Io<D> {
    /// Reads everything available, then drives the state machine.
    fn on_readable(
        &self,
        conn: &mut Conn,
        slot: usize,
        generation: u64,
    ) -> io::Result<ConnAction<D::Route>> {
        // The read seam: a disconnect drops the peer mid-body, a delay
        // stalls the whole pass, a short read caps it at one byte (the
        // request still completes — across many passes).
        let mut read_cap = READ_CHUNK;
        if let Some(plan) = &self.fault {
            match plan.next() {
                Some(FaultKind::Disconnect) => return Ok(ConnAction::Remove),
                Some(FaultKind::Delay) => std::thread::sleep(plan.delay()),
                Some(FaultKind::ShortRead) => read_cap = 1,
                _ => {}
            }
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk[..read_cap]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < read_cap || read_cap < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.pump(conn, slot, generation)
    }

    /// Drives one connection as far as it can go without blocking:
    /// parse → dispatch → write, looping while pipelined requests
    /// complete, until a request becomes a route for the reactor to
    /// admit.
    fn pump(
        &self,
        conn: &mut Conn,
        slot: usize,
        generation: u64,
    ) -> io::Result<ConnAction<D::Route>> {
        loop {
            if let Some(flight) = self.process_buffered(conn, slot, generation) {
                return Ok(ConnAction::Route(flight));
            }
            if conn.out.is_empty() {
                // Waiting on more bytes or on the pool. A peer that
                // finished sending and owes us nothing is done.
                if conn.eof && !conn.in_flight {
                    return Ok(ConnAction::Remove);
                }
                return Ok(ConnAction::Keep);
            }
            if conn.status != 0 {
                self.dispatcher
                    .metrics()
                    .record_status(std::mem::take(&mut conn.status));
            }
            if !flush_out(conn, self.fault.as_deref())? {
                return Ok(ConnAction::Keep); // socket full; wait for POLLOUT
            }
            conn.out.clear();
            conn.out_pos = 0;
            self.finish_trace(conn);
            if conn.close_after_write {
                return Ok(ConnAction::Remove);
            }
            // Response delivered — loop to answer the next pipelined request.
        }
    }

    /// Closes the flushed request's trace: records the `write` span
    /// (staged → fully flushed), the root span covering the whole
    /// exchange, and — when the total crosses the slow threshold — logs
    /// the entire span tree as one JSON line.
    fn finish_trace(&self, conn: &mut Conn) {
        let Some(trace) = conn.trace.take() else {
            return;
        };
        let recorder = self.dispatcher.recorder();
        let now = recorder.now_ns();
        let staged = if trace.staged_ns == 0 {
            now
        } else {
            trace.staged_ns
        };
        recorder.record(trace.trace_id, trace.root_span, Stage::Write, staged, now);
        recorder.record_span(
            trace.root_span,
            trace.trace_id,
            trace.parent,
            D::ROOT,
            trace.req_start_ns,
            now,
        );
        let stages = &self.dispatcher.metrics().stages;
        stages.record(Stage::Write, now.saturating_sub(staged) / 1_000);
        let total_us = now.saturating_sub(trace.req_start_ns) / 1_000;
        stages.record(D::ROOT, total_us);
        if self.trace_slow_us.is_some_and(|limit| total_us >= limit)
            && bi_obs::log::enabled(bi_obs::Level::Warn)
        {
            let spans = recorder.trace_spans(trace.trace_id);
            bi_obs::log::warn(
                D::NAME,
                "slow request",
                &[
                    ("trace", Json::from_u64(trace.trace_id)),
                    ("total_us", Json::from_u64(total_us)),
                    (
                        "spans",
                        Json::Arr(spans.iter().map(bi_obs::SpanEvent::to_json).collect()),
                    ),
                ],
            );
        }
    }

    /// Parses and dispatches buffered requests while the connection has
    /// no staged response and nothing in flight (one response at a time
    /// keeps pipelined answers in order). Returns the flight of a
    /// request that became a route; its bytes stay in the buffer.
    fn process_buffered(
        &self,
        conn: &mut Conn,
        slot: usize,
        generation: u64,
    ) -> Option<Flight<D::Route>> {
        let metrics = self.dispatcher.metrics();
        let recorder = self.dispatcher.recorder();
        while conn.out.is_empty() && !conn.in_flight {
            let t_parse = recorder.now_ns();
            let head = match parse_head(&conn.buf) {
                Ok(None) => return None, // need more bytes
                Ok(Some(head)) => head,
                Err(e) => {
                    // Protocol errors poison framing: answer and close.
                    conn.close_after_write = true;
                    stage_bytes(conn, recorder, e.status, &error_body(&e.msg), &[]);
                    return None;
                }
            };
            let total = head.total_len();
            if conn.buf.len() < total {
                return None; // body still in flight
            }
            metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            conn.req_keep_alive = head.keep_alive;
            // Adopt the peer's trace id (a router hop) or mint one; the
            // root span id is allocated now so every stage nests under
            // it, and the root itself is recorded when the response
            // flushes.
            let trace_id = head.trace_id.unwrap_or_else(|| recorder.new_trace_id());
            let root_span = recorder.next_span_id();
            conn.trace = Some(ConnTrace {
                trace_id,
                root_span,
                parent: head.parent_span.unwrap_or(0),
                req_start_ns: t_parse,
                staged_ns: 0,
            });
            let t_parsed = recorder.now_ns();
            recorder.record(trace_id, root_span, Stage::Parse, t_parse, t_parsed);
            metrics
                .stages
                .record(Stage::Parse, t_parsed.saturating_sub(t_parse) / 1_000);
            // The buffer is moved out (not copied) for the dispatch, so
            // the request can borrow it while the answer is staged into
            // the same connection.
            let buf = std::mem::take(&mut conn.buf);
            let ctx = TraceCtx {
                trace_id,
                parent: root_span,
            };
            let body = head.head_len..total;
            let request = Request {
                method: &buf[head.method.clone()],
                path: &buf[head.path.clone()],
                body: &buf[body.clone()],
                ctx,
            };
            let dispatched = handle_panics(metrics, || {
                self.dispatcher
                    .dispatch(&request, &mut Reply { conn, recorder })
            })
            .unwrap_or_else(|| {
                // Drop whatever the handler staged before it panicked.
                conn.out.clear();
                stage_bytes(conn, recorder, 500, &panic_body(), &[]);
                Dispatched::Answered
            });
            conn.buf = buf;
            match dispatched {
                Dispatched::Answered => {
                    conn.buf.drain(..total);
                }
                Dispatched::Job(job) => {
                    conn.buf.drain(..total);
                    self.submit(
                        conn,
                        Task {
                            slot,
                            generation,
                            job,
                        },
                    );
                }
                Dispatched::Route(route) => {
                    conn.in_flight = true;
                    return Some(Flight {
                        route,
                        ctx,
                        body,
                        consumed: total,
                        message: Vec::new(),
                        attempt: None,
                        timer: None,
                    });
                }
            }
        }
        None
    }

    /// Hands a job to the pool, shedding it when the bounded queue is
    /// full.
    fn submit(&self, conn: &mut Conn, task: Task<D::Job>) {
        if self.pool.submit(task).is_ok() {
            conn.in_flight = true;
            self.dispatcher
                .metrics()
                .solves_in_flight
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed(conn);
        }
    }

    /// Answers `429` + `Retry-After` to a request past the pool's queue
    /// or the route cap — backpressure, not failure.
    fn shed(&self, conn: &mut Conn) {
        self.dispatcher
            .metrics()
            .backpressure_429
            .fetch_add(1, Ordering::Relaxed);
        stage_bytes(
            conn,
            self.dispatcher.recorder(),
            429,
            &error_body("work queue is full, retry shortly"),
            &[("Retry-After", "1")],
        );
    }
}

/// Writes as much of the staged response as the socket accepts; `true`
/// once fully flushed.
fn flush_out(conn: &mut Conn, fault: Option<&FaultPlan>) -> io::Result<bool> {
    // The write seam: a disconnect resets the peer mid-response, a
    // delay stalls the flush, a short write pushes one byte and yields
    // back to the poll loop (POLLOUT is level-triggered, so the rest
    // follows on later passes).
    let mut write_cap = usize::MAX;
    if let Some(plan) = fault {
        match plan.next() {
            Some(FaultKind::Disconnect) => return Err(io::ErrorKind::ConnectionReset.into()),
            Some(FaultKind::Delay) => std::thread::sleep(plan.delay()),
            Some(FaultKind::ShortWrite) => write_cap = 1,
            _ => {}
        }
    }
    while conn.out_pos < conn.out.len() {
        let end = conn.out_pos.saturating_add(write_cap).min(conn.out.len());
        match conn.stream.write(&conn.out[conn.out_pos..end]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                if write_cap != usize::MAX && conn.out_pos < conn.out.len() {
                    return Ok(false); // short write injected; resume on POLLOUT
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Stages a pool job's or a route's answer, with its extra headers.
fn stage_response(conn: &mut Conn, recorder: &Recorder, response: &Response) {
    let extra: Vec<(&str, &str)> = response
        .extra_headers
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .collect();
    stage_bytes(conn, recorder, response.status, &response.body, &extra);
}

/// Stages a response into the connection's reusable output buffer and
/// notes its status, which [`Io::pump`] counts once the response is
/// final, before its first write.
fn stage_bytes(
    conn: &mut Conn,
    recorder: &Recorder,
    status: u16,
    body: &[u8],
    extra: &[(&str, &str)],
) {
    conn.status = status;
    let keep = conn.req_keep_alive && !conn.close_after_write;
    write_head_into(
        &mut conn.out,
        status,
        "application/json",
        body.len(),
        keep,
        extra,
    );
    conn.out.extend_from_slice(body);
    conn.out_pos = 0;
    if let Some(trace) = &mut conn.trace {
        if trace.staged_ns == 0 {
            trace.staged_ns = recorder.now_ns();
        }
    }
    if !keep {
        conn.close_after_write = true;
    }
}

/// Answers `503` on the reactor when the connection cap is reached — the
/// rejection path must stay cheap and never block on a worker. The
/// freshly accepted socket is still in blocking mode; the response is a
/// handful of bytes, so the write cannot stall meaningfully.
fn reject_busy(mut stream: TcpStream, metrics: &ServiceMetrics) {
    metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
    metrics.record_status(503);
    let body = error_body("connection limit reached, retry later");
    let mut out = Vec::with_capacity(128 + body.len());
    write_head_into(&mut out, 503, "application/json", body.len(), false, &[]);
    out.extend_from_slice(&body);
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// `bi-serve`'s dispatcher: cache hits, probes, metrics and cache puts
/// are answered inline; cache misses and batches go to the solver pool.
struct Node {
    service: Arc<SolveService>,
    /// The seeded fault plan, consulted at the dispatch seam.
    fault: Option<Arc<FaultPlan>>,
}

/// One unit of work for the solver pool.
enum NodeJob {
    /// A keyed `POST /solve` miss (a canonical body is decoded on the
    /// worker).
    Solve(Box<PreparedSolve>),
    /// A `POST /solve_batch` body (decoded on the worker: batches are
    /// bulk work by definition, so their decode cost stays off the
    /// reactor) and its trace, under which each game records the stages
    /// of a `/solve`.
    Batch(Vec<u8>, TraceCtx),
}

impl Dispatcher for Node {
    type Job = NodeJob;
    type Route = Infallible;
    const ROOT: Stage = Stage::Request;
    const NAME: &'static str = "bi-serve";

    fn metrics(&self) -> &ServiceMetrics {
        self.service.metrics()
    }

    fn recorder(&self) -> &Recorder {
        self.service.recorder()
    }

    fn dispatch(
        &self,
        request: &Request<'_>,
        reply: &mut Reply<'_>,
    ) -> Dispatched<NodeJob, Infallible> {
        let service = &*self.service;
        let metrics = service.metrics();
        let target = classify(request.method, request.path);
        // The dispatch seam: serving endpoints can answer an injected
        // 500 — the request was understood, the work was "lost". This
        // seam spares probes and metrics, but the accept, read and write
        // seams hit every connection: under a plan with those kinds a
        // `/healthz` probe or a `/metrics` scrape can be refused or
        // dropped too.
        if matches!(target, Target::Solve | Target::Batch | Target::CachePut) {
            if let Some(plan) = &self.fault {
                if plan.next() == Some(FaultKind::Err500) {
                    reply.send(500, &error_body("injected fault"), &[]);
                    return Dispatched::Answered;
                }
            }
        }
        match target {
            Target::Solve => {
                metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
                match service.try_serve_fast(request.body, request.ctx) {
                    Ok(FastOutcome::Hit(served)) => {
                        // Staging the cached bytes is the hit path's
                        // `encode` stage (head build + body copy).
                        let t_enc = service.recorder().now_ns();
                        reply.send(200, &served.body, &[("X-Cache", "hit")]);
                        service.finish_stage(request.ctx, Stage::Encode, t_enc);
                    }
                    Ok(FastOutcome::Miss(prepared)) => {
                        return Dispatched::Job(NodeJob::Solve(prepared))
                    }
                    Err(e) => reply.send(400, &error_body(&e.to_string()), &[]),
                }
            }
            Target::Batch => {
                metrics.batch_requests.fetch_add(1, Ordering::Relaxed);
                return Dispatched::Job(NodeJob::Batch(request.body.to_vec(), request.ctx));
            }
            Target::Healthz => reply.send(200, &healthz_body(), &[]),
            Target::CachePut => {
                let (status, body) = handle_cache_put(service, request.body);
                reply.send(status, &body, &[]);
            }
            Target::Metrics => {
                let mut doc = service.metrics_json();
                if let Some(plan) = &self.fault {
                    if let Json::Obj(fields) = &mut doc {
                        fields.push(("faults".into(), plan.to_json()));
                    }
                }
                reply.send(200, doc.to_string().as_bytes(), &[]);
            }
            Target::DebugTrace => {
                reply.send(200, service.trace_json().to_string().as_bytes(), &[]);
            }
            Target::MethodNotAllowed => reply.send(405, &error_body("method not allowed"), &[]),
            Target::NotFound => reply.send(404, &error_body("unknown endpoint"), &[]),
        }
        Dispatched::Answered
    }

    fn step<'a>(&self, route: &'a mut Infallible, _: &'a [u8], _: Outcome, _: Instant) -> Step<'a> {
        match *route {}
    }

    fn run(&self, job: NodeJob) -> Response {
        let service = &*self.service;
        match job {
            NodeJob::Solve(prepared) => match service.complete_solve(*prepared) {
                Ok(served) => {
                    Response::json(200, served.body.to_vec()).with_header("X-Cache", "miss")
                }
                // A canonical body that does not decode, a 400; a game
                // unsolvable as asked (budget, no equilibrium, …), a
                // semantic 422; or a wrong engine answer, a 500.
                Err(e) => e.response(),
            },
            NodeJob::Batch(body, ctx) => handle_batch(service, &body, ctx),
        }
    }
}

/// Which node endpoint a request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    Solve,
    Batch,
    CachePut,
    Healthz,
    Metrics,
    DebugTrace,
    MethodNotAllowed,
    NotFound,
}

fn classify(method: &[u8], path: &[u8]) -> Target {
    match (method, path) {
        (b"POST", b"/solve") => Target::Solve,
        (b"POST", b"/solve_batch") => Target::Batch,
        (b"POST", b"/cache_put") => Target::CachePut,
        (b"GET", b"/healthz") => Target::Healthz,
        (b"GET", b"/metrics") => Target::Metrics,
        (b"GET", b"/debug/trace") => Target::DebugTrace,
        (
            _,
            b"/healthz" | b"/metrics" | b"/debug/trace" | b"/solve" | b"/solve_batch"
            | b"/cache_put",
        ) => Target::MethodNotAllowed,
        _ => Target::NotFound,
    }
}

fn healthz_body() -> Vec<u8> {
    Json::Obj(vec![("status".into(), Json::str("ok"))]).canonical_bytes()
}

/// Installs a peer-shipped response (`POST /cache_put`). The body is
/// binary-framed — `[request_len u32 LE][request bytes][response
/// bytes]` — so the solve request and its canonical response travel as
/// one opaque payload with no JSON re-encoding on either side.
fn handle_cache_put(service: &SolveService, body: &[u8]) -> (u16, Vec<u8>) {
    if body.len() < 4 {
        return (
            400,
            error_body("cache_put body is shorter than its length prefix"),
        );
    }
    let req_len = u32::from_le_bytes(body[..4].try_into().expect("four bytes checked")) as usize;
    let rest = &body[4..];
    if req_len > rest.len() {
        return (400, error_body("cache_put request length exceeds the body"));
    }
    let (request, response) = rest.split_at(req_len);
    match service.cache_put(request, response) {
        Ok(()) => (
            200,
            Json::Obj(vec![("status".into(), Json::str("stored"))]).canonical_bytes(),
        ),
        Err(e) => (400, error_body(&e.to_string())),
    }
}

fn handle_batch(service: &SolveService, body: &[u8], ctx: TraceCtx) -> Response {
    let results = match service.solve_batch(body, ctx) {
        Ok(results) => results,
        Err(e) => return e.response(),
    };
    if let Some(e) = chain_failure(&results) {
        return e.response();
    }
    let count = |hit: bool| {
        results
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|served| served.cache_hit == hit))
            .count()
    };
    let (hits, misses) = (count(true), count(false));
    let entries = results.iter().map(|result| {
        result
            .as_ref()
            .map(|served| &served.body[..])
            .map_err(|e| error_body(&e.to_string()))
    });
    Response::json(200, reports_body(entries))
        .with_header("X-Cache-Hits", hits.to_string())
        .with_header("X-Cache-Misses", misses.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_endpoint() {
        assert_eq!(classify(b"POST", b"/solve"), Target::Solve);
        assert_eq!(classify(b"POST", b"/solve_batch"), Target::Batch);
        assert_eq!(classify(b"POST", b"/cache_put"), Target::CachePut);
        assert_eq!(classify(b"GET", b"/cache_put"), Target::MethodNotAllowed);
        assert_eq!(classify(b"GET", b"/healthz"), Target::Healthz);
        assert_eq!(classify(b"GET", b"/metrics"), Target::Metrics);
        assert_eq!(classify(b"GET", b"/debug/trace"), Target::DebugTrace);
        assert_eq!(classify(b"DELETE", b"/solve"), Target::MethodNotAllowed);
        assert_eq!(classify(b"POST", b"/healthz"), Target::MethodNotAllowed);
        assert_eq!(classify(b"POST", b"/debug/trace"), Target::MethodNotAllowed);
        assert_eq!(classify(b"GET", b"/nope"), Target::NotFound);
    }

    #[test]
    fn the_pool_bounds_its_queue_and_drains_before_closing() {
        let task = |job: u32| Task {
            slot: 0,
            generation: 0,
            job,
        };
        let pool = Pool::new(2);
        assert!(pool.submit(task(1)).is_ok());
        assert!(pool.submit(task(2)).is_ok());
        let refused = pool.submit(task(3)).expect_err("a full queue refuses");
        assert_eq!(refused.job, 3);
        assert_eq!(pool.take().map(|t| t.job), Some(1));
        pool.close();
        // Queued jobs still run after close; then workers are told to exit.
        assert_eq!(pool.take().map(|t| t.job), Some(2));
        assert!(pool.take().is_none());
    }

    /// A dispatcher that panics inline on `/boom`, after staging an
    /// answer, and in the pool on `/boom-job`; anything else is `200`.
    #[derive(Default)]
    struct Panicky {
        metrics: ServiceMetrics,
        recorder: Recorder,
    }

    impl Dispatcher for Panicky {
        type Job = ();
        type Route = Infallible;
        const ROOT: Stage = Stage::Request;
        const NAME: &'static str = "panicky";

        fn metrics(&self) -> &ServiceMetrics {
            &self.metrics
        }

        fn recorder(&self) -> &Recorder {
            &self.recorder
        }

        fn dispatch(
            &self,
            request: &Request<'_>,
            reply: &mut Reply<'_>,
        ) -> Dispatched<(), Infallible> {
            match request.path {
                b"/boom-job" => return Dispatched::Job(()),
                b"/boom" => {
                    reply.send(200, b"{}", &[]);
                    panic!("dispatch panics on purpose");
                }
                _ => reply.send(200, b"{}", &[]),
            }
            Dispatched::Answered
        }

        fn run(&self, (): ()) -> Response {
            panic!("job panics on purpose");
        }

        fn step<'a>(
            &self,
            route: &'a mut Infallible,
            _: &'a [u8],
            _: Outcome,
            _: Instant,
        ) -> Step<'a> {
            match *route {}
        }
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_server_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dispatcher = Arc::new(Panicky::default());
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let engine = serve(listener, Arc::clone(&dispatcher), &config).unwrap();
        let mut client = client_of(&engine);
        for (path, status) in [("/boom", 500), ("/boom-job", 500), ("/ok", 200)] {
            let response = client.request("GET", path, b"").expect(path);
            assert_eq!(response.status, status, "{path}");
        }
        let metrics = &dispatcher.metrics;
        assert_eq!(metrics.handler_panics.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.responses_5xx.load(Ordering::Relaxed), 2);
        // The 200 that `/boom` staged before panicking was never sent.
        assert_eq!(metrics.responses_2xx.load(Ordering::Relaxed), 1);
        engine.stop();
    }

    /// A dispatcher whose `/job` requests go to the pool, where each job
    /// reports that it started and then blocks until the test releases
    /// it; anything else is answered `200` inline. Backpressure tests
    /// built on it do not depend on how fast anything solves.
    struct Gated {
        metrics: ServiceMetrics,
        recorder: Recorder,
        started: std::sync::mpsc::Sender<()>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Dispatcher for Gated {
        type Job = ();
        type Route = Infallible;
        const ROOT: Stage = Stage::Request;
        const NAME: &'static str = "gated";

        fn metrics(&self) -> &ServiceMetrics {
            &self.metrics
        }

        fn recorder(&self) -> &Recorder {
            &self.recorder
        }

        fn dispatch(
            &self,
            request: &Request<'_>,
            reply: &mut Reply<'_>,
        ) -> Dispatched<(), Infallible> {
            if request.path == b"/job" {
                return Dispatched::Job(());
            }
            reply.send(200, b"{}", &[]);
            Dispatched::Answered
        }

        fn run(&self, (): ()) -> Response {
            self.started.send(()).expect("the test is listening");
            self.release
                .lock()
                .expect("release lock")
                .recv()
                .expect("the test releases every job");
            Response::json(200, b"{}".to_vec())
        }

        fn step<'a>(
            &self,
            route: &'a mut Infallible,
            _: &'a [u8],
            _: Outcome,
            _: Instant,
        ) -> Step<'a> {
            match *route {}
        }
    }

    /// A one-worker engine over [`Gated`] with a `queue_capacity` queue;
    /// returns it with the job-started receiver and the release sender.
    fn gated_engine(
        queue_capacity: usize,
    ) -> (
        Engine<()>,
        Arc<Gated>,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let dispatcher = Arc::new(Gated {
            metrics: ServiceMetrics::default(),
            recorder: Recorder::default(),
            started: started_tx,
            release: Mutex::new(release_rx),
        });
        let config = ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let engine = serve(listener, Arc::clone(&dispatcher), &config).unwrap();
        (engine, dispatcher, started_rx, release_tx)
    }

    /// A keep-alive client with a read timeout, so a hang fails the test
    /// instead of stalling it.
    fn client_of(engine: &Engine<()>) -> crate::http::HttpClient {
        let client = crate::http::HttpClient::connect(&engine.addr().to_string()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
    }

    /// Sends `GET /job` on a fresh connection without waiting for the
    /// answer; the returned reader reads it later.
    fn send_job(engine: &Engine<()>) -> io::BufReader<TcpStream> {
        let mut stream = TcpStream::connect(engine.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        crate::http::write_request(&mut stream, "GET", "/job", b"", false).unwrap();
        io::BufReader::new(stream)
    }

    #[test]
    fn a_full_queue_answers_429_with_retry_after() {
        let (engine, dispatcher, started, release) = gated_engine(1);
        let metrics = &dispatcher.metrics;
        // The only worker takes the first job and blocks in it.
        let mut running = send_job(&engine);
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker starts the first job");
        // The second job fills the one-deep queue.
        let mut queued = send_job(&engine);
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.solves_in_flight.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < deadline, "the second job was never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A third has nowhere to go.
        let refused = client_of(&engine).request("GET", "/job", b"").unwrap();
        assert_eq!(refused.status, 429);
        assert_eq!(refused.header("retry-after"), Some("1"));
        assert_eq!(metrics.backpressure_429.load(Ordering::Relaxed), 1);
        // The accepted jobs still finish.
        release.send(()).unwrap();
        release.send(()).unwrap();
        for reader in [&mut running, &mut queued] {
            assert_eq!(crate::http::read_response(reader).unwrap().status, 200);
        }
        assert_eq!(metrics.responses_4xx.load(Ordering::Relaxed), 1);
        engine.stop();
    }

    #[test]
    fn inline_answers_are_served_while_the_only_worker_is_blocked() {
        let (engine, dispatcher, started, release) = gated_engine(16);
        let mut running = send_job(&engine);
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker starts the job");
        // The job cannot finish before it is released, so this answer
        // came from the reactor while the worker was busy.
        let inline = client_of(&engine).request("GET", "/ok", b"").unwrap();
        assert_eq!(inline.status, 200);
        let metrics = &dispatcher.metrics;
        assert_eq!(metrics.solves_in_flight.load(Ordering::Relaxed), 1);
        release.send(()).unwrap();
        assert_eq!(
            crate::http::read_response(&mut running).unwrap().status,
            200
        );
        engine.stop();
    }

    #[test]
    fn batch_handler_maps_parse_errors_to_400() {
        let service = SolveService::new(CacheConfig::default());
        for body in [&b"not json"[..], &[0xff, 0xfe], b"{}"] {
            assert_eq!(handle_batch(&service, body, TraceCtx::NONE).status, 400);
        }
    }
}
