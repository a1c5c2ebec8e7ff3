//! The transport-independent service core: typed requests, the
//! content-addressed cache keying, and the solve/batch handlers the HTTP
//! server (and any future transport) routes into.
//!
//! Request wire forms:
//!
//! * `POST /solve` — `{"game": {"kind": "matrix"|"ncs", "game": …},
//!   "config": SolverConfig}` (`config` optional, defaults to
//!   [`SolverConfig::default`]); the response body is the canonical
//!   [`SolveReport`] JSON — byte-identical to encoding an in-process
//!   [`Solver::solve`] result.
//! * `POST /solve_batch` — `{"games": [GameSpec, …], "config": …}`: one
//!   shared config, many games (e.g. a family of priors over one
//!   underlying graph). The batch is decoded once and each game is
//!   served as the `/solve` of its canonical body, in request order;
//!   the response is `{"reports": [{"report": …} | {"error": …}, …]}`,
//!   aligned by index.
//!
//! The cache key is the canonical bytes of `{game, backend, budget}` —
//! the thread count is deliberately **excluded**: sweeps are bit-for-bit
//! identical across thread counts, so results are shareable across
//! differently-threaded clients.
//!
//! A canonical request body already holds those three values, canonically
//! spelled, so its key is read off its bytes ([`SolveService::span_key`]):
//! one scan, no value tree, no re-encode. Any other body is decoded to
//! find its key ([`SolveService::cache_key`]) and re-encoded once. Either
//! way a miss carries canonical bytes to the solver pool, which decodes
//! them, and they answer the next byte-identical body off the raw index.

use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::Arc;

use bi_core::measures::ChainViolation;
use bi_core::solve::{SolveError, SolveReport, Solver, SolverConfig};
use bi_core::BayesianGame;
use bi_ncs::BayesianNcsGame;
use bi_obs::{Recorder, Stage, TraceCtx};
use bi_util::json::{canon_elements, canon_members, field};
use bi_util::{CodecError, Decode, Encode, Json};

use crate::cache::{CacheConfig, CacheStats, ShardedLru};
use crate::http::Response;
use crate::metrics::ServiceMetrics;
use crate::persist::{DiskTier, DiskTierStats};

/// Why a solve produced no answer to serve.
#[derive(Debug)]
pub enum ServeError {
    /// The engine could not solve the game as asked (budget, no
    /// equilibrium, …): a semantic `422`.
    Solve(SolveError),
    /// The engine's report breaks Observation 2.2's chain, so it is
    /// wrong: a `500`, and never cached.
    Chain(ChainViolation),
    /// A canonical body keyed by its spans failed to decode on the
    /// solver pool: a `400`, with the text the reactor's decode would
    /// have answered.
    Decode(CodecError),
    /// A request the service accepted but could not take apart as it
    /// must: a `500`.
    Internal(&'static str),
}

impl ServeError {
    /// The HTTP status that answers this error.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Solve(_) => 422,
            ServeError::Chain(_) => 500,
            ServeError::Decode(_) => 400,
            ServeError::Internal(_) => 500,
        }
    }

    /// The answer to this error, the same at every hop.
    pub(crate) fn response(&self) -> Response {
        Response::json(self.status(), error_body(&self.to_string()))
    }
}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> Self {
        ServeError::Solve(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Solve(e) => e.fmt(f),
            ServeError::Chain(e) => write!(f, "internal error: the solver's report failed {e}"),
            ServeError::Decode(e) => e.fmt(f),
            ServeError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Solve(e) => Some(e),
            ServeError::Chain(e) => Some(e),
            ServeError::Decode(e) => Some(e),
            ServeError::Internal(_) => None,
        }
    }
}

/// The first wrong answer among a batch's results, if any: a batch that
/// holds one is answered `500` as a whole.
#[must_use]
pub fn chain_failure<T>(results: &[Result<T, ServeError>]) -> Option<&ServeError> {
    results.iter().find_map(|r| match r {
        Err(e @ ServeError::Chain(_)) => Some(e),
        _ => None,
    })
}

/// A solvable game in either representation the solver serves.
#[derive(Clone, Debug)]
pub enum GameSpec {
    /// A matrix-form Bayesian game (`bi-core`).
    Matrix(BayesianGame),
    /// A Bayesian network cost-sharing game (`bi-ncs`).
    Ncs(BayesianNcsGame),
}

impl Encode for GameSpec {
    fn encode(&self) -> Json {
        let (kind, game) = match self {
            GameSpec::Matrix(g) => ("matrix", g.encode()),
            GameSpec::Ncs(g) => ("ncs", g.encode()),
        };
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("game".into(), game),
        ])
    }
}

impl Decode for GameSpec {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        match bi_util::json::field_str(v, "kind")? {
            "matrix" => Ok(GameSpec::Matrix(
                BayesianGame::decode(field(v, "game")?).map_err(|e| e.context("game"))?,
            )),
            "ncs" => Ok(GameSpec::Ncs(
                BayesianNcsGame::decode(field(v, "game")?).map_err(|e| e.context("game"))?,
            )),
            other => Err(CodecError::new(format!("unknown game kind `{other}`"))),
        }
    }
}

/// One `POST /solve` request: a game plus the solver configuration.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The game to solve.
    pub game: GameSpec,
    /// How to solve it.
    pub config: SolverConfig,
}

impl Encode for SolveRequest {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("game".into(), self.game.encode()),
            ("config".into(), self.config.encode()),
        ])
    }
}

impl Decode for SolveRequest {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let game = GameSpec::decode(field(v, "game")?).map_err(|e| e.context("game"))?;
        let config = match v.get("config") {
            None | Some(Json::Null) => SolverConfig::default(),
            Some(c) => SolverConfig::decode(c).map_err(|e| e.context("config"))?,
        };
        Ok(SolveRequest { game, config })
    }
}

/// One `POST /solve_batch` request: many games, one shared configuration.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The games to solve, answered in order.
    pub games: Vec<GameSpec>,
    /// The shared solver configuration.
    pub config: SolverConfig,
}

impl Encode for BatchRequest {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            (
                "games".into(),
                Json::Arr(self.games.iter().map(Encode::encode).collect()),
            ),
            ("config".into(), self.config.encode()),
        ])
    }
}

impl Decode for BatchRequest {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let games = bi_util::json::field_arr(v, "games")?
            .iter()
            .enumerate()
            .map(|(i, g)| GameSpec::decode(g).map_err(|e| e.context(&format!("games[{i}]"))))
            .collect::<Result<Vec<_>, _>>()?;
        let config = match v.get("config") {
            None | Some(Json::Null) => SolverConfig::default(),
            Some(c) => SolverConfig::decode(c).map_err(|e| e.context("config"))?,
        };
        Ok(BatchRequest { games, config })
    }
}

/// One served answer: a cache hit or a completed solve, for a
/// `POST /solve` body or one game of a batch.
#[derive(Clone, Debug)]
pub struct ServedResponse {
    /// The canonical [`SolveReport`] JSON bytes (shared with the cache).
    pub body: Arc<[u8]>,
    /// Whether the cache answered (no engine work happened).
    pub cache_hit: bool,
    /// Whether the answer came straight off the raw-byte index: the
    /// `/solve` body (a batch game's canonical one) was byte-identical to
    /// a prior canonical one, so no key was read off it.
    pub zero_copy: bool,
}

/// A keyed cache miss, ready to cross into the solver pool. Produced by
/// [`SolveService::try_serve_fast`], consumed by
/// [`SolveService::complete_solve`]: the request crosses as its canonical
/// bytes (the body as sent, or a non-canonical body re-encoded) and is
/// decoded on the solver thread.
#[derive(Debug)]
pub struct PreparedSolve {
    body: Vec<u8>,
    key: Vec<u8>,
    /// The trace context this miss was prepared under; the solver thread
    /// records its `decode`/`solve`/`encode` spans into the same trace.
    ctx: TraceCtx,
}

impl PreparedSolve {
    /// The trace context the miss carries into the solver pool.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }
}

/// What [`SolveService::try_serve_fast`] decided for one `POST /solve`
/// body.
#[derive(Debug)]
pub enum FastOutcome {
    /// Answered from cache — the transport can write the bytes
    /// immediately without involving the solver pool.
    Hit(ServedResponse),
    /// A cache miss: hand the prepared solve to a solver thread and
    /// finish with [`SolveService::complete_solve`].
    Miss(Box<PreparedSolve>),
}

/// The serving core: a solve cache plus service counters, shared by all
/// worker threads.
///
/// Two caches back the service. The primary cache is keyed by the
/// content address ([`SolveService::cache_key`], or for a canonical
/// body the same bytes read off it by [`SolveService::span_key`]). The
/// **raw index** maps exact canonical request bytes to the same shared
/// response `Arc`s, giving the transport a zero-parse hit path:
/// byte-identical body ⟹ identical parse ⟹ identical result.
///
/// The fast path looks the raw index up **before** checking anything.
/// Only canonical bytes are inserted: a body that passed `span_key`'s
/// [`bi_util::json::canon_check`] scan (a hit warming the index, and
/// `cache_put`) or the encoder's own bytes of a solved miss. A hit
/// compares the full key bytes, so checking again would prove nothing
/// new: a hot body costs one hash and one comparison.
pub struct SolveService {
    cache: ShardedLru<Arc<[u8]>>,
    /// Exact request-body bytes → response bytes, canonical bodies only.
    raw_index: ShardedLru<Arc<[u8]>>,
    /// The second tier: LRU misses are looked up here (and promoted on a
    /// hit); every computed report is appended behind the hot path. A
    /// restarted node answers its old key space warm.
    disk: Option<DiskTier>,
    metrics: ServiceMetrics,
    /// The span flight recorder every stage of this node records into
    /// (`GET /debug/trace` dumps it).
    recorder: Arc<Recorder>,
}

impl SolveService {
    /// Creates a service with the given cache sizing (the raw-byte index
    /// is sized identically) and no disk tier.
    #[must_use]
    pub fn new(cache: CacheConfig) -> Self {
        Self::with_disk(cache, None)
    }

    /// [`SolveService::new`] with an optional disk-backed second tier.
    #[must_use]
    pub fn with_disk(cache: CacheConfig, disk: Option<DiskTier>) -> Self {
        SolveService {
            cache: ShardedLru::new(cache),
            raw_index: ShardedLru::new(cache),
            disk,
            metrics: ServiceMetrics::default(),
            recorder: Arc::new(Recorder::default()),
        }
    }

    /// The disk tier's snapshot (`None` when the node runs memory-only).
    #[must_use]
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Blocks until every disk append queued so far is durable — orderly
    /// shutdown and the restart tests; the serving path never calls this.
    pub fn sync_disk(&self) {
        if let Some(disk) = &self.disk {
            disk.sync();
        }
    }

    /// The one cache lookup: the LRU, then the disk tier, promoting a
    /// disk hit into the LRU so the next lookup stays in memory. The
    /// promotion is recorded as a `disk_promote` stage (read +
    /// decompress + LRU insert).
    fn lookup(&self, key: &[u8], ctx: TraceCtx) -> Option<Arc<[u8]>> {
        if let Some(body) = self.cache.get(key) {
            return Some(body);
        }
        let disk = self.disk.as_ref()?;
        let t0 = self.recorder.now_ns();
        let body: Arc<[u8]> = Arc::from(disk.get(key)?);
        self.cache.insert(key, Arc::clone(&body));
        self.finish_stage(ctx, Stage::DiskPromote, t0);
        Some(body)
    }

    /// [`ServiceMetrics::finish_stage`] on this node's recorder.
    pub(crate) fn finish_stage(&self, ctx: TraceCtx, stage: Stage, t0: u64) {
        self.metrics.finish_stage(&self.recorder, ctx, stage, t0);
    }

    /// The span flight recorder this node records into.
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The `GET /debug/trace` document.
    #[must_use]
    pub fn trace_json(&self) -> Json {
        self.recorder.to_json()
    }

    /// The service counters (the server records statuses here too).
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The primary (content-addressed) cache's effectiveness snapshot;
    /// hits served off the raw-byte index are not in it.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The `GET /metrics` document.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        self.metrics.to_json(
            self.cache.stats(),
            self.raw_index.stats(),
            self.disk_stats(),
        )
    }

    /// The content address of a request: canonical bytes of
    /// `{game, backend, budget}` (threads excluded — they never change
    /// results).
    #[must_use]
    pub fn cache_key(game: &GameSpec, config: &SolverConfig) -> Vec<u8> {
        Json::Obj(vec![
            ("game".into(), game.encode()),
            ("backend".into(), config.backend.encode()),
            ("budget".into(), config.budget.encode()),
        ])
        .canonical_bytes()
    }

    /// The content address of a canonical `POST /solve` body, read off
    /// its bytes: the spans of `game`, `config.backend` and
    /// `config.budget` copied into `{"backend":…,"budget":…,"game":…}`,
    /// from one [`bi_util::json::canon_members`] pass and no decode. For
    /// every body the encoders produce it equals [`Self::cache_key`] of
    /// the decoded request, byte for byte.
    ///
    /// `None` sends the body down the decode path: it is not canonical,
    /// not UTF-8, has no `game`, or carries a `config` that is not an
    /// object with `backend`, `budget` and a canonical non-negative
    /// integer `threads` (so a key read here never answers a body the
    /// decoder rejects for its config). An absent or `null` config is
    /// the default one; other members, such as a legacy
    /// `config.symmetry`, are ignored, as the decoder ignores them.
    ///
    /// A body whose spans are not the encoders' own spelling (say, a
    /// number with more digits than the shortest round trip) gets a key
    /// of its own. The key's bytes still fix the decoded game, backend
    /// and budget, so it can only ever answer the same report.
    #[must_use]
    pub fn span_key(body: &[u8]) -> Option<Vec<u8>> {
        let [config, game] = canon_members(body, [b"config", b"game"])?;
        let key = ConfigSpans::of(config)?.key(game?);
        std::str::from_utf8(body).is_ok().then_some(key)
    }

    /// Solves one request as a `POST /solve` of its canonical bytes:
    /// [`Self::try_serve_fast`], then [`Self::complete_solve`] on a miss.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`SolveError`], or a report that breaks the
    /// measure chain (neither is cached).
    pub fn solve(&self, request: &SolveRequest) -> Result<ServedResponse, ServeError> {
        match self.try_serve_fast(&request.canonical_bytes(), TraceCtx::NONE) {
            Ok(FastOutcome::Hit(served)) => Ok(served),
            Ok(FastOutcome::Miss(prepared)) => self.complete_solve(*prepared),
            Err(e) => Err(ServeError::Decode(e)),
        }
    }

    /// Solves a `POST /solve_batch` body as a list of `/solve`s under the
    /// request's trace: the batch is decoded once (the `decode` stage),
    /// then each game takes a `/solve`'s lookup under its canonical body
    /// and a miss is solved from the decoded game, so a game repeated
    /// within the batch is solved once. Results keep the input order.
    ///
    /// # Errors
    ///
    /// Returns the whole batch's `400` when it does not decode.
    pub fn solve_batch(
        &self,
        batch: &[u8],
        ctx: TraceCtx,
    ) -> Result<Vec<Result<ServedResponse, ServeError>>, ServeError> {
        let t_decode = self.recorder.now_ns();
        let split = split_batch(batch);
        self.finish_stage(ctx, Stage::Decode, t_decode);
        let (games, config) = split?;
        Ok(games
            .into_iter()
            .map(|game| {
                let (key, body) = (game.key, &game.body);
                let keyed = || Ok::<_, Infallible>((key, Cow::Borrowed(&body[..])));
                let Ok(outcome) = self.serve_cached(body, ctx, keyed);
                match outcome {
                    FastOutcome::Hit(served) => Ok(served),
                    FastOutcome::Miss(miss) => {
                        self.compute(&game.game, config, miss.key, body, ctx)
                    }
                }
            })
            .collect())
    }

    /// The transport fast path for one `POST /solve` body. The body is
    /// first looked up in the raw-byte index, before any canonicality
    /// check (see [`SolveService`] for why that is sound) — a hit there
    /// is served without building any JSON value tree. Otherwise it is
    /// keyed by `solve_key`: a canonical body by its spans, with no
    /// decode; any other by decoding it once. The LRU and the disk tier
    /// are consulted by that key, and a miss comes back as a
    /// [`PreparedSolve`] carrying the canonical bytes, which the solver
    /// pool decodes.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] when a body with no span key is not
    /// valid UTF-8 or fails to decode as a solve request. A canonical
    /// body that fails to decode fails in [`Self::complete_solve`].
    pub fn try_serve_fast(&self, body: &[u8], ctx: TraceCtx) -> Result<FastOutcome, CodecError> {
        self.serve_cached(body, ctx, || solve_key(body))
    }

    /// The cache lookup of one `/solve`, its `cache` stage: the raw index
    /// by the bytes as sent, then `keyed`'s key in the LRU and the disk
    /// tier (which records a nested `disk_promote` on a second-tier
    /// hit). A keyed hit warms the raw index only with bytes that arrived
    /// canonical, so a non-canonical spelling never enters it.
    fn serve_cached<'a, E>(
        &self,
        body: &[u8],
        ctx: TraceCtx,
        keyed: impl FnOnce() -> Result<(Vec<u8>, Cow<'a, [u8]>), E>,
    ) -> Result<FastOutcome, E> {
        use std::sync::atomic::Ordering::Relaxed;
        let t0 = self.recorder.now_ns();
        let hit = |body, zero_copy| {
            FastOutcome::Hit(ServedResponse {
                body,
                cache_hit: true,
                zero_copy,
            })
        };
        let outcome = if let Some(cached) = self.raw_index.get(body) {
            debug_assert!(
                bi_util::json::canon_check(body),
                "only canonical bodies enter the raw index"
            );
            self.metrics.zero_copy_hits.fetch_add(1, Relaxed);
            hit(cached, true)
        } else {
            let (key, canonical) = keyed()?;
            if let Some(cached) = self.lookup(&key, ctx) {
                self.metrics.parsed_hits.fetch_add(1, Relaxed);
                if let Cow::Borrowed(canonical) = canonical {
                    self.raw_index.insert(canonical, Arc::clone(&cached));
                }
                hit(cached, false)
            } else {
                FastOutcome::Miss(Box::new(PreparedSolve {
                    body: canonical.into_owned(),
                    key,
                    ctx,
                }))
            }
        };
        self.finish_stage(ctx, Stage::Cache, t0);
        Ok(outcome)
    }

    /// Finishes a [`PreparedSolve`] on a solver thread: decodes its
    /// canonical bytes (the `decode` stage), runs the engine, stores the
    /// report, and returns the response bytes.
    ///
    /// # Errors
    ///
    /// Returns the decode error of a canonical body that is not a valid
    /// solve request, the engine's [`SolveError`], or a report that
    /// breaks the measure chain (none of them is cached).
    pub fn complete_solve(&self, prepared: PreparedSolve) -> Result<ServedResponse, ServeError> {
        let PreparedSolve { body, key, ctx } = prepared;
        let t_decode = self.recorder.now_ns();
        let decoded = decode_body::<SolveRequest>(&body);
        self.finish_stage(ctx, Stage::Decode, t_decode);
        let request = decoded.map_err(ServeError::Decode)?;
        self.compute(&request.game, request.config, key, &body, ctx)
    }

    /// The one solve path, behind every miss of a `/solve` body and of
    /// each batch game: runs the engine (timed into the cold-path
    /// histogram, and as a `solve` span when traced), then
    /// [`Self::finish_miss`].
    fn compute(
        &self,
        game: &GameSpec,
        config: SolverConfig,
        key: Vec<u8>,
        raw: &[u8],
        ctx: TraceCtx,
    ) -> Result<ServedResponse, ServeError> {
        let solver = Self::solver(config);
        let t_solve = self.recorder.now_ns();
        let result = match game {
            GameSpec::Matrix(g) => solver.solve(g),
            GameSpec::Ncs(g) => solver.solve(g),
        };
        // Recorded before the `?` so failed invocations count too: the
        // histogram tracks engine invocations, not successes.
        self.finish_stage(ctx, Stage::Solve, t_solve);
        self.finish_miss(key, raw, result, ctx)
    }

    /// The engine for a client's config, with `threads` clamped to the
    /// host's cores (`0` still means one per core), so no request can
    /// make one solve spawn more threads than the host has. Answers do
    /// not change: sweeps are bit-identical across thread counts.
    fn solver(config: SolverConfig) -> Solver {
        // Probed once: on Linux the probe reads cgroup files, too slow
        // for every cold solve.
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let cores = *CORES.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Solver::from_config(SolverConfig {
            threads: config.threads.min(cores),
            ..config
        })
    }

    /// The one tail of every miss: counts the computed report, checks it
    /// against Observation 2.2 (a report that breaks the chain is
    /// counted, answered `500` and never cached), then encodes it and
    /// [stores](Self::store) it under `key` and the canonical request
    /// bytes `raw`. The encode and the stores are the miss's `encode`
    /// stage.
    fn finish_miss(
        &self,
        key: Vec<u8>,
        raw: &[u8],
        result: Result<SolveReport, SolveError>,
        ctx: TraceCtx,
    ) -> Result<ServedResponse, ServeError> {
        use std::sync::atomic::Ordering::Relaxed;
        let report = result?;
        self.metrics.solves_computed.fetch_add(1, Relaxed);
        if let Err(violation) = report.measures.verify_chain() {
            self.metrics.chain_violations.fetch_add(1, Relaxed);
            return Err(ServeError::Chain(violation));
        }
        let t_encode = self.recorder.now_ns();
        let body: Arc<[u8]> = Arc::from(report.canonical_bytes());
        self.store(&key, Some(raw), &body);
        self.finish_stage(ctx, Stage::Encode, t_encode);
        Ok(ServedResponse {
            body,
            cache_hit: false,
            zero_copy: false,
        })
    }

    /// Stores a response under `key` in the LRU and, write-behind, the
    /// disk tier, and under `canonical`, the request's canonical bytes,
    /// in the raw index.
    fn store(&self, key: &[u8], canonical: Option<&[u8]>, body: &Arc<[u8]>) {
        self.cache.insert(key, Arc::clone(body));
        if let Some(canonical) = canonical {
            self.raw_index.insert(canonical, Arc::clone(body));
        }
        if let Some(disk) = &self.disk {
            // Queued, never blocking a solver or transport thread.
            disk.append_shared(key, Arc::clone(body));
        }
    }

    /// Installs a peer-shipped response without solving — the handler
    /// behind `POST /cache_put`, which a router uses for replication
    /// write-through and read-repair. The embedded solve request is
    /// decoded only to validate it; it is keyed as `/solve` keys it, by
    /// [`Self::span_key`] when canonical. The response bytes are stored
    /// verbatim, so a repaired node serves byte-identical answers to the
    /// node that solved them.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] when the embedded request is not a
    /// valid solve request (the response bytes are never validated —
    /// they are already canonical output of a peer's solve).
    pub fn cache_put(&self, request_body: &[u8], response_body: &[u8]) -> Result<(), CodecError> {
        let text = std::str::from_utf8(request_body)
            .map_err(|_| CodecError::new("cache_put request bytes are not valid UTF-8"))?;
        let request = SolveRequest::decode_str(text)?;
        let span_key = Self::span_key(request_body);
        let canonical = span_key.is_some().then_some(request_body);
        let key = span_key.unwrap_or_else(|| Self::cache_key(&request.game, &request.config));
        self.store(&key, canonical, &Arc::from(response_body));
        self.metrics
            .cache_puts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

/// A `/solve` body's content address and canonical bytes: a body
/// [`SolveService::span_key`] keys is borrowed as it is; any other is
/// decoded once, keyed by [`SolveService::cache_key`] and re-encoded once.
pub(crate) fn solve_key(body: &[u8]) -> Result<(Vec<u8>, Cow<'_, [u8]>), CodecError> {
    if let Some(key) = SolveService::span_key(body) {
        return Ok((key, Cow::Borrowed(body)));
    }
    let request = decode_body::<SolveRequest>(body)?;
    let key = SolveService::cache_key(&request.game, &request.config);
    Ok((key, Cow::Owned(request.canonical_bytes())))
}

/// Decodes a request body, on a node and on the router alike, so one
/// bad body is answered with one `decode error: …` text at every hop.
pub(crate) fn decode_body<T: Decode>(body: &[u8]) -> Result<T, CodecError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| CodecError::new("request body is not valid UTF-8"))?;
    T::decode_str(text)
}

/// The canonical bytes of the default config and of its `backend` and
/// `budget`: what a request without a `config` is keyed and sent with.
struct DefaultConfig {
    config: Vec<u8>,
    backend: Vec<u8>,
    budget: Vec<u8>,
}

fn default_config() -> &'static DefaultConfig {
    static DEFAULT: std::sync::OnceLock<DefaultConfig> = std::sync::OnceLock::new();
    DEFAULT.get_or_init(|| {
        let config = SolverConfig::default();
        DefaultConfig {
            config: config.canonical_bytes(),
            backend: config.backend.canonical_bytes(),
            budget: config.budget.canonical_bytes(),
        }
    })
}

/// The `config` of a canonical request, as the byte spans its key and
/// its `/solve` body are copied from.
#[derive(Clone, Copy)]
struct ConfigSpans<'a> {
    config: &'a [u8],
    backend: &'a [u8],
    budget: &'a [u8],
}

impl<'a> ConfigSpans<'a> {
    /// The spans of a canonical request's `config` member (absent or
    /// `null`: the default config), or `None` when the decoder might
    /// reject it: not an object, a member missing, or `threads` not a
    /// canonical integer in `[0, 2^53]`.
    fn of(config: Option<&'a [u8]>) -> Option<Self> {
        let config = match config {
            None | Some(b"null") => {
                let d = default_config();
                return Some(ConfigSpans {
                    config: &d.config,
                    backend: &d.backend,
                    budget: &d.budget,
                });
            }
            Some(config) => config,
        };
        let [backend, budget, threads] =
            canon_members(config, [b"backend", b"budget", b"threads"])?;
        let threads = threads?;
        // The decoder reads `threads` as an `f64` that must be a whole
        // number in [0, 2^53]: take plain digits (no sign, no point; the
        // scan already ruled out leading zeros) that parse within it.
        let whole = !threads.is_empty() && threads.iter().all(u8::is_ascii_digit);
        let fits = std::str::from_utf8(threads)
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .is_some_and(|t| t <= 9_007_199_254_740_992.0);
        (whole && fits).then_some(ConfigSpans {
            config,
            backend: backend?,
            budget: budget?,
        })
    }

    /// The content address of `game` under this config: the bytes
    /// [`SolveService::cache_key`] writes, for encoder-made spans.
    fn key(&self, game: &[u8]) -> Vec<u8> {
        let mut key = Vec::with_capacity(32 + self.backend.len() + self.budget.len() + game.len());
        key.extend_from_slice(br#"{"backend":"#);
        key.extend_from_slice(self.backend);
        key.extend_from_slice(br#","budget":"#);
        key.extend_from_slice(self.budget);
        key.extend_from_slice(br#","game":"#);
        key.extend_from_slice(game);
        key.push(b'}');
        key
    }

    /// The canonical `/solve` body of `game` under this config: the
    /// bytes [`SolveRequest::canonical_bytes`] writes, for encoder-made
    /// spans.
    fn solve_body(&self, game: &[u8]) -> Vec<u8> {
        let mut body = Vec::with_capacity(20 + self.config.len() + game.len());
        body.extend_from_slice(br#"{"config":"#);
        body.extend_from_slice(self.config);
        body.extend_from_slice(br#","game":"#);
        body.extend_from_slice(game);
        body.push(b'}');
        body
    }
}

/// One game of a batch as its own `/solve`: its content address, its
/// canonical `/solve` body, and the game decoded.
pub(crate) struct BatchGame {
    pub(crate) key: Vec<u8>,
    pub(crate) body: Vec<u8>,
    pub(crate) game: GameSpec,
}

/// The one batch splitter, behind a node's and a router's
/// `/solve_batch`: decodes the batch once, so one invalid game answers
/// the whole batch `400` with one text at every hop, then copies each
/// game's key and `/solve` body with [`batch_solves`] from the body as
/// sent when it is canonical, else from the batch encoded once.
pub(crate) fn split_batch(body: &[u8]) -> Result<(Vec<BatchGame>, SolverConfig), ServeError> {
    let batch = decode_body::<BatchRequest>(body).map_err(ServeError::Decode)?;
    let solves = batch_solves(body)
        .or_else(|| batch_solves(&batch.canonical_bytes()))
        .ok_or(ServeError::Internal(
            "the batch's canonical bytes did not split into games",
        ))?;
    let games = batch.games.into_iter().zip(solves);
    let games = games.map(|(game, (key, body))| BatchGame { key, body, game });
    Ok((games.collect(), batch.config))
}

/// One game of a canonical `POST /solve_batch` body as a `/solve`:
/// `(key, body)`, its [`SolveService::span_key`] and its canonical
/// `/solve` body, both copied from the batch's bytes in request order.
/// `None` when the batch is not canonical or its `config` is one
/// [`SolveService::span_key`] would not key. The caller has decoded the
/// batch, so every game is known valid.
pub(crate) fn batch_solves(batch: &[u8]) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let [config, games] = canon_members(batch, [b"config", b"games"])?;
    let config = ConfigSpans::of(config)?;
    let games = canon_elements(games?)?;
    Some(
        games
            .into_iter()
            .map(|game| (config.key(game), config.solve_body(game)))
            .collect(),
    )
}

/// A JSON error body: `{"error": "..."}`.
#[must_use]
pub fn error_body(msg: &str) -> Vec<u8> {
    Json::Obj(vec![("error".into(), Json::str(msg))])
        .canonical_string()
        .into_bytes()
}

/// A `POST /solve_batch` answer spliced from per-game answers in request
/// order: a report `Ok(bytes)` enters as `{"report":bytes}` and an error
/// body `Err(bytes)` enters verbatim. Every part is already canonical
/// JSON, so nothing is parsed or re-encoded.
pub(crate) fn reports_body<R: AsRef<[u8]>, E: AsRef<[u8]>>(
    entries: impl IntoIterator<Item = Result<R, E>>,
) -> Vec<u8> {
    let mut out = br#"{"reports":["#.to_vec();
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match entry {
            Ok(report) => {
                out.extend_from_slice(br#"{"report":"#);
                out.extend_from_slice(report.as_ref());
                out.push(b'}');
            }
            Err(error) => out.extend_from_slice(error.as_ref()),
        }
    }
    out.extend_from_slice(b"]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_core::random_games::random_bayesian_potential_game;
    use bi_core::solve::Backend;
    use bi_graph::{Direction, Graph};
    use bi_ncs::Prior;

    fn matrix_game(seed: u64) -> GameSpec {
        GameSpec::Matrix(random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed).0)
    }

    fn ncs_game() -> GameSpec {
        let mut g = Graph::new(Direction::Directed);
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m, 1.0);
        g.add_edge(m, t, 1.0);
        g.add_edge(s, t, 3.0);
        let prior = Prior::independent(vec![
            vec![((s, t), 1.0)],
            vec![((s, t), 0.5), ((s, s), 0.5)],
        ]);
        GameSpec::Ncs(BayesianNcsGame::new(g, prior).unwrap())
    }

    fn request(game: GameSpec) -> SolveRequest {
        SolveRequest {
            game,
            config: SolverConfig::default(),
        }
    }

    #[test]
    fn solve_results_match_the_in_process_engine_exactly() {
        let service = SolveService::new(CacheConfig::default());
        for game in [matrix_game(1), ncs_game()] {
            let outcome = service.solve(&request(game.clone())).unwrap();
            assert!(!outcome.cache_hit);
            let direct = match &game {
                GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
                GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
            };
            assert_eq!(
                outcome.body.as_ref(),
                direct.canonical_bytes().as_slice(),
                "service bytes must be identical to the in-process report"
            );
        }
    }

    #[test]
    fn a_report_that_breaks_the_chain_is_answered_500_and_never_cached() {
        let path = std::env::temp_dir().join(format!("bi-chain-gate-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let disk = DiskTier::open(&path, crate::persist::DiskTierConfig::default()).unwrap();
        let service = SolveService::with_disk(CacheConfig::default(), Some(disk));
        let req = request(matrix_game(4));
        let GameSpec::Matrix(game) = &req.game else {
            unreachable!()
        };
        let sound = Solver::default().solve(game).unwrap();
        // No exact solve reports any of these. The complete-information
        // links are broken by less than `approx_le`'s tolerance: they are
        // compared exactly.
        let below = |x: f64| x - 1e-12 * x.abs().max(1.0);
        let mut breaks = Vec::new();
        let mut broken = sound;
        broken.measures.opt_p = broken.measures.best_eq_p + 1.0;
        breaks.push(("optP ≤ best-eqP", broken));
        let mut broken = sound;
        broken.measures.best_eq_c = below(broken.measures.opt_c);
        breaks.push(("optC ≤ best-eqC", broken));
        let mut broken = sound;
        broken.measures.worst_eq_c = below(broken.measures.best_eq_c);
        breaks.push(("best-eqC ≤ worst-eqC", broken));
        let key = SolveService::cache_key(&req.game, &req.config);
        let raw = req.canonical_bytes();
        for (n, (link, broken)) in breaks.into_iter().enumerate() {
            let err = service
                .finish_miss(key.clone(), &raw, Ok(broken), TraceCtx::NONE)
                .unwrap_err();
            assert!(
                matches!(&err, ServeError::Chain(v) if v.link == link),
                "{err}"
            );
            assert_eq!(err.status(), 500);
            assert!(chain_failure(&[Ok(()), Err(err)]).is_some());
            service.sync_disk();
            assert_eq!(service.cache_stats().insertions, 0);
            assert_eq!(service.disk_stats().unwrap().appends, 0);
            assert!(service.lookup(&key, TraceCtx::NONE).is_none());
            let metrics = service.metrics_json();
            assert_eq!(
                metrics.get("chain_violations").unwrap().as_u64(),
                Some(n as u64 + 1)
            );
        }
        // The sound report of the same game is cached and served.
        let served = service
            .finish_miss(key.clone(), &raw, Ok(sound), TraceCtx::NONE)
            .unwrap();
        assert_eq!(served.body.as_ref(), sound.canonical_bytes().as_slice());
        assert!(service.lookup(&key, TraceCtx::NONE).is_some());
        drop(service);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resubmission_hits_the_cache() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(2));
        let cold = service.solve(&req).unwrap();
        let warm = service.solve(&req).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit && warm.zero_copy);
        assert_eq!(cold.body, warm.body);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn thread_count_does_not_split_the_cache() {
        let service = SolveService::new(CacheConfig::default());
        let game = matrix_game(3);
        let one = SolveRequest {
            game: game.clone(),
            config: SolverConfig {
                threads: 1,
                ..SolverConfig::default()
            },
        };
        let four = SolveRequest {
            game,
            config: SolverConfig {
                threads: 4,
                ..SolverConfig::default()
            },
        };
        assert_eq!(
            SolveService::cache_key(&one.game, &one.config),
            SolveService::cache_key(&four.game, &four.config)
        );
        service.solve(&one).unwrap();
        assert!(service.solve(&four).unwrap().cache_hit);
    }

    #[test]
    fn client_thread_counts_are_clamped_to_the_host() {
        let cores = std::thread::available_parallelism().unwrap().get();
        let greedy = SolverConfig {
            threads: 1_000_000,
            ..SolverConfig::default()
        };
        assert!(SolveService::solver(greedy).threads() <= cores);
        let per_core = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        assert_eq!(SolveService::solver(per_core).threads(), 0);
        // The clamp changes no answer byte.
        let game = matrix_game(14);
        let one = SolveService::new(CacheConfig::default())
            .solve(&SolveRequest {
                game: game.clone(),
                config: SolverConfig {
                    threads: 1,
                    ..SolverConfig::default()
                },
            })
            .unwrap();
        let many = SolveService::new(CacheConfig::default())
            .solve(&SolveRequest {
                game,
                config: greedy,
            })
            .unwrap();
        assert!(!one.cache_hit && !many.cache_hit);
        assert_eq!(one.body, many.body);
    }

    /// Three interchangeable binary agents: the sweep covers 8 profiles
    /// through 4 orbits.
    fn symmetric_game() -> GameSpec {
        let g = bi_core::MatrixFormGame::from_fn(3, &[2, 2, 2], |_, a| {
            a.iter().map(|&x| (x + 1) as f64).sum()
        });
        GameSpec::Matrix(BayesianGame::new(vec![1, 1, 1], vec![(vec![0, 0, 0], 1.0, g)]).unwrap())
    }

    #[test]
    fn legacy_symmetry_field_is_ignored_and_shares_the_cache() {
        let service = SolveService::new(CacheConfig::default());
        let game = symmetric_game();
        let canonical = request(game.clone());
        // A body from a client of the retired `off`/`auto` knob decodes
        // to the canonical request, so it shares its cache entry.
        let mut body = canonical.encode();
        if let Json::Obj(fields) = &mut body {
            let config = &mut fields.iter_mut().find(|(k, _)| k == "config").unwrap().1;
            if let Json::Obj(config) = config {
                config.push(("symmetry".into(), Json::str("auto")));
            }
        }
        let legacy = SolveRequest::decode(&body).unwrap();
        assert_eq!(legacy.config, canonical.config);
        assert_eq!(
            SolveService::cache_key(&legacy.game, &legacy.config),
            SolveService::cache_key(&canonical.game, &canonical.config)
        );
        let cold = service.solve(&legacy).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.solve(&canonical).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.body, warm.body);
        // The report is byte-identical to an unreduced sweep's: the
        // profiles it covers, and a null `orbit`.
        let report = SolveReport::decode_str(std::str::from_utf8(&warm.body).unwrap()).unwrap();
        assert_eq!(report.profiles_evaluated, 8);
        let text = std::str::from_utf8(&warm.body).unwrap();
        assert!(text.contains(r#""orbit":null"#), "{text}");
        assert!(service.metrics_json().get("orbit").is_none());
    }

    #[test]
    fn different_backends_are_different_content() {
        let game = matrix_game(4);
        let exhaustive = request(game.clone());
        let sampled = SolveRequest {
            game,
            config: SolverConfig {
                backend: Backend::MonteCarloSampling {
                    samples: 16,
                    seed: 1,
                },
                ..SolverConfig::default()
            },
        };
        assert_ne!(
            SolveService::cache_key(&exhaustive.game, &exhaustive.config),
            SolveService::cache_key(&sampled.game, &sampled.config)
        );
    }

    #[test]
    fn batches_mix_hits_misses_and_representations() {
        let service = SolveService::new(CacheConfig::default());
        // Pre-warm one of the games.
        service.solve(&request(matrix_game(5))).unwrap();
        let batch = BatchRequest {
            games: vec![matrix_game(5), matrix_game(6), ncs_game()],
            config: SolverConfig::default(),
        };
        let results = service
            .solve_batch(&batch.canonical_bytes(), TraceCtx::NONE)
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].as_ref().unwrap().cache_hit);
        assert!(!results[1].as_ref().unwrap().cache_hit);
        assert!(!results[2].as_ref().unwrap().cache_hit);
        // Each answer matches a direct solve.
        for (game, result) in batch.games.iter().zip(&results) {
            let direct = match game {
                GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
                GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
            };
            assert_eq!(
                result.as_ref().unwrap().body.as_ref(),
                direct.canonical_bytes().as_slice()
            );
        }
    }

    #[test]
    fn engine_errors_pass_through_and_are_not_cached() {
        let service = SolveService::new(CacheConfig::default());
        let req = SolveRequest {
            game: matrix_game(7),
            config: SolverConfig {
                budget: bi_core::solve::Budget {
                    max_profiles: 1,
                    max_iterations: 8,
                },
                ..SolverConfig::default()
            },
        };
        assert!(matches!(
            service.solve(&req),
            Err(ServeError::Solve(SolveError::BudgetExceeded { .. }))
        ));
        assert_eq!(service.cache_stats().insertions, 0);
        // Batch errors stay per-game.
        let batch = BatchRequest {
            games: vec![req.game.clone()],
            config: req.config,
        };
        let results = service
            .solve_batch(&batch.canonical_bytes(), TraceCtx::NONE)
            .unwrap();
        assert!(matches!(
            results[0],
            Err(ServeError::Solve(SolveError::BudgetExceeded { .. }))
        ));
    }

    #[test]
    fn cold_solves_feed_the_latency_histogram() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(9));
        let solves = || service.metrics().stages.get(Stage::Solve).count();
        service.solve(&req).unwrap();
        assert_eq!(solves(), 1);
        // A cache hit never touches the engine or the histogram.
        service.solve(&req).unwrap();
        assert_eq!(solves(), 1);
        // A batch records one engine sample per game that missed, two
        // matrix games and one NCS game here; a fully-cached batch
        // records none.
        let batch = BatchRequest {
            games: vec![
                req.game.clone(),
                matrix_game(10),
                matrix_game(15),
                ncs_game(),
            ],
            config: req.config,
        };
        let batch = batch.canonical_bytes();
        service.solve_batch(&batch, TraceCtx::NONE).unwrap();
        assert_eq!(solves(), 4);
        service.solve_batch(&batch, TraceCtx::NONE).unwrap();
        assert_eq!(solves(), 4);
        // Failed engine invocations count too.
        let unsolvable = SolveRequest {
            game: matrix_game(11),
            config: SolverConfig {
                budget: bi_core::solve::Budget {
                    max_profiles: 1,
                    max_iterations: 8,
                },
                ..SolverConfig::default()
            },
        };
        assert!(service.solve(&unsolvable).is_err());
        assert_eq!(solves(), 5);
        let doc = service.metrics_json();
        let solve = doc.get("stages").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_u64(), Some(5));
        assert!(solve.get("p99").unwrap().as_u64().is_some());
    }

    #[test]
    fn fast_path_goes_zero_copy_after_first_sighting() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(12));
        let body = req.encode().canonical_bytes();
        // First sighting: decode once, miss, solve.
        let prepared = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Miss(p) => p,
            other => panic!("expected a miss, got {other:?}"),
        };
        let cold = service.complete_solve(*prepared).unwrap();
        assert!(!cold.cache_hit && !cold.zero_copy);
        // Second sighting of the exact same canonical bytes: answered
        // off the raw index, no parse.
        let warm = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(warm.cache_hit && warm.zero_copy);
        assert_eq!(cold.body, warm.body);
        // A non-canonical spelling of the same request still hits — via
        // the parse path — and yields byte-identical response bytes.
        let mut spaced = b" ".to_vec();
        spaced.extend_from_slice(&body);
        let parsed = match service.try_serve_fast(&spaced, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(parsed.cache_hit && !parsed.zero_copy);
        assert_eq!(parsed.body, warm.body);
        // And the blocking path agrees byte-for-byte.
        assert_eq!(service.solve(&req).unwrap().body, warm.body);
        let m = service.metrics();
        assert_eq!(
            m.zero_copy_hits.load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        assert_eq!(m.parsed_hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn parsed_hits_warm_the_raw_index() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(13));
        // Populate the primary cache alone — the raw index has never
        // seen these bytes.
        let GameSpec::Matrix(game) = &req.game else {
            unreachable!()
        };
        let report = Solver::default().solve(game).unwrap().canonical_bytes();
        let key = SolveService::cache_key(&req.game, &req.config);
        service.cache.insert(&key, Arc::from(report));
        let body = req.encode().canonical_bytes();
        let first = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(!first.zero_copy, "first sighting must take the parse path");
        let second = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(second.zero_copy, "the parsed hit must warm the raw index");
        assert_eq!(first.body, second.body);
    }

    #[test]
    fn traced_requests_record_cache_solve_and_encode_spans() {
        let service = SolveService::new(CacheConfig::default());
        let trace = service.recorder().new_trace_id();
        let root = service.recorder().next_span_id();
        let ctx = TraceCtx {
            trace_id: trace,
            parent: root,
        };
        let body = request(matrix_game(20)).encode().canonical_bytes();
        let prepared = match service.try_serve_fast(&body, ctx).unwrap() {
            FastOutcome::Miss(p) => p,
            other => panic!("expected a miss, got {other:?}"),
        };
        assert_eq!(prepared.ctx(), ctx);
        service.complete_solve(*prepared).unwrap();
        let spans = service.recorder().trace_spans(trace);
        let stages: Vec<&str> = spans.iter().map(|s| s.stage.name()).collect();
        assert!(stages.contains(&"cache"), "stages: {stages:?}");
        assert!(stages.contains(&"solve"), "stages: {stages:?}");
        assert!(stages.contains(&"encode"), "stages: {stages:?}");
        assert!(
            spans.iter().all(|s| s.parent == root),
            "every service span nests under the request root"
        );
        // The stage histograms fill regardless of tracing.
        let m = service.metrics();
        assert_eq!(m.stages.get(bi_obs::Stage::Cache).count(), 1);
        assert_eq!(m.stages.get(bi_obs::Stage::Solve).count(), 1);
        assert_eq!(m.stages.get(bi_obs::Stage::Encode).count(), 1);
        // An untraced request fills histograms but records no spans.
        let before = service.recorder().spans().len();
        let warm = request(matrix_game(20)).encode().canonical_bytes();
        match service.try_serve_fast(&warm, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => assert!(r.cache_hit),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(service.recorder().spans().len(), before);
        assert_eq!(m.stages.get(bi_obs::Stage::Cache).count(), 2);
    }

    #[test]
    fn a_traced_batch_records_a_decode_span_and_each_games_solve_stages() {
        let service = SolveService::new(CacheConfig::default());
        service.solve(&request(matrix_game(21))).unwrap();
        let recorder = service.recorder();
        let (trace, root) = (recorder.new_trace_id(), recorder.next_span_id());
        let ctx = TraceCtx {
            trace_id: trace,
            parent: root,
        };
        let batch = BatchRequest {
            games: vec![matrix_game(21), matrix_game(22), ncs_game()],
            config: SolverConfig::default(),
        };
        let results = service.solve_batch(&batch.canonical_bytes(), ctx).unwrap();
        assert!(results[0].as_ref().unwrap().zero_copy);
        let spans = recorder.trace_spans(trace);
        assert!(spans.iter().all(|s| s.parent == root), "{spans:?}");
        let count = |stage: &str| spans.iter().filter(|s| s.stage.name() == stage).count();
        // One decode for the batch, a lookup per game, and a solve and
        // an encode per missed game: no span covers the whole batch.
        assert_eq!(
            ["decode", "cache", "solve", "encode"].map(count),
            [1, 3, 2, 2]
        );
        assert_eq!(spans.len(), 8, "{spans:?}");
    }

    #[test]
    fn fast_path_rejects_malformed_bodies_without_solving() {
        let service = SolveService::new(CacheConfig::default());
        assert!(service.try_serve_fast(b"not json", TraceCtx::NONE).is_err());
        assert!(service
            .try_serve_fast(&[0xff, 0xfe], TraceCtx::NONE)
            .is_err());
        // A canonical body is keyed by its spans, not decoded, so its
        // decode fails on the solver pool, as a 400 with the reactor's
        // text.
        let body = br#"{"game":{"kind":"cubic"}}"#;
        let FastOutcome::Miss(prepared) = service.try_serve_fast(body, TraceCtx::NONE).unwrap()
        else {
            panic!("a canonical body of an unseen key is a miss");
        };
        let err = service.complete_solve(*prepared).unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(
            err.to_string(),
            SolveRequest::decode_str(std::str::from_utf8(body).unwrap())
                .unwrap_err()
                .to_string()
        );
        assert!(err.to_string().contains("unknown game kind"));
        assert_eq!(service.cache_stats().insertions, 0);
        assert_eq!(service.metrics().stages.get(Stage::Solve).count(), 0);
    }

    #[test]
    fn batch_solves_copy_each_games_key_and_solve_body_from_the_batch_bytes() {
        let sampled = SolverConfig {
            backend: Backend::MonteCarloSampling {
                samples: 16,
                seed: 3,
            },
            threads: 2,
            ..SolverConfig::default()
        };
        for config in [SolverConfig::default(), sampled] {
            let batch = BatchRequest {
                games: vec![matrix_game(30), ncs_game(), matrix_game(31)],
                config,
            };
            let solves = batch_solves(&batch.canonical_bytes()).unwrap();
            assert_eq!(solves.len(), 3);
            for (game, (key, body)) in batch.games.iter().zip(&solves) {
                assert_eq!(key, &SolveService::cache_key(game, &config));
                let request = SolveRequest {
                    game: game.clone(),
                    config,
                };
                assert_eq!(body, &request.canonical_bytes());
                assert_eq!(SolveService::span_key(body).as_ref(), Some(key));
            }
        }
        // A batch without a config is sent with the default one.
        let game = matrix_game(32);
        let bare = Json::Obj(vec![("games".into(), Json::Arr(vec![game.encode()]))]);
        let solves = batch_solves(&bare.canonical_bytes()).unwrap();
        assert_eq!(solves[0].1, request(game).canonical_bytes());
        // Non-canonical batch bytes are not split.
        let mut spaced = b" ".to_vec();
        spaced.extend_from_slice(&bare.canonical_bytes());
        assert!(batch_solves(&spaced).is_none());
    }

    #[test]
    fn span_keys_read_configs_as_the_decoder_does() {
        let game = matrix_game(33);
        let key = SolveService::cache_key(&game, &SolverConfig::default());
        let with_config = |config: &str| {
            format!(
                r#"{{"config":{config},"game":{}}}"#,
                game.encode().canonical_string()
            )
            .into_bytes()
        };
        let default = SolverConfig::default().encode().canonical_string();
        let legacy = default.replacen(r#","threads":"#, r#","symmetry":"auto","threads":"#, 1);
        for keyed in [default.as_str(), "null", &legacy] {
            assert_eq!(
                SolveService::span_key(&with_config(keyed)),
                Some(key.clone()),
                "{keyed}"
            );
        }
        let bare = format!(r#"{{"game":{}}}"#, game.encode().canonical_string());
        assert_eq!(SolveService::span_key(bare.as_bytes()), Some(key));
        // Configs the decoder might reject go down the decode path.
        let threads = format!(r#""threads":{}"#, SolverConfig::default().threads);
        for unkeyed in [
            default.replacen(&threads, r#""threads":"1""#, 1),
            default.replacen(&threads, r#""threads":-0"#, 1),
            default.replacen(&threads, r#""threads":0.5"#, 1),
            default.replacen(&threads, r#""threads":90071992547409930"#, 1),
            default.replacen(&format!(",{threads}"), "", 1),
            "3".to_string(),
        ] {
            assert!(unkeyed != default, "the edit must apply");
            assert_eq!(
                SolveService::span_key(&with_config(&unkeyed)),
                None,
                "{unkeyed}"
            );
        }
        // A canonical body with a non-UTF-8 byte inside a string passes
        // the scan, but is not keyed.
        let mut bad = with_config(&legacy);
        let at = bad.windows(4).position(|w| w == b"auto").unwrap();
        bad[at] = 0xff;
        assert!(bi_util::json::canon_check(&bad));
        assert_eq!(SolveService::span_key(&bad), None);
    }

    #[test]
    fn a_disk_log_keyed_by_cache_key_answers_span_keyed_bodies_warm() {
        let path = std::env::temp_dir().join(format!("bi-span-log-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let reqs = [request(matrix_game(34)), request(ncs_game())];
        let reports: Vec<Vec<u8>> = {
            // A log written as earlier nodes wrote it: keyed by
            // `cache_key` of the decoded request.
            let disk = DiskTier::open(&path, crate::persist::DiskTierConfig::default()).unwrap();
            let reports = reqs
                .iter()
                .map(|r| SolveService::new(CacheConfig::default()).solve(r).unwrap())
                .map(|served| served.body.to_vec())
                .collect::<Vec<_>>();
            for (r, report) in reqs.iter().zip(&reports) {
                disk.append(&SolveService::cache_key(&r.game, &r.config), report);
            }
            disk.sync();
            reports
        };
        let disk = DiskTier::open(&path, crate::persist::DiskTierConfig::default()).unwrap();
        let service = SolveService::with_disk(CacheConfig::default(), Some(disk));
        for (r, report) in reqs.iter().zip(&reports) {
            match service
                .try_serve_fast(&r.canonical_bytes(), TraceCtx::NONE)
                .unwrap()
            {
                FastOutcome::Hit(served) => assert_eq!(served.body.as_ref(), report.as_slice()),
                other => panic!("expected a disk hit, got {other:?}"),
            }
        }
        assert_eq!(service.disk_stats().unwrap().hits, 2);
        assert_eq!(
            service
                .metrics()
                .solves_computed
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        drop(service);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn requests_round_trip_on_the_wire() {
        let req = request(matrix_game(8));
        let decoded = SolveRequest::decode(&req.encode()).unwrap();
        assert_eq!(
            SolveService::cache_key(&decoded.game, &decoded.config),
            SolveService::cache_key(&req.game, &req.config)
        );
        // Config defaults when omitted.
        let bare = Json::Obj(vec![("game".into(), req.game.encode())]);
        let decoded = SolveRequest::decode(&bare).unwrap();
        assert_eq!(decoded.config, SolverConfig::default());
        let batch = BatchRequest {
            games: vec![matrix_game(8), ncs_game()],
            config: SolverConfig::default(),
        };
        let decoded = BatchRequest::decode(&batch.encode()).unwrap();
        assert_eq!(decoded.games.len(), 2);
    }

    #[test]
    fn malformed_requests_name_the_offending_field() {
        let err = SolveRequest::decode_str(r#"{"game":{"kind":"cubic"}}"#).unwrap_err();
        assert!(err.to_string().contains("unknown game kind"));
        let err = SolveRequest::decode_str(r#"{}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `game`"));
        let err = BatchRequest::decode_str(r#"{"games":[{"kind":"cubic"}]}"#).unwrap_err();
        assert!(err.to_string().contains("games[0]"));
    }
}
