//! The four closed-loop workloads: seeded inputs, reference answers,
//! the stack each one drives, and one operation at a time.
//!
//! Every workload has one caller that waits for each reply before it
//! sends the next request, and solves with `SolverConfig::default()`
//! (exhaustive, one thread, symmetry off). Inputs are a pure function
//! of the seed; the program under test only ever sees the generated
//! games and request bodies.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bi_constructions::gworst::{GWorstGame, GWorstVariant};
use bi_core::model::BayesianModel;
use bi_core::random_games::{random_bayesian_potential_game, random_potential_game};
use bi_core::solve::{Solver, SolverConfig};
use bi_core::BayesianGame;
use bi_ncs::BayesianNcsGame;
use bi_service::http::HttpClient;
use bi_service::{
    CacheConfig, FallbackMode, GameSpec, Router, RouterConfig, RouterHandle, Server, ServerConfig,
    ServerHandle, SolveRequest, SolveService,
};
use bi_util::rng::derive_seed;
use bi_util::{fnv1a, Encode};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["solve-matrix", "solve-gworst", "serve-hot", "cluster-churn"];

/// Matrix games in the `solve-matrix` and `serve-hot` pools.
const MATRIX_POOL: usize = 64;
/// In-process set-up ends with passes over the pool until at least
/// this many warm-up solves have run.
const WARM_SOLVES: usize = 8;
/// Answers folded into the per-run digest: the first operations of the
/// seeded plan, which every run reaches whatever its speed.
const DIGEST_OPS: u64 = 64;
/// `cluster-churn`: each node's LRU (and raw-byte index) capacity, one
/// shard so that eviction order is exact.
const CHURN_LRU: usize = 32;
/// `cluster-churn`: keys solved through the router during set-up, so
/// that keys older than the LRU exist from the first timed round.
const CHURN_WARM: usize = 64;
/// `cluster-churn`: recent hits pick among this many latest fresh keys.
const CHURN_RECENT: usize = 8;
/// `cluster-churn`: types per agent of its games.
const CHURN_TYPES: usize = 5;

/// A small seeded generator for the benchmark's own choices (which pool
/// entry to send next, the order of a churn round).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `solve-matrix` shape: 2×2 types, 12×12 actions, 4 states —
/// 20,736 strategy profiles per solve.
pub fn matrix_game(seed: u64, i: usize) -> BayesianGame {
    random_bayesian_potential_game(
        &[2, 2],
        &[12, 12],
        4,
        derive_seed(seed, &format!("matrix{i}")),
    )
    .0
}

/// The `cluster-churn` game: 2 agents with 5 types each whose types
/// always agree (5 states on the diagonal), 3 actions per state — 243
/// strategies per agent, 59,049 profiles, a sweep-dominated cold solve
/// of a few ms from a ~2 KB body. Both nodes' disk tiers index every
/// fresh key in memory, so memory per second of run grows as body size
/// over solve time; the `solve-matrix` shape (22 KB for 20,736
/// profiles) would grow it about twenty times faster.
pub fn churn_game(seed: u64, j: usize) -> BayesianGame {
    let seed = derive_seed(seed, &format!("churn{j}"));
    let mut rng = SplitMix::new(seed);
    let weights: Vec<f64> = (0..CHURN_TYPES)
        .map(|_| 0.2 + 0.8 * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let support = weights
        .iter()
        .enumerate()
        .map(|(t, w)| {
            let state = derive_seed(seed, &format!("state{t}"));
            (
                vec![t, t],
                w / total,
                random_potential_game(2, &[3, 3], state).0,
            )
        })
        .collect();
    BayesianGame::new(vec![CHURN_TYPES, CHURN_TYPES], support).expect("valid by construction")
}

/// The two `G_worst` constructions of Lemmas 3.6/3.7 with k = 12.
pub fn gworst_games() -> Result<Vec<BayesianNcsGame>, String> {
    [GWorstVariant::InvK, GWorstVariant::Half]
        .into_iter()
        .map(|v| {
            GWorstGame::new(12, v)
                .map(|g| g.game().clone())
                .map_err(|e| format!("G_worst construction failed: {e}"))
        })
        .collect()
}

/// The canonical `POST /solve` body for `game` under the default config.
pub fn body(game: GameSpec) -> Vec<u8> {
    SolveRequest {
        game,
        config: SolverConfig::default(),
    }
    .canonical_bytes()
}

/// The reference answer: the canonical report bytes of an in-process
/// solve that does not touch the serving stack, after checking the
/// measures against Observation 2.2.
pub fn reference<M: BayesianModel>(model: &M) -> Result<Vec<u8>, String> {
    let report = Solver::default()
        .solve(model)
        .map_err(|e| format!("reference solve failed: {e}"))?;
    report
        .measures
        .verify_chain()
        .map_err(|e| format!("reference breaks the Observation 2.2 chain: {e}"))?;
    Ok(report.canonical_bytes())
}

/// A workload's games, for the per-layer probes.
pub enum Models {
    Matrix(Vec<BayesianGame>),
    Ncs(Vec<BayesianNcsGame>),
}

impl Models {
    pub fn specs(&self) -> Vec<GameSpec> {
        match self {
            Models::Matrix(games) => games.iter().cloned().map(GameSpec::Matrix).collect(),
            Models::Ncs(games) => games.iter().cloned().map(GameSpec::Ncs).collect(),
        }
    }
}

/// What the per-layer probes run on: a few of the workload's own games,
/// their request bodies and reference answers.
pub struct LayerInputs {
    pub models: Models,
    pub bodies: Vec<Vec<u8>>,
    pub refs: Vec<Vec<u8>>,
}

/// Counters of the serving nodes, summed over nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCounters {
    pub requests: u64,
    pub solve_requests: u64,
    pub zero_copy_hits: u64,
    pub parsed_hits: u64,
    pub cold_solves: u64,
    pub wakeups: u64,
    pub lru_hits: u64,
    pub lru_misses: u64,
    pub evictions: u64,
    pub disk_hits: u64,
    pub disk_appends: u64,
    pub disk_drops: u64,
}

impl NodeCounters {
    pub fn read(services: &[Arc<SolveService>]) -> NodeCounters {
        use std::sync::atomic::Ordering::Relaxed;
        let mut c = NodeCounters::default();
        for s in services {
            let m = s.metrics();
            let lru = s.cache_stats();
            let disk = s.disk_stats().unwrap_or_default();
            c.requests += m.requests_total.load(Relaxed);
            c.solve_requests += m.solve_requests.load(Relaxed);
            c.zero_copy_hits += m.zero_copy_hits.load(Relaxed);
            c.parsed_hits += m.parsed_hits.load(Relaxed);
            c.cold_solves += m.solves_computed.load(Relaxed);
            c.wakeups += m.reactor_wakeups.load(Relaxed);
            c.lru_hits += lru.hits;
            c.lru_misses += lru.misses;
            c.evictions += lru.evictions;
            c.disk_hits += disk.hits;
            c.disk_appends += disk.appends;
            c.disk_drops += disk.dropped_appends;
        }
        c
    }

    pub fn since(self, e: NodeCounters) -> NodeCounters {
        NodeCounters {
            requests: self.requests - e.requests,
            solve_requests: self.solve_requests - e.solve_requests,
            zero_copy_hits: self.zero_copy_hits - e.zero_copy_hits,
            parsed_hits: self.parsed_hits - e.parsed_hits,
            cold_solves: self.cold_solves - e.cold_solves,
            wakeups: self.wakeups - e.wakeups,
            lru_hits: self.lru_hits - e.lru_hits,
            lru_misses: self.lru_misses - e.lru_misses,
            evictions: self.evictions - e.evictions,
            disk_hits: self.disk_hits - e.disk_hits,
            disk_appends: self.disk_appends - e.disk_appends,
            disk_drops: self.disk_drops - e.disk_drops,
        }
    }
}

/// Counters of a router, from its `/metrics` document.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterCounters {
    pub key_cache_hits: u64,
    pub key_cache_misses: u64,
    pub replication_writes: u64,
    pub repair_drops: u64,
    pub retries: u64,
}

impl RouterCounters {
    pub fn read(router: &RouterHandle) -> RouterCounters {
        let m = router.metrics_json();
        let get = |a: &str, b: &str| {
            m.get(a)
                .and_then(|v| v.get(b))
                .and_then(bi_util::Json::as_u64)
                .unwrap_or(0)
        };
        RouterCounters {
            key_cache_hits: get("key_cache", "hits"),
            key_cache_misses: get("key_cache", "misses"),
            replication_writes: get("replication", "writes"),
            repair_drops: get("replication", "repair_drops"),
            retries: get("retries", "transport")
                + get("retries", "status_5xx")
                + get("retries", "status_429"),
        }
    }

    pub fn since(self, e: RouterCounters) -> RouterCounters {
        RouterCounters {
            key_cache_hits: self.key_cache_hits - e.key_cache_hits,
            key_cache_misses: self.key_cache_misses - e.key_cache_misses,
            replication_writes: self.replication_writes - e.replication_writes,
            repair_drops: self.repair_drops - e.repair_drops,
            retries: self.retries - e.retries,
        }
    }
}

/// Counters of whatever stack a workload runs (`None` for the parts it
/// does not have).
#[derive(Clone, Copy, Debug, Default)]
pub struct StackCounters {
    pub nodes: Option<NodeCounters>,
    pub router: Option<RouterCounters>,
}

impl StackCounters {
    pub fn since(self, e: StackCounters) -> StackCounters {
        StackCounters {
            nodes: self.nodes.zip(e.nodes).map(|(a, b)| a.since(b)),
            router: self.router.zip(e.router).map(|(a, b)| a.since(b)),
        }
    }
}

/// One workload, set up and ready for its timed phase.
pub trait Workload {
    /// Runs one closed-loop operation and returns its latency in ns —
    /// the time of the call into the system, from the first request
    /// byte written (or the solve call) to the last answer byte read.
    /// `traced` asks the program to record its own spans for the
    /// request where it can.
    fn op(&mut self, traced: bool) -> u64;
    /// Operations whose answer was wrong or missing (error, non-2xx or
    /// bytes that differ from the reference).
    fn failed(&self) -> u64;
    /// FNV-1a of the answers to the first [`DIGEST_OPS`] operations.
    fn digest(&self) -> u64;
    /// Checks the answers that could only be checked after the timed
    /// phase and returns diagnostic lines.
    fn finish(&mut self) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }
    /// The stack's counters now.
    fn counters(&self) -> StackCounters {
        StackCounters::default()
    }
    /// Checks, from the counter deltas of the timed phase, that the
    /// stack did the work the workload exists to measure; returns
    /// whether it did and diagnostic lines. A run that fails this check
    /// reports `"correct": false`.
    fn check(&self, _delta: &StackCounters) -> (bool, Vec<String>) {
        (true, Vec::new())
    }
    fn layer_inputs(&self) -> Result<LayerInputs, String>;
    /// Stops every thread the workload started and removes its files.
    fn stop(self: Box<Self>);
}

/// Sets up `name` for `seed`. `dir` is a scratch directory this set-up
/// may own.
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "solve-matrix" => {
            let games: Vec<BayesianGame> = (0..MATRIX_POOL).map(|i| matrix_game(seed, i)).collect();
            Ok(Box::new(InProcess::new(games, seed)?))
        }
        "solve-gworst" => Ok(Box::new(InProcess::new(gworst_games()?, seed)?)),
        "serve-hot" => Ok(Box::new(ServeHot::new(seed)?)),
        "cluster-churn" => Ok(Box::new(Churn::new(seed, dir)?)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

/// Wrong answers and the digest of the first answers.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    answers: Vec<u8>,
}

impl Tally {
    fn record(&mut self, ok: bool, answer: &[u8]) {
        self.failed += u64::from(!ok);
        if self.ops < DIGEST_OPS {
            self.answers.extend_from_slice(answer);
        }
        self.ops += 1;
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A game representation the in-process workloads solve.
pub trait Representation: BayesianModel + Clone {
    fn spec(self) -> GameSpec;
    fn models(games: Vec<Self>) -> Models;
}

impl Representation for BayesianGame {
    fn spec(self) -> GameSpec {
        GameSpec::Matrix(self)
    }

    fn models(games: Vec<Self>) -> Models {
        Models::Matrix(games)
    }
}

impl Representation for BayesianNcsGame {
    fn spec(self) -> GameSpec {
        GameSpec::Ncs(self)
    }

    fn models(games: Vec<Self>) -> Models {
        Models::Ncs(games)
    }
}

/// `solve-matrix` and `solve-gworst`: in-process `Solver::solve` calls
/// over a fixed pool, picked by the seed.
struct InProcess<M> {
    games: Vec<M>,
    refs: Vec<Vec<u8>>,
    solver: Solver,
    rng: SplitMix,
    tally: Tally,
}

impl<M: Representation> InProcess<M> {
    fn new(games: Vec<M>, seed: u64) -> Result<Self, String> {
        let refs: Vec<Vec<u8>> = games.iter().map(reference).collect::<Result<_, _>>()?;
        let solver = Solver::from_config(SolverConfig::default());
        for _ in 0..WARM_SOLVES.div_ceil(games.len()) {
            for (game, r) in games.iter().zip(&refs) {
                if solver
                    .solve(game)
                    .ok()
                    .map(|rep| rep.canonical_bytes())
                    .as_ref()
                    != Some(r)
                {
                    return Err("a warm-up solve differs from the reference".into());
                }
            }
        }
        Ok(InProcess {
            games,
            refs,
            solver,
            rng: SplitMix::new(derive_seed(seed, "picks")),
            tally: Tally::default(),
        })
    }
}

impl<M: Representation> Workload for InProcess<M> {
    fn op(&mut self, _traced: bool) -> u64 {
        let i = self.rng.below(self.games.len());
        let t = Instant::now();
        let result = self.solver.solve(&self.games[i]);
        let ns = elapsed_ns(t);
        let answer = result.map(|r| r.canonical_bytes()).unwrap_or_default();
        self.tally.record(answer == self.refs[i], &answer);
        ns
    }

    fn failed(&self) -> u64 {
        self.tally.failed
    }

    fn digest(&self) -> u64 {
        fnv1a(&self.tally.answers)
    }

    fn layer_inputs(&self) -> Result<LayerInputs, String> {
        let games: Vec<M> = self.games.iter().take(8).cloned().collect();
        Ok(LayerInputs {
            bodies: games.iter().map(|g| body(g.clone().spec())).collect(),
            refs: self.refs.iter().take(8).cloned().collect(),
            models: M::models(games),
        })
    }

    fn stop(self: Box<Self>) {}
}

/// One `POST /solve` on `client`: latency and the answer bytes of a
/// `200`. A transport error reconnects, so one failure does not poison
/// the rest of the run.
fn post(
    client: &mut HttpClient,
    addr: &str,
    body: &[u8],
    trace: Option<u64>,
) -> (u64, Option<Vec<u8>>) {
    let headers: Vec<(&str, String)> = trace
        .map(|id| vec![("X-Bi-Trace", id.to_string())])
        .unwrap_or_default();
    let t = Instant::now();
    let result = client.request_with("POST", "/solve", body, &headers);
    let ns = elapsed_ns(t);
    match result {
        Ok(response) if response.status == 200 => (ns, Some(response.body)),
        Ok(_) => (ns, None),
        Err(_) => {
            if let Ok(fresh) = HttpClient::connect(addr) {
                *client = fresh;
            }
            (ns, None)
        }
    }
}

/// A trace id for the `n`-th traced request (never zero).
fn trace_id(traced: bool, n: u64) -> Option<u64> {
    traced.then_some(n + 1)
}

/// `serve-hot`: picks from a warmed pool of canonical bodies sent
/// straight to one server with one solver worker; every reply is a
/// zero-copy hit.
struct ServeHot {
    server: ServerHandle,
    addr: String,
    client: HttpClient,
    games: Vec<BayesianGame>,
    bodies: Vec<Vec<u8>>,
    refs: Vec<Vec<u8>>,
    rng: SplitMix,
    tally: Tally,
}

impl ServeHot {
    fn new(seed: u64) -> Result<ServeHot, String> {
        let games: Vec<BayesianGame> = (0..MATRIX_POOL).map(|i| matrix_game(seed, i)).collect();
        let bodies: Vec<Vec<u8>> = games
            .iter()
            .map(|g| body(GameSpec::Matrix(g.clone())))
            .collect();
        let refs = games.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
        let server = start_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })?;
        let addr = server.addr().to_string();
        let mut client = connect(&addr)?;
        // The first send solves on the server and indexes the raw body;
        // the second must already be a zero-copy hit.
        for _ in 0..2 {
            for (b, r) in bodies.iter().zip(&refs) {
                if post(&mut client, &addr, b, None).1.as_ref() != Some(r) {
                    return Err("serve-hot warm-up answer differs from the reference".into());
                }
            }
        }
        Ok(ServeHot {
            server,
            addr,
            client,
            games,
            bodies,
            refs,
            rng: SplitMix::new(derive_seed(seed, "picks")),
            tally: Tally::default(),
        })
    }
}

impl Workload for ServeHot {
    fn op(&mut self, traced: bool) -> u64 {
        let i = self.rng.below(self.bodies.len());
        let id = trace_id(traced, self.tally.ops);
        let (ns, answer) = post(&mut self.client, &self.addr, &self.bodies[i], id);
        let answer = answer.unwrap_or_default();
        self.tally.record(answer == self.refs[i], &answer);
        ns
    }

    fn failed(&self) -> u64 {
        self.tally.failed
    }

    fn digest(&self) -> u64 {
        fnv1a(&self.tally.answers)
    }

    fn counters(&self) -> StackCounters {
        StackCounters {
            nodes: Some(NodeCounters::read(&[self.server.service()])),
            router: None,
        }
    }

    /// Every `/solve` request of the timed phase must be a zero-copy hit.
    fn check(&self, delta: &StackCounters) -> (bool, Vec<String>) {
        let n = delta.nodes.unwrap_or_default();
        let sent = self.tally.ops;
        let ok = n.solve_requests == sent && n.zero_copy_hits == sent;
        (
            ok,
            vec![format!(
                "zero-copy: sent={sent} solve_requests={} zero_copy_hits={} all_hits={ok}",
                n.solve_requests, n.zero_copy_hits
            )],
        )
    }

    fn layer_inputs(&self) -> Result<LayerInputs, String> {
        Ok(LayerInputs {
            models: Models::Matrix(self.games.iter().take(8).cloned().collect()),
            bodies: self.bodies.iter().take(8).cloned().collect(),
            refs: self.refs.iter().take(8).cloned().collect(),
        })
    }

    fn stop(self: Box<Self>) {
        drop(self.client);
        self.server.stop();
    }
}

pub fn start_server(config: ServerConfig) -> Result<ServerHandle, String> {
    Server::bind(config)
        .and_then(Server::start)
        .map_err(|e| format!("server start failed: {e}"))
}

pub fn start_router(backends: Vec<String>, key_cache: CacheConfig) -> Result<RouterHandle, String> {
    Router::bind(RouterConfig {
        backends,
        replication: 2,
        key_cache,
        // The router must never answer by solving itself: a dead
        // cluster is a failure here, not a slower success.
        fallback: FallbackMode::Unavailable,
        ..RouterConfig::default()
    })
    .and_then(Router::start)
    .map_err(|e| format!("router start failed: {e}"))
}

pub fn connect(addr: &str) -> Result<HttpClient, String> {
    HttpClient::connect(addr).map_err(|e| format!("connect to {addr} failed: {e}"))
}

/// Polls `done` every millisecond for up to `limit`.
pub fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// The three kinds of `cluster-churn` request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A key never sent before: a cold solve on its primary plus a
    /// write-through `/cache_put` to the other replica.
    Fresh,
    /// A key evicted from its primary's LRU: a disk promotion.
    Old,
    /// One of the latest fresh keys: an LRU hit.
    Recent,
}

/// `cluster-churn`: a replication-2 router over two servers with disk
/// tiers and LRUs smaller than the key set. Every 8 requests are 2
/// fresh keys, 1 old key and 5 recent keys, in a seeded order.
struct Churn {
    router: RouterHandle,
    servers: Vec<ServerHandle>,
    dir: PathBuf,
    addr: String,
    client: HttpClient,
    seed: u64,
    /// Keys generated so far; key `j` is `churn_game(seed, j)`.
    keys: usize,
    /// The bodies of the latest `2 * CHURN_RECENT` keys, key `j` at
    /// `j % (2 * CHURN_RECENT)`: a round's two fresh keys never
    /// overwrite the recent keys it may still send.
    recent: Vec<Vec<u8>>,
    warm_refs: Vec<Vec<u8>>,
    rng: SplitMix,
    plan: Vec<Kind>,
    round: usize,
    round_base: usize,
    tally: Tally,
    /// `(key, answer hash)` of every non-empty answer to a key solved
    /// after set-up; its reference is made once the timed phase ends.
    deferred: Vec<(usize, u64)>,
    sent: [u64; 3],
}

impl Churn {
    fn new(seed: u64, dir: &Path) -> Result<Churn, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let lru = CacheConfig {
            capacity: CHURN_LRU,
            shards: 1,
        };
        let mut servers = Vec::new();
        for node in 0..2 {
            servers.push(start_server(ServerConfig {
                workers: 1,
                cache: lru,
                disk_path: Some(dir.join(format!("node{node}.log"))),
                ..ServerConfig::default()
            })?);
        }
        // The router's body-to-key cache is as small as the nodes' LRUs,
        // so an old key is a miss there too.
        let router = start_router(servers.iter().map(|s| s.addr().to_string()).collect(), lru)?;
        let addr = router.addr().to_string();
        let mut client = connect(&addr)?;
        let mut recent = vec![Vec::new(); 2 * CHURN_RECENT];
        let mut warm_refs = Vec::new();
        for j in 0..CHURN_WARM {
            let game = churn_game(seed, j);
            let b = body(GameSpec::Matrix(game.clone()));
            let r = reference(&game)?;
            if post(&mut client, &addr, &b, None).1.as_ref() != Some(&r) {
                return Err("cluster-churn warm-up answer differs from the reference".into());
            }
            recent[j % (2 * CHURN_RECENT)] = b;
            warm_refs.push(r);
        }
        // Write-through and disk appends run behind the replies; the
        // timed phase starts once both nodes hold every warm key on disk.
        let services: Vec<_> = servers.iter().map(ServerHandle::service).collect();
        let synced = wait_until(Duration::from_secs(20), || {
            RouterCounters::read(&router).replication_writes >= CHURN_WARM as u64
                && services.iter().all(|s| {
                    s.disk_stats()
                        .is_some_and(|d| d.appends >= CHURN_WARM as u64)
                })
        });
        if !synced {
            return Err("cluster-churn warm keys never reached both disk tiers".into());
        }
        Ok(Churn {
            router,
            servers,
            dir: dir.to_path_buf(),
            addr,
            client,
            seed,
            keys: CHURN_WARM,
            recent,
            warm_refs,
            rng: SplitMix::new(derive_seed(seed, "picks")),
            plan: Vec::new(),
            round: 0,
            round_base: CHURN_WARM,
            tally: Tally::default(),
            deferred: Vec::new(),
            sent: [0; 3],
        })
    }

    /// Starts the next round of 8: a seeded shuffle of the 2/1/5 mix.
    fn next_round(&mut self) {
        use Kind::{Fresh, Old, Recent};
        self.plan = vec![Fresh, Fresh, Old, Recent, Recent, Recent, Recent, Recent];
        for i in (1..self.plan.len()).rev() {
            let j = self.rng.below(i + 1);
            self.plan.swap(i, j);
        }
        self.round_base = self.keys;
        self.round += 1;
    }
}

impl Workload for Churn {
    fn op(&mut self, traced: bool) -> u64 {
        if self.plan.is_empty() {
            self.next_round();
        }
        let kind = self.plan.pop().expect("a round has 8 requests");
        // Round r (from 0) revisits key r: its age is CHURN_WARM + r
        // fresh keys, every one of them inserted on both nodes, so it
        // has left its primary's LRU of CHURN_LRU entries. Recent keys
        // come from the 8 fresh keys before the round.
        let ring = 2 * CHURN_RECENT;
        let (key, old_body) = match kind {
            Kind::Fresh => {
                let j = self.keys;
                self.keys += 1;
                self.recent[j % ring] = body(GameSpec::Matrix(churn_game(self.seed, j)));
                (j, None)
            }
            Kind::Old => {
                let j = self.round - 1;
                (j, Some(body(GameSpec::Matrix(churn_game(self.seed, j)))))
            }
            Kind::Recent => (
                self.round_base - CHURN_RECENT + self.rng.below(CHURN_RECENT),
                None,
            ),
        };
        self.sent[kind as usize] += 1;
        let id = trace_id(traced, self.tally.ops);
        let request = old_body.as_ref().unwrap_or(&self.recent[key % ring]);
        let (ns, answer) = post(&mut self.client, &self.addr, request, id);
        let answer = answer.unwrap_or_default();
        let ok = if key < CHURN_WARM {
            answer == self.warm_refs[key]
        } else if answer.is_empty() {
            false
        } else {
            // Checked against its reference after the timed phase.
            self.deferred.push((key, fnv1a(&answer)));
            true
        };
        self.tally.record(ok, &answer);
        ns
    }

    fn failed(&self) -> u64 {
        self.tally.failed
    }

    fn digest(&self) -> u64 {
        fnv1a(&self.tally.answers)
    }

    fn finish(&mut self) -> Result<Vec<String>, String> {
        let mut refs = vec![0u64; self.keys];
        for (j, r) in refs.iter_mut().enumerate().skip(CHURN_WARM) {
            *r = fnv1a(&reference(&churn_game(self.seed, j))?);
        }
        let wrong = self
            .deferred
            .iter()
            .filter(|&&(j, hash)| hash != refs[j])
            .count() as u64;
        self.tally.failed += wrong;
        // Counters below wait for the write-through queue to drain.
        let fresh = (self.keys - CHURN_WARM) as u64;
        let router = &self.router;
        wait_until(Duration::from_secs(5), || {
            RouterCounters::read(router).replication_writes >= CHURN_WARM as u64 + fresh
        });
        Ok(vec![format!(
            "checked {} answers to {} keys solved after set-up against fresh in-process references: {wrong} wrong",
            self.deferred.len(),
            fresh
        )])
    }

    fn counters(&self) -> StackCounters {
        let services: Vec<_> = self.servers.iter().map(ServerHandle::service).collect();
        StackCounters {
            nodes: Some(NodeCounters::read(&services)),
            router: Some(RouterCounters::read(&self.router)),
        }
    }

    /// Cold solves, disk promotions and zero-copy hits must equal the
    /// fresh, old and recent requests sent: the 2/1/5 mix, exactly.
    fn check(&self, delta: &StackCounters) -> (bool, Vec<String>) {
        let n = delta.nodes.unwrap_or_default();
        let [fresh, old, recent] = self.sent;
        let exact = n.cold_solves == fresh && n.disk_hits == old && n.zero_copy_hits == recent;
        (
            exact,
            vec![format!(
                "mix: fresh={fresh} cold_solves={} old={old} disk_promotions={} recent={recent} zero_copy_hits={} exact={exact}",
                n.cold_solves, n.disk_hits, n.zero_copy_hits
            )],
        )
    }

    fn layer_inputs(&self) -> Result<LayerInputs, String> {
        let games: Vec<BayesianGame> = (0..8).map(|j| churn_game(self.seed, j)).collect();
        Ok(LayerInputs {
            bodies: games
                .iter()
                .map(|g| body(GameSpec::Matrix(g.clone())))
                .collect(),
            refs: self.warm_refs.iter().take(8).cloned().collect(),
            models: Models::Matrix(games),
        })
    }

    fn stop(self: Box<Self>) {
        drop(self.client);
        self.router.stop();
        for server in self.servers {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
