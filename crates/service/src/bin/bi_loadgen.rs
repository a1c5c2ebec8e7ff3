//! `bi-loadgen` — seeded workload replay against `bi-serve` or a
//! `bi-router` front door: the multi-process load gate of CI.
//!
//! Two phases over one deterministic workload (`--profile mixed` is the
//! matrix-form + NCS mix, `--profile light` is 2×2 games cheap enough
//! to push 100k+ unique keys — see `bi_service::workload`):
//!
//! 1. **cold** — every unique game once: all cache misses, measuring
//!    engine-bound throughput;
//! 2. **hot** — `--hot` requests sampled (seeded) from the same pool:
//!    all cache hits, measuring the served-from-cache ceiling.
//!
//! Then one `POST /solve_batch` exercises the batch path, and an
//! optional `--sweep-clients` pass replays the warm pool at each
//! requested concurrency level.
//!
//! Every answer is checked against an in-process oracle. Before the
//! cold phase each unique game is solved here with the default solver
//! and encoded canonically; every 2xx `/solve` body must equal those
//! bytes, and the 2xx batch body must equal `{"reports":[{"report":…},
//! …]}` spliced from them. A mismatch is a failed request of cause
//! `wrong_answer`. The comparison runs after the latency sample is
//! taken, so it never counts toward a latency.
//!
//! Errors are broken down per phase by cause — `429` (queue full, after
//! the `Retry-After` retries), `503` (overloaded/no backend), transport
//! (connect/read failures), `wrong_answer`, other — on the phase's
//! stderr log line, so a smoke job can tell shed load from broken
//! routing. Exit status is non-zero if any request failed, if
//! `--min-hit-rate` was given and the hot phase fell below it, or if
//! `--max-hot-p50-us` was given and the hot median exceeded it.
//!
//! With `--trace`, every phase request carries a generator-minted
//! `X-Bi-Trace` id; afterwards the target's `GET /debug/trace` window is
//! scraped and folded into a per-stage latency table on stdout.
//!
//! The generator writes no file. The committed speed record is
//! perfbench's (`BENCH_perfbench.json`), which scales for host speed.

use std::io::BufReader;
use std::net::TcpStream;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bi_core::solve::{Solver, SolverConfig};
use bi_obs::log as olog;
use bi_service::http::{read_response, write_request, write_request_with};
use bi_service::service::{BatchRequest, GameSpec, SolveRequest};
use bi_service::workload::{light_workload, mixed_workload};
use bi_util::rng::{derive_seed, seeded};
use bi_util::table::TextTable;
use bi_util::{Encode, Json};
use rand::Rng;

const USAGE: &str = "\
bi-loadgen — seeded load generator for bi-serve / bi-router

USAGE: bi-loadgen --addr HOST:PORT [OPTIONS]

Every answer is checked byte for byte against an in-process solve; a
wrong answer fails the run like any other failed request.

OPTIONS:
  --addr HOST:PORT    server (or router) address
  --seed N            workload seed (default 1)
  --unique N          distinct games in the pool (default 64)
  --profile NAME      workload profile: mixed | light (default mixed)
  --hot N             hot-phase requests over the pool (default 1500)
  --clients N         concurrent client connections (default 4)
  --sweep-clients L   comma-separated concurrency levels to replay the warm
                      pool at (e.g. 4,64,256,1024)
  --min-hit-rate F    fail unless the hot-phase cache-hit rate reaches F
  --max-hot-p50-us N  fail if the hot-phase median latency exceeds N µs
  --trace             inject an X-Bi-Trace id per request, scrape the
                      target's /debug/trace afterwards, and print a
                      per-stage latency breakdown table
  --help              print this help
";

struct Args {
    addr: String,
    seed: u64,
    unique: usize,
    profile: String,
    hot: usize,
    clients: usize,
    sweep_clients: Vec<usize>,
    min_hit_rate: Option<f64>,
    max_hot_p50_us: Option<u64>,
    trace: bool,
}

/// Monotonic counter behind [`next_trace_id`].
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh nonzero trace id: the generator's pid in the high half, a
/// process-wide counter in the low — distinguishable from server-minted
/// ids and unique across concurrent loadgen processes.
fn next_trace_id() -> u64 {
    let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    (u64::from(std::process::id()) << 32) | (n & 0xffff_ffff)
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: String::new(),
        seed: 1,
        unique: 64,
        profile: "mixed".into(),
        hot: 1500,
        clients: 4,
        sweep_clients: Vec::new(),
        min_hit_rate: None,
        max_hot_p50_us: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" {
            print!("{USAGE}");
            exit(0);
        }
        if flag == "--trace" {
            parsed.trace = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |v: &str| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("flag {flag} needs an integer, got `{v}`"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value,
            "--seed" => parsed.seed = num(&value)? as u64,
            "--unique" => parsed.unique = num(&value)?.max(1),
            "--profile" => {
                if value != "mixed" && value != "light" {
                    return Err(format!("--profile takes mixed|light, got `{value}`"));
                }
                parsed.profile = value;
            }
            "--hot" => parsed.hot = num(&value)?,
            "--clients" => parsed.clients = num(&value)?.max(1),
            "--sweep-clients" => {
                parsed.sweep_clients = value
                    .split(',')
                    .map(|v| num(v.trim()).map(|n| n.max(1)))
                    .collect::<Result<_, _>>()?;
            }
            "--min-hit-rate" => {
                parsed.min_hit_rate = Some(
                    value
                        .parse()
                        .map_err(|_| format!("flag {flag} needs a number, got `{value}`"))?,
                );
            }
            "--max-hot-p50-us" => parsed.max_hot_p50_us = Some(num(&value)? as u64),
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if parsed.addr.is_empty() {
        return Err("--addr is required (see --help)".into());
    }
    Ok(parsed)
}

/// One unique game of the pool: the request body sent for it, and the
/// response bytes the in-process oracle says every 2xx answer carries.
struct Game {
    body: Vec<u8>,
    expected: Vec<u8>,
}

/// The oracle: solves `game` here with the default solver and returns
/// the canonical report bytes a faithful server answers with.
fn oracle_bytes(game: &GameSpec) -> Vec<u8> {
    let solver = Solver::from_config(SolverConfig::default());
    let report = match game {
        GameSpec::Matrix(g) => solver.solve(g),
        GameSpec::Ncs(g) => solver.solve(g),
    };
    match report {
        Ok(report) => report.canonical_bytes(),
        Err(e) => {
            olog::error(
                "bi-loadgen",
                "the oracle cannot solve a workload game",
                &[("error", Json::str(e.to_string()))],
            );
            exit(2);
        }
    }
}

/// The body a faithful `/solve_batch` answers for games with these
/// oracle bytes: the reports spliced in request order.
fn batch_bytes(games: &[Game]) -> Vec<u8> {
    let mut out = br#"{"reports":["#.to_vec();
    for (i, game) in games.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(br#"{"report":"#);
        out.extend_from_slice(&game.expected);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
    out
}

/// One answered request, as the client saw it.
struct Answer {
    micros: u64,
    status: u16,
    hit: bool,
    body: Vec<u8>,
}

/// Aggregated results of one phase, with errors broken down by cause.
#[derive(Default)]
struct PhaseStats {
    latencies_us: Vec<u64>,
    hits: u64,
    misses: u64,
    errors_429: u64,
    errors_503: u64,
    errors_transport: u64,
    errors_wrong_answer: u64,
    errors_other: u64,
    retried_429: u64,
    seconds: f64,
}

impl PhaseStats {
    fn requests(&self) -> usize {
        self.latencies_us.len()
    }

    fn errors(&self) -> u64 {
        self.errors_429
            + self.errors_503
            + self.errors_transport
            + self.errors_wrong_answer
            + self.errors_other
    }

    /// Folds one request outcome into the phase totals. The latency is
    /// sampled before the body is compared with the oracle's `expected`.
    fn record(&mut self, outcome: std::io::Result<Answer>, expected: &[u8]) {
        let Ok(answer) = outcome else {
            self.errors_transport += 1;
            return;
        };
        self.latencies_us.push(answer.micros);
        match answer.status {
            200..=299 if answer.body != expected => self.errors_wrong_answer += 1,
            200..=299 if answer.hit => self.hits += 1,
            200..=299 => self.misses += 1,
            429 => self.errors_429 += 1,
            503 => self.errors_503 += 1,
            _ => self.errors_other += 1,
        }
    }

    fn absorb(&mut self, other: PhaseStats) {
        self.latencies_us.extend(other.latencies_us);
        self.hits += other.hits;
        self.misses += other.misses;
        self.errors_429 += other.errors_429;
        self.errors_503 += other.errors_503;
        self.errors_transport += other.errors_transport;
        self.errors_wrong_answer += other.errors_wrong_answer;
        self.errors_other += other.errors_other;
        self.retried_429 += other.retried_429;
    }

    fn throughput_rps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests() as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn hit_rate(&self) -> f64 {
        if self.requests() > 0 {
            self.hits as f64 / self.requests() as f64
        } else {
            0.0
        }
    }

    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// The error breakdown for a log line.
    fn causes(&self) -> Json {
        Json::Obj(vec![
            ("status_429".into(), Json::from_u64(self.errors_429)),
            ("retried_429".into(), Json::from_u64(self.retried_429)),
            ("status_503".into(), Json::from_u64(self.errors_503)),
            ("transport".into(), Json::from_u64(self.errors_transport)),
            (
                "wrong_answer".into(),
                Json::from_u64(self.errors_wrong_answer),
            ),
            ("other".into(), Json::from_u64(self.errors_other)),
        ])
    }

    /// Logs the phase's totals, rates and error causes.
    fn log(&self, msg: &str, extra: &[(&str, Json)]) {
        let mut fields = vec![
            ("requests", Json::from_u64(self.requests() as u64)),
            ("seconds", Json::num(self.seconds)),
            ("rps", Json::num(self.throughput_rps())),
            ("p50_us", Json::from_u64(self.percentile_us(0.50))),
            ("p99_us", Json::from_u64(self.percentile_us(0.99))),
            ("hit_rate", Json::num(self.hit_rate())),
            ("errors", Json::from_u64(self.errors())),
            ("errors_by_cause", self.causes()),
        ];
        fields.extend(extra.iter().cloned());
        olog::info("bi-loadgen", msg, &fields);
    }
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request (with an `X-Bi-Trace` header when `trace` is
    /// set); returns the answer and its `Retry-After` seconds.
    fn post(
        &mut self,
        path: &str,
        body: &[u8],
        trace: Option<u64>,
    ) -> std::io::Result<(Answer, Option<u64>)> {
        let start = Instant::now();
        match trace {
            Some(id) => write_request_with(
                &mut self.writer,
                "POST",
                path,
                body,
                true,
                &[("X-Bi-Trace", id.to_string())],
            )?,
            None => write_request(&mut self.writer, "POST", path, body, true)?,
        }
        let response = read_response(&mut self.reader)?;
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let hit = response.header("x-cache") == Some("hit");
        let retry_after = response
            .header("retry-after")
            .and_then(|secs| secs.trim().parse::<u64>().ok());
        let answer = Answer {
            micros,
            status: response.status,
            hit,
            body: response.body,
        };
        Ok((answer, retry_after))
    }
}

/// Retries a 429 response grants before it counts as a terminal error.
const RETRY_429_MAX: u32 = 2;
/// Ceiling on the honored `Retry-After` sleep, so a pathological header
/// cannot stall the generator.
const RETRY_429_CAP_MS: u64 = 500;
/// Sleep before retrying a 429 that carried no `Retry-After` header.
const RETRY_429_DEFAULT_MS: u64 = 25;

/// One client thread's keep-alive connection to the target, connected
/// lazily and dropped on transport error so the next request reconnects
/// fresh.
struct Session<'a> {
    addr: &'a str,
    conn: Option<Client>,
}

impl<'a> Session<'a> {
    fn new(addr: &'a str) -> Session<'a> {
        Session { addr, conn: None }
    }

    /// Pre-opens the connection (used to keep connection setup out of
    /// the timed window and sequential across clients).
    fn warm(&mut self) -> std::io::Result<&mut Client> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect(self.addr)?);
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// One request with shed-load handling: a 429 is retried up to
    /// [`RETRY_429_MAX`] times, honoring the server's `Retry-After`
    /// header (capped at [`RETRY_429_CAP_MS`]); each retry bumps
    /// `retried` so the log separates absorbed backpressure from
    /// terminal 429s.
    fn post(
        &mut self,
        path: &str,
        body: &[u8],
        trace: Option<u64>,
        retried: &mut u64,
    ) -> std::io::Result<Answer> {
        let mut attempts_left = RETRY_429_MAX;
        loop {
            let result = self.warm()?.post(path, body, trace);
            if result.is_err() {
                self.conn = None;
            }
            let (answer, retry_after) = result?;
            if answer.status != 429 || attempts_left == 0 {
                return Ok(answer);
            }
            attempts_left -= 1;
            *retried += 1;
            let wait_ms = retry_after
                .map(|secs| secs.saturating_mul(1000))
                .unwrap_or(RETRY_429_DEFAULT_MS)
                .min(RETRY_429_CAP_MS);
            std::thread::sleep(std::time::Duration::from_millis(wait_ms));
        }
    }

    /// Sends `games[i]` for each `i` of `requests` to `/solve`, checking
    /// each answer against its oracle bytes.
    fn replay(&mut self, games: &[Game], requests: &[usize], trace: bool) -> PhaseStats {
        let mut stats = PhaseStats::default();
        for &i in requests {
            let id = trace.then(next_trace_id);
            let outcome = self.post("/solve", &games[i].body, id, &mut stats.retried_429);
            stats.record(outcome, &games[i].expected);
        }
        stats
    }
}

/// Runs one phase: `schedule[c]` is client `c`'s sequence of pool
/// indices; clients run concurrently, each on its own keep-alive
/// connection.
fn run_phase(addr: &str, games: &[Game], schedule: Vec<Vec<usize>>, trace: bool) -> PhaseStats {
    let start = Instant::now();
    let per_client: Vec<PhaseStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .into_iter()
            .map(|requests| scope.spawn(move || Session::new(addr).replay(games, &requests, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = PhaseStats::default();
    for stats in per_client {
        total.absorb(stats);
    }
    total.seconds = start.elapsed().as_secs_f64();
    total
}

/// Requests each sweep client fires after the barrier drops.
const SWEEP_PER_CLIENT: usize = 4;

/// Replays the warm pool at a fixed concurrency level: every connection
/// is opened (sequentially, so the listen backlog never overflows a SYN
/// burst) and stays open, then all clients fire together off a barrier.
fn run_sweep_step(addr: &str, clients: usize, games: &[Game], seed: u64) -> PhaseStats {
    let mut ready = Vec::with_capacity(clients);
    let mut failed = PhaseStats::default();
    for c in 0..clients {
        let mut rng = seeded(derive_seed(seed, &format!("sweep{clients}c{c}")));
        let requests: Vec<usize> = (0..SWEEP_PER_CLIENT)
            .map(|_| rng.random_range(0..games.len()))
            .collect();
        let mut session = Session::new(addr);
        if session.warm().is_ok() {
            ready.push((session, requests));
        } else {
            for &i in &requests {
                failed.record(
                    Err(std::io::Error::other("connect failed")),
                    &games[i].expected,
                );
            }
        }
    }
    let barrier = std::sync::Barrier::new(ready.len());
    let start = Instant::now();
    let per_client: Vec<PhaseStats> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = ready
            .into_iter()
            .map(|(mut session, requests)| {
                // 1,024 default-sized stacks would be wasteful; the
                // client loop needs almost none.
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, move || {
                        barrier.wait();
                        session.replay(games, &requests, false)
                    })
                    .expect("spawn sweep client")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep client panicked"))
            .collect()
    });
    let mut total = failed;
    for stats in per_client {
        total.absorb(stats);
    }
    total.seconds = start.elapsed().as_secs_f64();
    total
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            olog::error("bi-loadgen", "bad arguments", &[("detail", Json::str(msg))]);
            exit(2);
        }
    };
    olog::info(
        "bi-loadgen",
        "starting",
        &[
            ("addr", Json::str(&args.addr)),
            ("seed", Json::from_u64(args.seed)),
            ("unique", Json::from_u64(args.unique as u64)),
            ("profile", Json::str(&args.profile)),
            ("hot", Json::from_u64(args.hot as u64)),
            ("clients", Json::from_u64(args.clients as u64)),
            ("trace", Json::Bool(args.trace)),
        ],
    );

    // Build the workload once, with each game's oracle answer; request
    // bodies are shared across clients by index.
    let specs = if args.profile == "light" {
        light_workload(args.seed, args.unique)
    } else {
        mixed_workload(args.seed, args.unique)
    };
    let games: Vec<Game> = specs
        .iter()
        .map(|game| Game {
            body: SolveRequest {
                game: game.clone(),
                config: SolverConfig::default(),
            }
            .canonical_bytes(),
            expected: oracle_bytes(game),
        })
        .collect();
    let addr = args.addr.as_str();

    // Cold phase: every unique game exactly once, split across clients.
    let clients = args.clients.min(games.len());
    let mut cold_schedule: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for i in 0..games.len() {
        cold_schedule[i % clients].push(i);
    }
    let cold = run_phase(addr, &games, cold_schedule, args.trace);
    cold.log("cold phase done", &[]);

    // Hot phase: seeded sampling over the now-cached pool.
    let hot_schedule: Vec<Vec<usize>> = (0..args.clients)
        .map(|c| {
            let mut rng = seeded(derive_seed(args.seed, &format!("client{c}")));
            let count = args.hot / args.clients + usize::from(c < args.hot % args.clients);
            (0..count)
                .map(|_| rng.random_range(0..games.len()))
                .collect()
        })
        .collect();
    let hot = run_phase(addr, &games, hot_schedule, args.trace);
    hot.log("hot phase done", &[]);

    // One batch over a slice of the pool (all cached by now); a router
    // splits it server-side.
    let batched = &games[..8.min(games.len())];
    let batch_body = BatchRequest {
        games: specs[..batched.len()].to_vec(),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let mut batch = PhaseStats::default();
    let outcome = Session::new(addr).post(
        "/solve_batch",
        &batch_body,
        args.trace.then(next_trace_id),
        &mut batch.retried_429,
    );
    batch.record(outcome, &batch_bytes(batched));
    batch.log("batch done", &[]);

    // The scaling sweep: the pool is warm, so every request should be a
    // hit — what moves across levels is concurrency, not work.
    let mut sweep_errors = 0u64;
    for &level in &args.sweep_clients {
        let step = run_sweep_step(addr, level, &games, args.seed);
        step.log(
            "sweep step done",
            &[("clients", Json::from_u64(level as u64))],
        );
        sweep_errors += step.errors();
    }

    // With --trace, scrape the span flight recorder and fold every
    // stage's spans into a breakdown table.
    if args.trace {
        let mut table = TextTable::new(vec!["stage", "spans", "mean_us", "max_us"]);
        for row in stage_breakdown(addr) {
            table.add_row(vec![
                row.stage,
                row.spans.to_string(),
                format!("{:.1}", row.total_us as f64 / row.spans as f64),
                row.max_us.to_string(),
            ]);
        }
        if table.is_empty() {
            println!("bi-loadgen: no spans in the /debug/trace dump");
        } else {
            println!("bi-loadgen: per-stage span breakdown (recent window)");
            print!("{table}");
        }
    }

    let speedup = if cold.throughput_rps() > 0.0 {
        hot.throughput_rps() / cold.throughput_rps()
    } else {
        0.0
    };
    let hot_hit_rate = hot.hit_rate();
    println!(
        "bi-loadgen: cold {:.0} rps | hot {:.0} rps | speedup {:.1}x | hit rate {:.3}",
        cold.throughput_rps(),
        hot.throughput_rps(),
        speedup,
        hot_hit_rate,
    );

    let total_errors = cold.errors() + hot.errors() + batch.errors() + sweep_errors;
    if total_errors > 0 {
        olog::error(
            "bi-loadgen",
            "requests failed",
            &[("failed", Json::from_u64(total_errors))],
        );
        exit(1);
    }
    if let Some(min) = args.min_hit_rate {
        if hot_hit_rate < min {
            olog::error(
                "bi-loadgen",
                "hot hit rate below threshold",
                &[
                    ("hit_rate", Json::num(hot_hit_rate)),
                    ("required", Json::num(min)),
                ],
            );
            exit(1);
        }
    }
    if let Some(max) = args.max_hot_p50_us {
        let p50 = hot.percentile_us(0.50);
        if p50 > max {
            olog::error(
                "bi-loadgen",
                "hot p50 over budget",
                &[
                    ("p50_us", Json::from_u64(p50)),
                    ("allowed_us", Json::from_u64(max)),
                ],
            );
            exit(1);
        }
    }
}

/// One stage's aggregate across the scraped `/debug/trace` dump.
struct StageRow {
    stage: String,
    spans: u64,
    total_us: u64,
    max_us: u64,
}

/// Scrapes `/debug/trace` from the target and folds its span window
/// into per-stage rows, ordered by the pipeline's stage order.
fn stage_breakdown(addr: &str) -> Vec<StageRow> {
    let Some(doc) = scrape_debug_trace(addr) else {
        olog::warn(
            "bi-loadgen",
            "debug/trace scrape failed",
            &[("addr", Json::str(addr))],
        );
        return Vec::new();
    };
    let mut rows: Vec<StageRow> = Vec::new();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
    for event in spans.iter().filter_map(bi_obs::SpanEvent::from_json) {
        let micros = event.t_end_ns.saturating_sub(event.t_start_ns) / 1_000;
        let name = event.stage.name();
        let row = match rows.iter_mut().position(|r| r.stage == name) {
            Some(at) => &mut rows[at],
            None => {
                rows.push(StageRow {
                    stage: name.to_string(),
                    spans: 0,
                    total_us: 0,
                    max_us: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.spans += 1;
        row.total_us += micros;
        row.max_us = row.max_us.max(micros);
    }
    rows.sort_by_key(|row| {
        bi_obs::Stage::ALL
            .iter()
            .position(|s| s.name() == row.stage)
            .unwrap_or(usize::MAX)
    });
    rows
}

fn scrape_debug_trace(addr: &str) -> Option<Json> {
    let mut client = Client::connect(addr).ok()?;
    write_request(&mut client.writer, "GET", "/debug/trace", b"", false).ok()?;
    let response = read_response(&mut client.reader).ok()?;
    Json::parse(std::str::from_utf8(&response.body).ok()?).ok()
}
