//! The traced run's per-layer numbers. Each is measured from this
//! file, by timing calls into one module's public functions on the
//! workload's own games and bodies, or by differencing the counters of
//! the workload's stack over its timed phase. Nothing here adds tracing
//! inside the program.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bi_core::compiled::CompiledSpace;
use bi_core::model::BayesianModel;
use bi_core::solve::{SolveReport, Solver, SolverConfig};
use bi_core::BayesianGame;
use bi_ncs::BayesianNcsGame;
use bi_obs::{Recorder, Stage, StageTimings, TraceCtx};
use bi_service::http::{parse_head, write_head_into, write_request, HttpClient};
use bi_service::persist::{DiskTier, DiskTierConfig};
use bi_service::{
    CacheConfig, FastOutcome, ServerConfig, ServerHandle, SolveRequest, SolveService,
};
use bi_util::{Decode, Encode};

use crate::host::median;
use crate::workloads::{
    connect, start_router, start_server, wait_until, LayerInputs, Models, NodeCounters,
    RouterCounters, StackCounters,
};

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The solver-layer probe makes passes over the probe games until it
/// has timed at least this many solves.
const SOLVER_SOLVES: usize = 16;
/// Calls per timed sample for the calls too short to time one by one.
const BATCH: u32 = 200;
/// Router-versus-direct request pairs in the hop probe.
const HOP_PAIRS: usize = 400;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median time of one call of `f`, in µs, over `samples` batches of
/// [`BATCH`] calls.
fn per_call_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            us_since(t) / f64::from(BATCH)
        })
        .collect();
    median(&times)
}

/// The solver's phases on the workload's games: `compile`, `lower` +
/// `prepare_sweep`, `complete_info` and the whole `solve`; the sweep is
/// what the solve spends outside the other three.
struct SolverLayers {
    compile_us: f64,
    lower_us: f64,
    sweep_us: f64,
    complete_info_us: f64,
    complete_info_share: f64,
    profiles: f64,
    sweep_ns_per_profile: f64,
    states: f64,
    reports: Vec<SolveReport>,
}

fn solver_layers<M: BayesianModel>(
    games: &[M],
    states: impl Fn(&M) -> usize,
) -> Result<SolverLayers, String> {
    let solver = Solver::from_config(SolverConfig::default());
    let (mut compile, mut lower, mut ci, mut sweep) = (vec![], vec![], vec![], vec![]);
    let (mut ci_total, mut solve_total, mut sweep_total, mut profiles) = (0.0, 0.0, 0.0, 0u128);
    let mut reports = Vec::new();
    let err = |e: bi_core::solve::SolveError| e.to_string();
    for _ in 0..SOLVER_SOLVES.div_ceil(games.len()) {
        for game in games {
            let t = Instant::now();
            let space = CompiledSpace::compile(game).map_err(err)?;
            let t_compile = us_since(t);
            let t = Instant::now();
            let lowered = game.lower(&space);
            lowered.prepare_sweep();
            let t_lower = us_since(t);
            drop(lowered);
            let t = Instant::now();
            black_box(game.complete_info().map_err(err)?);
            let t_ci = us_since(t);
            let t = Instant::now();
            let report = solver.solve(game).map_err(err)?;
            let t_solve = us_since(t);
            let t_sweep = t_solve - t_compile - t_lower - t_ci;
            compile.push(t_compile);
            lower.push(t_lower);
            ci.push(t_ci);
            sweep.push(t_sweep);
            ci_total += t_ci;
            solve_total += t_solve;
            sweep_total += t_sweep;
            profiles += report.profiles_evaluated;
            reports.push(report);
        }
    }
    let solves = reports.len() as f64;
    Ok(SolverLayers {
        compile_us: median(&compile),
        lower_us: median(&lower),
        sweep_us: median(&sweep),
        complete_info_us: median(&ci),
        complete_info_share: ci_total / solve_total,
        profiles: profiles as f64 / solves,
        sweep_ns_per_profile: sweep_total * 1e3 / profiles as f64,
        states: games.iter().map(|g| states(g) as f64).sum::<f64>() / games.len() as f64,
        reports,
    })
}

/// A replication-2 router over two memory-only servers, with every
/// probe body solved and written through to both: the same hit bodies
/// then go back-to-back through the router and straight to the node
/// that answered.
struct HopProbe {
    router_us: f64,
    direct_us: f64,
    delta: StackCounters,
}

fn hop_probe(inputs: &LayerInputs) -> Result<HopProbe, String> {
    let servers: Vec<ServerHandle> = (0..2)
        .map(|_| {
            start_server(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            })
        })
        .collect::<Result<_, _>>()?;
    let router = start_router(
        servers.iter().map(|s| s.addr().to_string()).collect(),
        CacheConfig::default(),
    )?;
    let result = hop_pairs(inputs, &servers, &router);
    router.stop();
    for server in servers {
        server.stop();
    }
    result
}

fn hop_pairs(
    inputs: &LayerInputs,
    servers: &[ServerHandle],
    router: &bi_service::RouterHandle,
) -> Result<HopProbe, String> {
    let mut via = connect(&router.addr().to_string())?;
    let mut direct: Vec<(String, HttpClient)> = servers
        .iter()
        .map(|s| Ok((s.addr().to_string(), connect(&s.addr().to_string())?)))
        .collect::<Result<_, String>>()?;
    let send = |client: &mut HttpClient, body: &[u8], reference: &[u8]| {
        let t = Instant::now();
        let response = client
            .request("POST", "/solve", body)
            .map_err(|e| format!("hop probe request failed: {e}"))?;
        let us = us_since(t);
        if response.status != 200 || response.body != reference {
            return Err("hop probe answer differs from the reference".to_string());
        }
        Ok((us, response.header("x-backend").map(str::to_string)))
    };
    for (body, reference) in inputs.bodies.iter().zip(&inputs.refs) {
        send(&mut via, body, reference)?;
    }
    let n = inputs.bodies.len() as u64;
    if !wait_until(Duration::from_secs(20), || {
        RouterCounters::read(router).replication_writes >= n
    }) {
        return Err("hop probe write-through never finished".into());
    }
    let services: Vec<_> = servers.iter().map(ServerHandle::service).collect();
    let read = || StackCounters {
        nodes: Some(NodeCounters::read(&services)),
        router: Some(RouterCounters::read(router)),
    };
    let before = read();
    let (mut router_us, mut direct_us) = (Vec::new(), Vec::new());
    for i in 0..HOP_PAIRS {
        let k = i % inputs.bodies.len();
        let (body, reference) = (&inputs.bodies[k], &inputs.refs[k]);
        let (us, backend) = send(&mut via, body, reference)?;
        router_us.push(us);
        let owner = direct
            .iter_mut()
            .find(|(addr, _)| Some(addr) == backend.as_ref())
            .ok_or("the router named no known backend")?;
        direct_us.push(send(&mut owner.1, body, reference)?.0);
    }
    let delta = read().since(before);
    Ok(HopProbe {
        router_us: median(&router_us),
        direct_us: median(&direct_us),
        delta,
    })
}

/// Every per-layer metric, in `BENCHMARK.json` order. `loop_delta` is
/// the workload stack's counter change over the timed phase; the parts
/// of a stack a workload does not have are counted over the hop probe's
/// timed pairs instead.
pub fn probe(
    inputs: &LayerInputs,
    loop_delta: &StackCounters,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let solver = match &inputs.models {
        Models::Matrix(games) => solver_layers(games, BayesianGame::support_len)?,
        Models::Ncs(games) => solver_layers(games, |g: &BayesianNcsGame| g.support().len())?,
    };
    let measures: Vec<_> = solver.reports.iter().map(|r| r.measures).collect();
    let mut k = 0;
    let verify_chain_ns = per_call_us(50, || {
        k = (k + 1) % measures.len();
        black_box(black_box(&measures[k]).verify_chain().is_ok());
    }) * 1e3;

    let specs = inputs.models.specs();
    let config = SolverConfig::default();
    let texts: Vec<&str> = inputs
        .bodies
        .iter()
        .map(|b| std::str::from_utf8(b).map_err(|_| "a probe body is not UTF-8".to_string()))
        .collect::<Result<_, _>>()?;
    let each = |f: &mut dyn FnMut(usize)| {
        let times: Vec<f64> = (0..20)
            .flat_map(|_| 0..inputs.bodies.len())
            .map(|i| {
                let t = Instant::now();
                f(i);
                us_since(t)
            })
            .collect();
        median(&times)
    };
    let encode_us = each(&mut |i| {
        black_box(solver.reports[i % solver.reports.len()].canonical_bytes());
    });
    let decode_us = each(&mut |i| {
        black_box(SolveRequest::decode_str(texts[i]).is_ok());
    });
    let canon_check_us = each(&mut |i| {
        black_box(bi_util::json::canon_check(&inputs.bodies[i]));
    });
    let cache_key_us = each(&mut |i| {
        black_box(SolveService::cache_key(&specs[i], &config));
    });

    // The service core without a transport: a miss (decode, lookup,
    // solve, encode, insert) per body, then zero-copy hits on the same
    // bodies.
    let service = SolveService::new(CacheConfig::default());
    let mut miss = Vec::new();
    for (body, reference) in inputs.bodies.iter().zip(&inputs.refs) {
        let t = Instant::now();
        let FastOutcome::Miss(prepared) = service
            .try_serve_fast(body, TraceCtx::NONE)
            .map_err(|e| e.to_string())?
        else {
            return Err("a fresh service answered from cache".into());
        };
        let served = service
            .complete_solve(*prepared)
            .map_err(|e| e.to_string())?;
        miss.push(us_since(t));
        if &*served.body != reference.as_slice() {
            return Err("service miss answer differs from the reference".into());
        }
    }
    let zero_copy_hit_us = each(&mut |i| {
        black_box(
            service
                .try_serve_fast(&inputs.bodies[i], TraceCtx::NONE)
                .is_ok(),
        );
    });

    // A standalone disk tier holding the probe keys.
    let log = scratch.join("probe-disk.log");
    let keys: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| SolveService::cache_key(s, &config))
        .collect();
    let disk_get_us = {
        let tier = DiskTier::open(&log, DiskTierConfig::default())
            .map_err(|e| format!("disk tier open failed: {e}"))?;
        for (key, reference) in keys.iter().zip(&inputs.refs) {
            tier.append(key, reference);
        }
        tier.sync();
        let us = each(&mut |i| {
            assert_eq!(
                tier.get(&keys[i]).as_deref(),
                Some(inputs.refs[i].as_slice()),
                "the disk tier must return what was appended"
            );
        });
        drop(tier);
        let _ = std::fs::remove_file(&log);
        us
    };

    let mut request = Vec::new();
    write_request(&mut request, "POST", "/solve", &inputs.bodies[0], true)
        .map_err(|e| e.to_string())?;
    let parse_head_us = per_call_us(50, || {
        black_box(parse_head(black_box(&request)).is_ok());
    });
    let mut head = Vec::new();
    let reply_len = inputs.refs[0].len();
    let write_head_us = per_call_us(50, || {
        write_head_into(&mut head, 200, "application/json", reply_len, true, &[]);
        black_box(&head);
    });

    let stages = StageTimings::default();
    let mut n = 0u64;
    let stage_record_ns = per_call_us(50, || {
        n += 1;
        stages.record(Stage::Cache, n % 128);
    }) * 1e3;
    let recorder = Recorder::default();
    let span_record_ns = per_call_us(50, || {
        n += 1;
        black_box(recorder.record(n, 0, Stage::Cache, n, n + 1));
    }) * 1e3;

    let hop = hop_probe(inputs)?;
    let nodes = loop_delta.nodes.or(hop.delta.nodes).unwrap_or_default();
    let router = loop_delta.router.or(hop.delta.router).unwrap_or_default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cache_hits = nodes.zero_copy_hits + nodes.lru_hits;

    Ok(vec![
        ("compiled.compile_us", solver.compile_us, "us"),
        ("compiled.lower_us", solver.lower_us, "us"),
        ("solve.sweep_us", solver.sweep_us, "us"),
        ("solve.profiles", solver.profiles, "count"),
        (
            "solve.sweep_ns_per_profile",
            solver.sweep_ns_per_profile,
            "ns",
        ),
        ("complete_info.us", solver.complete_info_us, "us"),
        ("complete_info.share", solver.complete_info_share, "ratio"),
        ("complete_info.states", solver.states, "count"),
        ("measures.verify_chain_ns", verify_chain_ns, "ns"),
        ("codec.encode_us", encode_us, "us"),
        ("codec.decode_us", decode_us, "us"),
        ("codec.canon_check_us", canon_check_us, "us"),
        ("codec.cache_key_us", cache_key_us, "us"),
        ("service.zero_copy_hit_us", zero_copy_hit_us, "us"),
        ("service.miss_us", median(&miss), "us"),
        (
            "service.zero_copy_ratio",
            ratio(nodes.zero_copy_hits, nodes.solve_requests),
            "ratio",
        ),
        ("service.cold_solves", nodes.cold_solves as f64, "count"),
        ("cache.hits", cache_hits as f64, "count"),
        ("cache.misses", nodes.lru_misses as f64, "count"),
        (
            "cache.hit_ratio",
            ratio(cache_hits, cache_hits + nodes.lru_misses),
            "ratio",
        ),
        ("cache.evictions", nodes.evictions as f64, "count"),
        ("disk.promotions", nodes.disk_hits as f64, "count"),
        ("disk.appends", nodes.disk_appends as f64, "count"),
        ("disk.append_drops", nodes.disk_drops as f64, "count"),
        ("disk.get_us", disk_get_us, "us"),
        ("http.parse_head_us", parse_head_us, "us"),
        ("http.write_head_us", write_head_us, "us"),
        (
            "transport.self_us",
            hop.direct_us - zero_copy_hit_us - parse_head_us - write_head_us,
            "us",
        ),
        (
            "reactor.wakeups_per_request",
            ratio(nodes.wakeups, nodes.requests),
            "ratio",
        ),
        ("router.hop_us", hop.router_us - hop.direct_us, "us"),
        (
            "router.key_cache_hit_ratio",
            ratio(
                router.key_cache_hits,
                router.key_cache_hits + router.key_cache_misses,
            ),
            "ratio",
        ),
        (
            "router.replication_writes",
            router.replication_writes as f64,
            "count",
        ),
        ("router.repair_drops", router.repair_drops as f64, "count"),
        ("router.retries", router.retries as f64, "count"),
        ("obs.stage_record_ns", stage_record_ns, "ns"),
        ("obs.span_record_ns", span_record_ns, "ns"),
    ])
}
