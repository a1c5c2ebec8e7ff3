//! The benchmark of the bayesian-ignorance solver and its serving tier:
//! one workload per process, one closed-loop caller, every answer
//! checked. See `README.md` in this directory for the workloads, the
//! metrics and how to run it; `run.py` builds this binary and pins it
//! to one CPU.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! Diagnostics go to standard output as `# `-prefixed lines; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones).

#![forbid(unsafe_code)]

mod calib;
mod host;
mod layers;
mod workloads;

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{peak_rss_mib, quantile, rss_mib, StatSnapshot};
use layers::Metric;

/// Set-ups per run; `setup_s` is their median. The first one's stack is
/// the one timed; the others are spread between the segments of the
/// timed phase.
const SETUP_REPS: usize = 5;
/// Windows per timed segment (100 per run, 0.2 s each at 20 s). Each
/// window is bracketed by two runs of the calibration kernel, and its
/// operations are scaled by the host's slowness over it (see `calib`);
/// `throughput_ops_s` is the median of the windows' scaled rates. The
/// host changes speed within a second, so short windows track it better
/// than long ones (0.67 s windows left twice the spread); the kernel
/// takes ~2.5% of the timed phase.
const WINDOWS_PER_SEGMENT: u32 = 20;
/// `peak_rss_mib` is `VmHWM` after this many timed operations, or at the
/// end of the first segment if that comes sooner: a fixed amount of work,
/// so that memory which grows per operation (the latency samples,
/// `cluster-churn`'s disk-tier index of every fresh key) does not turn
/// the metric into a proxy for throughput, and before the first
/// throw-away set-up, so that it counts only the timed stack.
const RSS_OPS: usize = 512;

/// A stretch of the timed phase between two calibration samples.
struct Window {
    /// Indices of its operations' latencies.
    ops: Range<usize>,
    secs: f64,
    /// The host's slowness over it: the mean of the calibration samples
    /// before and after it.
    slowness: f64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--scratch" => args.scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    println!("# host: {}", host::describe());
    let scratch = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    let result = measure(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (correct, attempted, failed, metrics) = result?;
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a value that cannot be formed
            // reads 0 and is named on a diagnostic line.
            let value = if value.is_finite() {
                *value
            } else {
                println!("# {name} could not be measured");
                0.0
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

fn measure(args: &Args, scratch: &Path) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let setup_dir = |i: usize| scratch.join(format!("setup{i}"));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let t = Instant::now();
    let mut w = workloads::setup(&args.workload, args.seed, &setup_dir(0))?;
    setups.push(t.elapsed().as_secs_f64());

    let before = w.counters();
    let rss_start = rss_mib();
    let stat = StatSnapshot::take();
    let segment = Duration::from_secs_f64(args.seconds) / SETUP_REPS as u32;
    let window = segment / WINDOWS_PER_SEGMENT;
    let mut latencies_ns = Vec::with_capacity(1 << 16);
    let mut windows: Vec<Window> = Vec::new();
    let mut rss = None;
    for seg in 0..SETUP_REPS {
        if seg > 0 {
            // Another set-up sample, of a stack that is then thrown
            // away. Spreading the samples over the run keeps setup_s
            // from hanging on the host's speed during one second.
            let t = Instant::now();
            let extra = workloads::setup(&args.workload, args.seed, &setup_dir(seg))?;
            setups.push(t.elapsed().as_secs_f64());
            extra.stop();
        }
        let mut before = calib::slowness();
        let t0 = Instant::now();
        let (mut start, mut first) = (t0, latencies_ns.len());
        loop {
            latencies_ns.push(w.op(args.trace));
            if latencies_ns.len() == RSS_OPS {
                rss.get_or_insert((peak_rss_mib(), RSS_OPS));
            }
            let now = Instant::now();
            let segment_done = now - t0 >= segment;
            if now - start >= window || segment_done {
                let after = calib::slowness();
                windows.push(Window {
                    ops: first..latencies_ns.len(),
                    secs: (now - start).as_secs_f64(),
                    slowness: (before + after) / 2.0,
                });
                before = after;
                (start, first) = (Instant::now(), latencies_ns.len());
            }
            if segment_done {
                rss.get_or_insert((peak_rss_mib(), latencies_ns.len()));
                break;
            }
        }
    }
    let (steal_all, steal_pinned) = StatSnapshot::take().steal_since(&stat);
    let rss_end = rss_mib();

    let mut notes = w.finish()?;
    let delta = w.counters().since(before);
    let (did_its_work, checks) = w.check(&delta);
    notes.extend(checks);
    let attempted = latencies_ns.len() as u64;
    let failed = w.failed();
    let timed: f64 = windows.iter().map(|w| w.secs).sum();
    // Throughput over the windows (a segment's last window counts when
    // at least half as long as the others) and latency percentiles over
    // every operation, scaled to the nominal host speed or, unscaled, as
    // measured.
    let rate = |scale: bool| {
        let rates: Vec<f64> = windows
            .iter()
            .filter(|w| w.secs >= window.as_secs_f64() / 2.0)
            .map(|w| w.ops.len() as f64 / w.secs * if scale { w.slowness } else { 1.0 })
            .collect();
        host::median(&rates)
    };
    let percentiles = |scale: bool| {
        let mut us: Vec<f64> = windows
            .iter()
            .flat_map(|w| {
                let s = if scale { w.slowness } else { 1.0 };
                latencies_ns[w.ops.clone()]
                    .iter()
                    .map(move |&ns| ns as f64 / 1e3 / s)
            })
            .collect();
        us.sort_by(f64::total_cmp);
        (quantile(&us, 0.5), quantile(&us, 0.9), quantile(&us, 0.99))
    };
    let throughput = rate(true);
    let (p50, p90, p99) = percentiles(true);
    let (raw_p50, raw_p90, raw_p99) = percentiles(false);
    let slowness: Vec<f64> = windows.iter().map(|w| w.slowness).collect();
    let setup_s = host::median(&setups);
    let (rss, rss_ops) = rss.unwrap_or((f64::NAN, 0));

    println!("# steal over the timed phase: host={steal_all:.5} pinned={steal_pinned:.5}");
    println!(
        "# host slowness over the windows (calibration kernel time / nominal): median {:.4} min {:.4} max {:.4}; unscaled throughput_ops_s={:.2} p50_us={raw_p50:.2} p90_us={raw_p90:.2} p99_us={raw_p99:.2}",
        host::median(&slowness),
        slowness.iter().copied().fold(f64::INFINITY, f64::min),
        slowness.iter().copied().fold(0.0, f64::max),
        rate(false),
    );
    println!(
        "# memory: VmRSS at timed start {rss_start:.3} MiB, VmHWM after {rss_ops} ops {rss:.3} MiB (peak_rss_mib), VmRSS at timed end {rss_end:.3} MiB"
    );
    println!(
        "# setup_s per set-up: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# {} e2e{}, scaled to the nominal host speed: ops={attempted} failed={failed} failed_ratio={} throughput_ops_s={throughput:.2} ({} windows) p50_us={p50:.2} p90_us={p90:.2} p99_us={p99:.2} (p99 not gated) timed_s={timed:.3}",
        args.workload,
        if args.trace { " (traced)" } else { "" },
        failed as f64 / attempted.max(1) as f64,
        windows.len(),
    );
    println!("# answer_digest={:016x}", w.digest());
    for note in &notes {
        println!("# {note}");
    }

    let metrics = if args.trace {
        let inputs = w.layer_inputs()?;
        std::fs::create_dir_all(scratch).map_err(|e| format!("cannot create scratch: {e}"))?;
        layers::probe(&inputs, &delta, scratch)?
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("throughput_ops_s", throughput, "ops/s"),
            ("latency_p50_us", p50, "us"),
            ("latency_p90_us", p90, "us"),
            ("peak_rss_mib", rss, "MiB"),
        ]
    };
    w.stop();
    let correct = failed == 0 && attempted > 0 && did_its_work;
    Ok((correct, attempted, failed, metrics))
}
