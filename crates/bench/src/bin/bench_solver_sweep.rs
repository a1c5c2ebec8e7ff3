//! `bench_solver_sweep` — throughput of the solver's exhaustive sweep and
//! sampling backends, per representation, against the pre-compiled
//! baseline, written to `BENCH_solver.json`.
//!
//! The baseline is a verbatim reimplementation of the pre-compiled-kernel
//! sweep loop (clone-based odometer over nested `Vec<Vec<Action>>`
//! profiles, full `social_cost` / `is_equilibrium` recomputation per
//! profile), timed **in the same run** as the compiled-kernel engine so
//! the speedup column is an apples-to-apples measurement on the same
//! machine and instance. The bench also asserts the two sweeps agree
//! bit-for-bit before reporting.
//!
//! Beyond the per-representation suites, the bench covers the two sweep
//! optimizations of the solver engine:
//!
//! * **thread scaling**: the compiled exhaustive sweep is timed at 1, 2
//!   and 4 workers on a large suite that crosses the work-stealing
//!   threshold, with bit-for-bit agreement asserted at every count; a
//!   4-thread sweep slower than the 1-thread one exits nonzero (only on
//!   hosts with ≥ 4 cores — the report records `host_parallelism` so
//!   consumers can tell);
//! * **symmetry-orbit reduction**: construction families with
//!   interchangeable agents (`G_worst`) and fully symmetric matrix games
//!   are solved as they are (the solver sweeps one profile per orbit) and
//!   through [`Unreduced`] (every profile), reporting the
//!   profile-evaluation reduction factor and the speedup; a suite that
//!   was not reduced, or whose measures differ from the unreduced
//!   solve's, exits nonzero.
//!
//! `--quick` shrinks instances and repeats for CI smoke runs; the
//! committed `BENCH_solver.json` comes from a full run, and a quick run
//! refuses to overwrite a full-mode report (CI writes
//! `BENCH_solver.quick.json` instead).

use std::io::Write;
use std::process::exit;
use std::time::Instant;

use bi_bench::{baseline_sweep, Unreduced};
use bi_constructions::gworst::{GWorstGame, GWorstVariant};
use bi_constructions::universal::random_bayesian_ncs;
use bi_core::compiled::CompiledSpace;
use bi_core::game::MatrixFormGame;
use bi_core::model::BayesianModel;
use bi_core::random_games::random_bayesian_potential_game;
use bi_core::solve::{Backend, SolveReport, Solver};
use bi_core::{BayesianGame, Measures, Symmetry};
use bi_graph::Direction;
use bi_util::Json;

const USAGE: &str = "\
bench_solver_sweep — solver sweep throughput vs the pre-compiled baseline

USAGE: bench_solver_sweep [OPTIONS]

Times the compiled sweep at 1, 2 and 4 threads (instance seed 11) and
the symmetry-orbit suites. Exits 1 if an orbit suite was not reduced or
its measures differ from the unreduced solve's, or if the large suite's
4-thread sweep is slower than 1-thread on a host with >= 4 cores.

OPTIONS:
  --quick           small instances / fewer repeats (CI smoke mode)
  --out FILE        report path (default BENCH_solver.json)
  --help            print this help
";

/// The instance seed of the random suites and the sampling backends.
const SEED: u64 = 11;

/// The worker counts the compiled sweep is timed at.
const THREADS: [usize; 3] = [1, 2, 4];

struct Args {
    quick: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        out: "BENCH_solver.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = args.next().ok_or("--out needs a value")?,
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    Ok(parsed)
}

/// Wall-clock of the best of `repeats` runs of `f` (min filters scheduler
/// noise), together with the last result.
fn time_best<T>(repeats: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("at least one repeat"), best)
}

struct Row {
    backend: String,
    profiles: u128,
    seconds: f64,
}

impl Row {
    fn profiles_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.profiles as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("backend".into(), Json::str(&self.backend)),
            ("profiles".into(), Json::num(self.profiles as f64)),
            ("seconds".into(), Json::num(self.seconds)),
            (
                "profiles_per_sec".into(),
                Json::num(self.profiles_per_sec()),
            ),
        ])
    }
}

/// Benches one model: baseline sweep, compiled sweeps at every count of
/// [`THREADS`], and the two sampling backends. Asserts bit-for-bit
/// agreement between the baseline and every compiled exhaustive sweep
/// (the work-stealing scheduler is deterministic by construction).
fn bench_model<M: BayesianModel>(model: &M, repeats: u32) -> (Vec<Row>, f64) {
    let (base, base_secs) = time_best(repeats, || baseline_sweep(model));
    let row = |backend: &str, report: &SolveReport, seconds: f64| Row {
        backend: backend.into(),
        profiles: report.profiles_evaluated,
        seconds,
    };
    let mut rows = vec![Row {
        backend: "baseline-exhaustive/1t".into(),
        profiles: base.evaluated,
        seconds: base_secs,
    }];
    for t in THREADS {
        let solver = Solver::builder().threads(t).build();
        let (report, secs) = time_best(repeats, || solver.solve(model).expect("solvable"));
        assert_eq!(
            (
                base.opt_p.to_bits(),
                base.best_eq_p.to_bits(),
                base.worst_eq_p.to_bits()
            ),
            (
                report.measures.opt_p.to_bits(),
                report.measures.best_eq_p.to_bits(),
                report.measures.worst_eq_p.to_bits()
            ),
            "compiled sweep ({t}t) must agree with the baseline bit-for-bit"
        );
        assert_eq!(base.evaluated, report.profiles_evaluated);
        rows.push(row(&format!("compiled-exhaustive/{t}t"), &report, secs));
    }
    let brd = Solver::builder()
        .backend(Backend::BestResponseDynamics {
            restarts: 32,
            seed: SEED,
        })
        .build();
    let (brd_report, brd_secs) = time_best(repeats, || brd.solve(model).expect("solvable"));
    let mc = Solver::builder()
        .backend(Backend::MonteCarloSampling {
            samples: 256,
            seed: SEED,
        })
        .build();
    let (mc_report, mc_secs) = time_best(repeats, || mc.solve(model).expect("solvable"));
    rows.push(row(
        "best-response-dynamics/32-restarts",
        &brd_report,
        brd_secs,
    ));
    rows.push(row("monte-carlo/256-samples", &mc_report, mc_secs));
    let speedup = rows[1].profiles_per_sec() / rows[0].profiles_per_sec();
    (rows, speedup)
}

/// The large scaling instance: an asymmetric exact-potential matrix game
/// with 4^7 = 16384 profiles — at the solver's work-stealing threshold,
/// so every `threads > 1` row actually exercises the parallel scheduler.
fn large_scaling_game() -> BayesianGame {
    let matrix = MatrixFormGame::from_fn(7, &[4; 7], |i, a| {
        let own = ((i + 1) * (a[i] * a[i] + 3 * a[i] + 1)) % 13;
        let common = a
            .iter()
            .enumerate()
            .map(|(j, &x)| (x + 1) * (j + 3))
            .sum::<usize>()
            % 17;
        (own + common) as f64
    });
    BayesianGame::new(vec![1; 7], vec![(vec![0; 7], 1.0, matrix)]).expect("valid game")
}

/// A fully symmetric matrix game (`k` binary agents, multiset costs):
/// the orbit sweep collapses `2^k` profiles to `k+1` orbits.
fn symmetric_matrix_game(k: usize) -> BayesianGame {
    let matrix = MatrixFormGame::from_fn(k, &vec![2; k], |_, a| {
        let ones = a.iter().sum::<usize>() as f64;
        ones * ones + 3.0 * (k as f64 - ones)
    });
    BayesianGame::new(vec![1; k], vec![(vec![0; k], 1.0, matrix)]).expect("valid game")
}

/// One orbit suite's outcome: its JSON row, plus what the orbit check
/// judges.
struct OrbitRow {
    json: Json,
    family: String,
    reduced: bool,
    measures_agree: bool,
}

/// The six measures as bit patterns, for exact comparison.
fn measure_bits(m: &Measures) -> [u64; 6] {
    [
        m.opt_p,
        m.best_eq_p,
        m.worst_eq_p,
        m.opt_c,
        m.best_eq_c,
        m.worst_eq_c,
    ]
    .map(f64::to_bits)
}

/// Benches symmetry-orbit reduction on one model: the unreduced solve
/// (through [`Unreduced`]) vs the solver's orbit-reduced one, comparing
/// all six measures bitwise and reporting the profile-evaluation
/// reduction factor. The orbit count is the one the solver sweeps:
/// [`Symmetry::detect`] over the model's compiled space. A suite counts
/// as reduced when it has fewer orbits than profiles and a solve capped
/// at that many profiles still succeeds, which it can only if the
/// solver swept the orbits.
fn bench_orbit<M: BayesianModel + Clone>(model: &M, family: &str, repeats: u32) -> OrbitRow {
    let solver = Solver::default();
    let unreduced = Unreduced(model.clone());
    let (full_report, full_secs) =
        time_best(repeats, || solver.solve(&unreduced).expect("solvable"));
    let (orbit_report, orbit_secs) = time_best(repeats, || solver.solve(model).expect("solvable"));
    let measures_agree =
        measure_bits(&full_report.measures) == measure_bits(&orbit_report.measures);
    let space = CompiledSpace::compile(model).expect("compilable");
    let symmetry = Symmetry::detect(model, &space);
    let orbits = symmetry.orbit_count().expect("sized");
    let profiles = full_report.profiles_evaluated;
    let orbit_budget = Solver::builder().max_profiles(orbits).build();
    let reduced = orbits < profiles && orbit_budget.solve(model).is_ok();
    let reduction = profiles as f64 / orbits as f64;
    let speedup = if orbit_secs > 0.0 {
        full_secs / orbit_secs
    } else {
        0.0
    };
    eprintln!(
        "  {family:<28} {profiles:>8} profiles -> {orbits:>6} orbits  ({reduction:.1}x fewer, {speedup:.1}x faster)"
    );
    let json = Json::Obj(vec![
        ("family".into(), Json::str(family)),
        ("full_profiles".into(), Json::from_u128(profiles)),
        ("orbits".into(), Json::from_u128(orbits)),
        (
            "group_order".into(),
            Json::from_u128(symmetry.group_order_saturating()),
        ),
        ("reduction".into(), Json::num(reduction)),
        ("measures_agree".into(), Json::Bool(measures_agree)),
        ("seconds_full".into(), Json::num(full_secs)),
        ("seconds_orbit".into(), Json::num(orbit_secs)),
        ("orbit_speedup".into(), Json::num(speedup)),
    ]);
    OrbitRow {
        json,
        family: family.into(),
        reduced,
        measures_agree,
    }
}

fn suite_json(representation: &str, instance: &str, rows: &[Row], speedup: f64) -> Json {
    Json::Obj(vec![
        ("representation".into(), Json::str(representation)),
        ("instance".into(), Json::str(instance)),
        (
            "rows".into(),
            Json::Arr(rows.iter().map(Row::to_json).collect()),
        ),
        ("compiled_over_baseline_1t".into(), Json::num(speedup)),
    ])
}

/// Whether the report at `path` exists and is a full-mode run.
fn is_full_mode_report(path: &str) -> bool {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .is_some_and(|report| report.get("mode").and_then(Json::as_str) == Some("full"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_solver_sweep: {msg}");
            exit(2);
        }
    };
    // Checked before any benching: a quick run's small instances would
    // silently replace the committed full-mode numbers.
    if args.quick && is_full_mode_report(&args.out) {
        eprintln!(
            "bench_solver_sweep: {} holds a full-mode report; refusing to overwrite it \
             with a --quick run (pass another --out)",
            args.out
        );
        exit(2);
    }
    let repeats = if args.quick { 2 } else { 5 };
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let print_rows = |rows: &[Row]| {
        for r in rows {
            eprintln!(
                "  {:<36} {:>10} profiles  {:>9.0} profiles/s",
                r.backend,
                r.profiles,
                r.profiles_per_sec()
            );
        }
    };

    // Matrix form: 3 agents × 2 types, so the sweep space (4^6 = 4096)
    // dwarfs each state's joint table (4^3 = 64).
    let (matrix_types, matrix_actions, matrix_support) = if args.quick {
        (vec![2usize, 2], vec![3usize, 3], 3usize)
    } else {
        (vec![2usize, 2, 2], vec![4usize, 4, 4], 4usize)
    };
    let (matrix_game, _) =
        random_bayesian_potential_game(&matrix_types, &matrix_actions, matrix_support, SEED);
    let matrix_desc = format!(
        "random potential game, types {matrix_types:?}, actions {matrix_actions:?}, support {matrix_support}"
    );
    eprintln!("bench_solver_sweep: matrix — {matrix_desc}");
    let (matrix_rows, matrix_speedup) = bench_model(&matrix_game, repeats);
    print_rows(&matrix_rows);

    // NCS form: a random directed network, 2 agents × 2 types.
    let (ncs_nodes, ncs_p) = if args.quick { (5, 0.35) } else { (6, 0.4) };
    let ncs_game = random_bayesian_ncs(Direction::Directed, ncs_nodes, ncs_p, 2, 2, SEED)
        .expect("connected generator");
    let ncs_desc = format!(
        "random Bayesian NCS, {ncs_nodes} nodes, edge prob {ncs_p}, 2 agents x 2 types, space {}",
        ncs_game.strategy_space_size().expect("sized")
    );
    eprintln!("bench_solver_sweep: ncs — {ncs_desc}");
    let (ncs_rows, ncs_speedup) = bench_model(&ncs_game, repeats);
    print_rows(&ncs_rows);

    // The large suite: 4^7 = 16384 profiles, at the work-stealing
    // threshold — the instance thread-scaling claims are judged on.
    let large_game = large_scaling_game();
    let large_desc = "asymmetric exact-potential matrix game, 7 agents x 4 actions, 16384 profiles";
    eprintln!("bench_solver_sweep: matrix-large — {large_desc}");
    let (large_rows, large_speedup) = bench_model(&large_game, repeats);
    print_rows(&large_rows);

    let suites = vec![
        suite_json("matrix", &matrix_desc, &matrix_rows, matrix_speedup),
        suite_json("ncs", &ncs_desc, &ncs_rows, ncs_speedup),
        suite_json("matrix-large", large_desc, &large_rows, large_speedup),
    ];

    eprintln!("bench_solver_sweep: symmetry-orbit reduction");
    let k = if args.quick { 8 } else { 12 };
    let gworst_invk = GWorstGame::new(k, GWorstVariant::InvK).expect("valid k");
    let gworst_half = GWorstGame::new(k, GWorstVariant::Half).expect("valid k");
    let sym_k = if args.quick { 10 } else { 14 };
    let symmetric = symmetric_matrix_game(sym_k);
    let orbit_suites = [
        bench_orbit(gworst_invk.game(), &format!("gworst-invk/k={k}"), repeats),
        bench_orbit(gworst_half.game(), &format!("gworst-half/k={k}"), repeats),
        bench_orbit(&symmetric, &format!("symmetric-matrix/k={sym_k}"), repeats),
    ];

    let report = Json::Obj(vec![
        (
            "mode".into(),
            Json::str(if args.quick { "quick" } else { "full" }),
        ),
        ("seed".into(), Json::from_u64(SEED)),
        (
            "host_parallelism".into(),
            Json::from_u64(host_parallelism as u64),
        ),
        (
            "thread_counts".into(),
            Json::Arr(THREADS.iter().map(|&t| Json::from_u64(t as u64)).collect()),
        ),
        ("suites".into(), Json::Arr(suites)),
        (
            "orbit_suites".into(),
            Json::Arr(orbit_suites.iter().map(|row| row.json.clone()).collect()),
        ),
    ]);
    let mut file = match std::fs::File::create(&args.out) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("bench_solver_sweep: cannot write {}: {e}", args.out);
            exit(1);
        }
    };
    file.write_all(report.to_string().as_bytes())
        .and_then(|()| file.write_all(b"\n"))
        .expect("report write");
    println!(
        "bench_solver_sweep: matrix {matrix_speedup:.1}x | ncs {ncs_speedup:.1}x | large {large_speedup:.1}x vs baseline -> {}",
        args.out
    );

    let orbit_failures: Vec<String> = orbit_suites
        .iter()
        .flat_map(|row| {
            [
                (!row.measures_agree).then_some("measures differ from the unreduced solve"),
                (!row.reduced).then_some("the solve was not orbit-reduced"),
            ]
            .into_iter()
            .flatten()
            .map(move |failure| format!("{}: {failure}", row.family))
        })
        .collect();
    if !orbit_failures.is_empty() {
        for failure in &orbit_failures {
            eprintln!("bench_solver_sweep: ORBIT CHECK FAILED — {failure}");
        }
        exit(1);
    }
    eprintln!(
        "bench_solver_sweep: orbit check passed ({} suites reduced, measures bit-identical)",
        orbit_suites.len()
    );

    if host_parallelism < 4 {
        eprintln!(
            "bench_solver_sweep: scaling check skipped \
             (host_parallelism={host_parallelism}, needs >= 4 cores)"
        );
        return;
    }
    let pps = |name: &str| {
        large_rows
            .iter()
            .find(|r| r.backend == name)
            .map_or(0.0, Row::profiles_per_sec)
    };
    let (one, four) = (pps("compiled-exhaustive/1t"), pps("compiled-exhaustive/4t"));
    if four < one {
        eprintln!(
            "bench_solver_sweep: SCALING REGRESSION — large suite 4t \
             ({four:.0} profiles/s) is slower than 1t ({one:.0} profiles/s) \
             on a {host_parallelism}-core host"
        );
        exit(1);
    }
    eprintln!("bench_solver_sweep: scaling check passed (4t {four:.0} >= 1t {one:.0} profiles/s)");
}
