//! `perfbench`: end-to-end and per-layer benchmark of rotsv.
//!
//! ```text
//! perfbench <workload> --seed N --seconds S --trace 0|1 [--server-bin PATH]
//! perfbench cold <workload>            one cold start (used by the above)
//! perfbench record <workload> --seed N record the output reference
//! ```
//!
//! Run it from the repository root: the auto engine's tuning is read
//! from `BENCH_solver.json` in the working directory, as `experiments`
//! and `rotsv-server --lanes auto` read it. `perfbench/run.py` builds
//! the binaries and runs this with the right paths.

mod check;
mod library;
mod service;
mod util;

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rotsv::spice::{SolverStats, SpiceError};
use rotsv_obs::Json;

use check::Point;
use library::{Call, Layers, Library};
use util::{median, Metric};

/// Cold starts timed before and after the timed phase each; `setup_s`
/// is their median.
const COLD_STARTS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let workload = it.next().ok_or("missing workload")?.clone();
    let mut out = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => out.trace = value == "1",
            "--server-bin" => out.server_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn references_dir() -> PathBuf {
    Path::new("perfbench").join("references")
}

/// Process-wide settings shared by every library run: single-threaded
/// populations, and the measured auto-engine tuning from the working
/// directory.
fn library_setup() {
    rotsv::num::parallel::set_thread_limit(NonZeroUsize::new(1));
    rotsv::mc::load_measured_tuning(Path::new("BENCH_solver.json"));
    rotsv::set_mc_engine(rotsv::McEngine::Auto);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("cold") => cold(argv.get(1).map(String::as_str).unwrap_or("")),
        Some("record") => parse_args(&argv[1..]).and_then(|a| record(&a)),
        Some(_) => parse_args(&argv).and_then(|a| run(&a)),
        None => Err("usage: perfbench <workload> --seed N --seconds S --trace 0|1".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.workload == "screen_service" {
        let bin = args
            .server_bin
            .as_deref()
            .ok_or("screen_service needs --server-bin")?;
        return service::run(args.seed, args.seconds, args.trace, bin);
    }
    let workload = Library::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    run_library(workload, args)
}

/// The warm-up die every library workload pays for before its first
/// verdict: the nominal die on the N=2 fast bench at 1.1 V.
fn warmup() -> Result<(), SpiceError> {
    let faults = [rotsv::tsv::TsvFault::None; 2];
    rotsv::TestBench::fast(2)
        .measure_delta_t(1.1, &faults, &[0], &rotsv::Die::nominal())
        .map(drop)
}

/// One cold start: a fresh process up to one finished warm-up die.
fn cold(workload: &str) -> Result<(), String> {
    Library::parse(workload).ok_or("cold: unknown library workload")?;
    library_setup();
    warmup().map_err(|e| e.to_string())?;
    println!("ready");
    Ok(())
}

fn time_cold_start(workload: Library) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let status = Command::new(exe)
        .args(["cold", workload.name()])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cold start: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("cold start exited with {status}"));
    }
    Ok(wall)
}

/// Everything one untraced pass produced.
struct Pass {
    points: Vec<Point>,
    dies: usize,
    wall_s: f64,
    stats: SolverStats,
}

fn run_pass(calls: &[Call], seed: u64) -> Result<Pass, SpiceError> {
    let t0 = Instant::now();
    let mut pass = Pass {
        points: Vec::new(),
        dies: 0,
        wall_s: 0.0,
        stats: SolverStats::default(),
    };
    for call in calls {
        let r = library::run_call(call, seed)?;
        pass.dies += r.dies;
        pass.points.extend(r.points);
        pass.stats.merge(&r.stats);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    Ok(pass)
}

/// Output checks outside the timed phase. Returns the dies whose check
/// failed, printing each mismatch.
fn check_library(
    workload: Library,
    seed: u64,
    calls: &[Call],
    passes: &[Pass],
) -> Result<u64, String> {
    let first = &passes[0];
    let mut failed = 0u64;
    let mut fail = |dies: usize, why: String| {
        eprintln!("check failed: {why}");
        failed += dies as u64;
    };
    // Every repeat of the pass must reproduce the first bit for bit.
    for (k, pass) in passes.iter().enumerate().skip(1) {
        for (a, b) in first.points.iter().zip(&pass.points) {
            if !a.bits_eq(b) {
                fail(
                    b.dies(),
                    format!("pass {k} differs from pass 0 at {}", b.name),
                );
            }
        }
    }
    match check::load_reference(&references_dir(), workload.name(), seed)? {
        Some(reference) => {
            if reference.len() != first.points.len() {
                fail(
                    first.dies,
                    format!(
                        "{} points, reference has {}",
                        first.points.len(),
                        reference.len()
                    ),
                );
            }
            for (got, want) in first.points.iter().zip(&reference) {
                if let Some(why) = got.mismatch(want) {
                    fail(got.dies(), why);
                }
            }
        }
        None => println!("note: no recorded reference for seed {seed}; sample recompute only"),
    }
    // Recompute a seeded sample of dies one at a time through
    // `TestBench::measure_delta_t_with` and find each among the results.
    let units: Vec<(&library::Population, &Point)> = calls
        .iter()
        .flat_map(|c| &c.units)
        .zip(&first.points)
        .collect();
    let mut pick = rotsv::num::rng::GaussianRng::seed_from(seed ^ 0xC4EC_u64);
    let samples = match workload {
        Library::PaperFigs => 2,
        Library::WaferSweep => 3,
        Library::SingleDie => 3,
    };
    for _ in 0..samples {
        let (unit, point) = units[pick.uniform(0.0, units.len() as f64) as usize];
        let die = pick.uniform(0.0, unit.dies() as f64) as usize;
        let m = unit.measure_one(die).map_err(|e| e.to_string())?;
        let ok = match (m.delta(), point.dies()) {
            (Some(dt), 1) => check::close(dt, point.mean),
            (Some(dt), _) => point.n > 0 && check::within(dt, point.min, point.max),
            (None, _) => point.stuck > 0,
        };
        if !ok {
            fail(
                1,
                format!(
                    "{} die {die}: recomputed {:?} outside the population",
                    point.name,
                    m.delta()
                ),
            );
        }
    }
    Ok(failed)
}

fn run_library(workload: Library, args: &Args) -> Result<(), String> {
    library_setup();
    let calls = library::calls(workload, args.seed).map_err(|e| e.to_string())?;
    let mut fp = util::fingerprint();
    fp.push(("workload".into(), Json::Str(workload.name().into())));
    fp.push((
        "lanes_per_population".into(),
        Json::Arr(
            calls
                .iter()
                .flat_map(|c| &c.units)
                .map(|u| {
                    Json::Arr(vec![
                        Json::Str(u.label.clone()),
                        Json::Num(u.lanes() as f64),
                    ])
                })
                .collect(),
        ),
    ));
    println!("fingerprint {}", Json::Obj(fp).render());

    let mut probes = vec![util::host_probe()];
    let mut colds = Vec::new();
    for _ in 0..COLD_STARTS {
        colds.push(time_cold_start(workload)?);
    }
    warmup().map_err(|e| e.to_string())?;

    // Timed phase: whole passes, as many as fit in the window (at least
    // one), so every run measures the same mix of populations.
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(run_pass(&calls, args.seed).map_err(|e| e.to_string())?);
        let elapsed = t0.elapsed().as_secs_f64();
        let last = passes.last().expect("one pass").wall_s;
        if elapsed + last > args.seconds {
            break;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();

    for _ in 0..COLD_STARTS {
        colds.push(time_cold_start(workload)?);
    }
    probes.push(util::host_probe());

    let dies: usize = passes.iter().map(|p| p.dies).sum();
    let mut failed = check_library(workload, args.seed, &calls, &passes)?;
    println!(
        "timed phase: {} pass(es), {dies} dies in {timed_s:.3} s; cold starts {:?}",
        passes.len(),
        colds.iter().map(|c| format!("{c:.4}")).collect::<Vec<_>>()
    );

    if !args.trace {
        let metrics = [
            Metric::new("dies_per_s", dies as f64 / timed_s, "1/s"),
            Metric::new("setup_s", median(&colds), "s"),
            Metric::new(
                "peak_rss_mb",
                util::peak_rss_mb("self").unwrap_or(0.0),
                "MB",
            ),
        ];
        util::emit(failed == 0, dies as u64, failed, &metrics);
        return Ok(());
    }

    // Traced replay of one pass down the public stack, metrics on.
    rotsv_obs::reset();
    rotsv_obs::set_metrics(true);
    let mut layers = Layers::default();
    let t_traced = Instant::now();
    let mut replayed: Vec<Point> = Vec::new();
    for call in &calls {
        let mut per_unit = Vec::new();
        for unit in &call.units {
            per_unit.push(library::replay(unit, &mut layers).map_err(|e| e.to_string())?);
        }
        replayed.extend(library::replay_points(call, &per_unit));
    }
    let traced_s = t_traced.elapsed().as_secs_f64();
    rotsv_obs::set_metrics(false);
    for (a, b) in passes[0].points.iter().zip(&replayed) {
        if !a.bits_eq(b) {
            eprintln!(
                "check failed: replayed {} is not bit-identical to the untraced run",
                b.name
            );
            failed += b.dies() as u64;
        }
    }
    if replayed.len() != passes[0].points.len() {
        eprintln!("check failed: replay produced {} points", replayed.len());
        failed += passes[0].dies as u64;
    }
    let (a, b) = (&passes[0].stats, &layers.stats);
    let counts = |s: &SolverStats| {
        (
            s.symbolic_analyses,
            s.factorizations,
            s.solves,
            s.newton_iterations,
            s.steps_accepted,
            s.steps_rejected,
        )
    };
    if counts(a) != counts(b) {
        eprintln!(
            "check failed: replayed solver work {:?} differs from the untraced run {:?}",
            counts(b),
            counts(a)
        );
        failed += passes[0].dies as u64;
    }
    let lu = rotsv_obs::histogram("lu.numeric").summary();
    let occupancy = rotsv_obs::histogram("mc.batch_occupancy").summary();
    let drag = rotsv_obs::histogram("mc.dt_drag").summary();
    let s = &layers.stats;
    let lanes = calls
        .iter()
        .flat_map(|c| &c.units)
        .map(|u| u.lanes())
        .max()
        .unwrap_or(1);
    let measure_s = layers.measure_s;
    let steps = s.steps_accepted + s.steps_rejected;
    let mut metrics = vec![
        Metric::new("core.population_s", layers.population_s, "s"),
        Metric::new("core.calls", layers.calls as f64, "count"),
        Metric::new("core.sched_s", layers.population_s - measure_s, "s"),
        Metric::new("core.lanes", lanes as f64, "count"),
        Metric::new("ro.measure_s", measure_s, "s"),
        Metric::new(
            "spice.us_per_newton",
            measure_s / s.newton_iterations.max(1) as f64 * 1e6,
            "us",
        ),
        Metric::new(
            "spice.lane_occupancy",
            if occupancy.count > 0 {
                occupancy.mean()
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("spice.dt_drag_p90", drag.quantile(0.9), "ratio"),
        Metric::new("spice.steps", s.steps_accepted as f64, "count"),
        Metric::new("spice.steps_rejected", s.steps_rejected as f64, "count"),
        Metric::new(
            "spice.step_accept_ratio",
            s.steps_accepted as f64 / steps.max(1) as f64,
            "ratio",
        ),
        Metric::new("spice.newton_iters", s.newton_iterations as f64, "count"),
        Metric::new(
            "spice.newton_per_step",
            s.newton_iterations as f64 / s.steps_accepted.max(1) as f64,
            "ratio",
        ),
        Metric::new("num.symbolic_analyses", s.symbolic_analyses as f64, "count"),
        Metric::new("num.factorizations", s.factorizations as f64, "count"),
        Metric::new("num.lu_numeric_s", lu.sum, "s"),
        Metric::new(
            "num.lu_share",
            lu.sum / measure_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
    ];
    metrics.extend(service::idle_layer_metrics());
    metrics.extend([
        Metric::new(
            "obs.trace_overhead",
            traced_s / passes[0].wall_s - 1.0,
            "ratio",
        ),
        Metric::new("trace.wall_s", traced_s, "s"),
        Metric::new("trace.unattributed_s", traced_s - layers.population_s, "s"),
        Metric::new("loadgen.lag_p95_s", 0.0, "s"),
        Metric::new("host.probe_s", median(&probes), "s"),
    ]);
    println!(
        "layers: core self {:.3} s + ro/spice self {:.3} s + num.lu_numeric {:.3} s + unattributed {:.3} s = traced wall {traced_s:.3} s",
        layers.population_s - measure_s,
        measure_s - lu.sum,
        lu.sum,
        traced_s - layers.population_s,
    );
    util::emit(failed == 0, dies as u64, failed, &metrics);
    Ok(())
}

/// Runs one pass and records its points as the reference for `seed`.
fn record(args: &Args) -> Result<(), String> {
    let workload = Library::parse(&args.workload).ok_or("record: library workloads only")?;
    library_setup();
    let calls = library::calls(workload, args.seed).map_err(|e| e.to_string())?;
    let pass = run_pass(&calls, args.seed).map_err(|e| e.to_string())?;
    check::record_reference(&references_dir(), workload.name(), args.seed, &pass.points)?;
    println!(
        "recorded {} points for {} seed {} ({:.2} s)",
        pass.points.len(),
        workload.name(),
        args.seed,
        pass.wall_s
    );
    Ok(())
}
