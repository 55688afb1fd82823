//! The three library workloads (`paper_figs`, `wafer_sweep`,
//! `single_die`): their seeded inputs, the untraced timed pass, and the
//! traced replay down the public stack
//! (`TestBench::ro_configs` → `RingOscillator::build` /
//! `set_symbolic_cache` → `RingOscillator::measure_queue_with_stats` /
//! `measure_with_stats`).

use std::sync::Arc;
use std::time::Instant;

use rotsv::mc::{delta_t_fault_sweep_with_engine, die_seed, resolve_engine, McEngine};
use rotsv::num::rng::GaussianRng;
use rotsv::num::units::Ohms;
use rotsv::num::SymbolicCache;
use rotsv::ro::{MeasureOpts, RingOscillator};
use rotsv::spice::{SolverStats, SpiceError};
use rotsv::tsv::TsvFault;
use rotsv::variation::ProcessSpread;
use rotsv::{DeltaTMeasurement, Die, TestBench};
use rotsv_experiments::{e3, e5, Fidelity};

use crate::check::Point;

/// A library workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// Full-fidelity e3 and e5 figure populations.
    PaperFigs,
    /// One heterogeneous leakage-ladder sweep on the N=5 ring.
    WaferSweep,
    /// The e2 open grid and the e4 leak × V_DD grid, one die per call.
    SingleDie,
}

impl Library {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_figs" => Some(Self::PaperFigs),
            "wafer_sweep" => Some(Self::WaferSweep),
            "single_die" => Some(Self::SingleDie),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::PaperFigs => "paper_figs",
            Self::WaferSweep => "wafer_sweep",
            Self::SingleDie => "single_die",
        }
    }
}

/// Dies per e3/e5 population at full fidelity.
const FIG_SAMPLES: usize = 8;
/// Dies in the wafer sweep: at the auto lane table's 32-die floor or
/// above, so the sweep runs wide lanes behind one symbolic analysis.
const WAFER_DIES: usize = 64;
/// Leakage ladder of the wafer sweep: two hard-stuck rungs (300/500 Ω)
/// that retire their lanes early, the rest weak leaks up to effectively
/// fault-free, all one matrix topology.
const LADDER: [f64; 8] = [300.0, 1e5, 1e6, 500.0, 1e7, 1e8, 1e9, 5e6];

/// One replayable unit: a population (or a single die) measured on one
/// engine, described by exactly the inputs the library call derives.
pub struct Population {
    pub label: String,
    bench: TestBench,
    vdd: f64,
    faults: Vec<Vec<TsvFault>>,
    dies: Vec<Die>,
    opts: MeasureOpts,
    /// Engine the library call resolves for this population.
    engine: McEngine,
}

impl Population {
    fn homogeneous(
        label: String,
        bench: TestBench,
        vdd: f64,
        faults: Vec<TsvFault>,
        seed: u64,
    ) -> Self {
        let spread = ProcessSpread::paper();
        let opts = bench.opts_for(vdd);
        Self {
            label,
            bench,
            vdd,
            faults: vec![faults; FIG_SAMPLES],
            dies: (0..FIG_SAMPLES)
                .map(|i| Die::new(spread, die_seed(seed, i)))
                .collect(),
            opts,
            engine: resolve_engine(McEngine::Auto, FIG_SAMPLES),
        }
    }

    fn single(
        label: String,
        bench: TestBench,
        vdd: f64,
        faults: Vec<TsvFault>,
        opts: MeasureOpts,
    ) -> Self {
        Self {
            label,
            bench,
            vdd,
            faults: vec![faults],
            dies: vec![Die::nominal()],
            opts,
            engine: McEngine::Scalar,
        }
    }

    pub fn dies(&self) -> usize {
        self.dies.len()
    }

    /// Lanes the engine seats (1 for the scalar loop).
    pub fn lanes(&self) -> usize {
        match self.engine {
            McEngine::Batched { lanes } | McEngine::BatchedChunked { lanes } => lanes,
            McEngine::Scalar | McEngine::Auto => 1,
        }
    }

    /// Measures die `i` alone through `TestBench::measure_delta_t_with`,
    /// the scalar reference path.
    pub fn measure_one(&self, i: usize) -> Result<DeltaTMeasurement, SpiceError> {
        self.bench
            .measure_delta_t_with(self.vdd, &self.faults[i], &[0], &self.dies[i], &self.opts)
    }
}

/// The e3 populations (N=5 ring, 4 V_DD points, fault-free vs a 1 kΩ
/// open), built exactly as `e3::populations` builds them.
fn e3_populations(seed: u64) -> Vec<Population> {
    let bench = TestBench::new(5);
    let ff = vec![TsvFault::None; 5];
    let mut open = ff.clone();
    open[0] = TsvFault::ResistiveOpen {
        x: 0.5,
        r: Ohms(1e3),
    };
    let mut out = Vec::new();
    for vdd in [0.8, 0.95, 1.1, 1.2] {
        out.push(Population::homogeneous(
            format!("e3/{vdd}/ff"),
            bench.clone(),
            vdd,
            ff.clone(),
            seed,
        ));
        out.push(Population::homogeneous(
            format!("e3/{vdd}/open"),
            bench.clone(),
            vdd,
            open.clone(),
            seed,
        ));
    }
    out
}

/// The e5 populations (N=2 fast bench, 3 V_DD points, fault-free vs a
/// 3 kΩ leak), built exactly as `e5::populations` builds them.
fn e5_populations(seed: u64) -> Vec<Population> {
    let bench = TestBench::fast(2);
    let ff = vec![TsvFault::None; 2];
    let mut leak = ff.clone();
    leak[0] = TsvFault::Leakage { r: Ohms(3e3) };
    let mut out = Vec::new();
    for vdd in [0.9, 1.0, 1.1] {
        out.push(Population::homogeneous(
            format!("e5/{vdd}/ff"),
            bench.clone(),
            vdd,
            ff.clone(),
            seed,
        ));
        out.push(Population::homogeneous(
            format!("e5/{vdd}/leak"),
            bench.clone(),
            vdd,
            leak.clone(),
            seed,
        ));
    }
    out
}

/// The wafer sweep: die `i` is `die_seed(seed, i)` under a leak drawn
/// from the ladder by a seeded shuffle.
fn wafer_population(seed: u64) -> Population {
    let bench = TestBench::new(5);
    let vdd = 1.1;
    let mut rng = GaussianRng::seed_from(seed ^ 0x5745_4641_5245_5200);
    let mut rungs: Vec<f64> = (0..WAFER_DIES).map(|i| LADDER[i % LADDER.len()]).collect();
    for i in (1..rungs.len()).rev() {
        let j = rng.uniform(0.0, (i + 1) as f64) as usize;
        rungs.swap(i, j);
    }
    let faults = rungs
        .iter()
        .map(|&r| {
            let mut f = vec![TsvFault::None; 5];
            f[0] = TsvFault::Leakage { r: Ohms(r) };
            f
        })
        .collect();
    let spread = ProcessSpread::paper();
    let opts = bench.opts_for(vdd);
    Population {
        label: "sweep/1.1".into(),
        bench,
        vdd,
        faults,
        dies: (0..WAFER_DIES)
            .map(|i| Die::new(spread, die_seed(seed, i)))
            .collect(),
        opts,
        engine: resolve_engine(McEngine::Auto, WAFER_DIES),
    }
}

/// The single-die grids on the nominal die: e2's resistive-open sweep
/// on the N=5 ring at 1.1 V and e4's leak × V_DD grid on the N=2 fast
/// bench with its stuck-ring time budget. The seed jitters every fault
/// resistance (±10 % for opens, ±5 % for leaks), so each seed is a
/// different grid of the same shape.
fn single_die_points(seed: u64) -> Result<Vec<Population>, SpiceError> {
    let mut rng = GaussianRng::seed_from(seed ^ 0x5349_4e47_4c45_0000);
    let mut jitter = |width: f64| rng.uniform(1.0 - width, 1.0 + width);
    let mut out = Vec::new();

    let e2 = TestBench::new(5);
    for r in [0.0, 250.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0] {
        let mut faults = vec![TsvFault::None; 5];
        let r = r * jitter(0.10);
        if r > 0.0 {
            faults[0] = TsvFault::ResistiveOpen { x: 0.5, r: Ohms(r) };
        }
        let opts = e2.opts_for(1.1);
        out.push(Population::single(
            format!("e2/open/{r:.1}"),
            e2.clone(),
            1.1,
            faults,
            opts,
        ));
    }

    let e4 = TestBench::fast(2);
    let die = Die::nominal();
    for vdd in [1.1, 0.95, 0.8, 0.75] {
        // e4's budget rule: a stuck ring burns 3x what the fault-free
        // ring needs for its measured cycles. The fault-free reference
        // is itself the first point of the row.
        let base = e4.opts_for(vdd);
        let ff = vec![TsvFault::None; 2];
        let t1_ff = e4
            .measure_delta_t(vdd, &ff, &[0], &die)?
            .t1
            .period()
            .expect("fault-free ring oscillates at every grid voltage");
        out.push(Population::single(
            format!("e4/{vdd}/ff"),
            e4.clone(),
            vdd,
            ff,
            base,
        ));
        let budget = t1_ff * (base.cycles + base.skip_cycles + 4) as f64 * 3.0;
        let opts = MeasureOpts {
            max_time: budget.min(base.max_time),
            ..base
        };
        for r in [
            50e3, 20e3, 10e3, 5e3, 3e3, 2.5e3, 2e3, 1.5e3, 1.2e3, 1e3, 0.8e3,
        ] {
            let r = r * jitter(0.05);
            let mut faults = vec![TsvFault::None; 2];
            faults[0] = TsvFault::Leakage { r: Ohms(r) };
            out.push(Population::single(
                format!("e4/{vdd}/leak/{r:.1}"),
                e4.clone(),
                vdd,
                faults,
                opts,
            ));
        }
    }
    Ok(out)
}

/// A library call of the untraced pass and the replay units it expands
/// to.
pub struct Call {
    pub kind: CallKind,
    pub units: Vec<Population>,
}

pub enum CallKind {
    E3,
    E5,
    Sweep,
    Single,
}

/// The calls of one pass of `workload` at `seed`, in pass order.
pub fn calls(workload: Library, seed: u64) -> Result<Vec<Call>, SpiceError> {
    Ok(match workload {
        Library::PaperFigs => vec![
            Call {
                kind: CallKind::E3,
                units: e3_populations(seed),
            },
            Call {
                kind: CallKind::E5,
                units: e5_populations(seed),
            },
        ],
        Library::WaferSweep => vec![Call {
            kind: CallKind::Sweep,
            units: vec![wafer_population(seed)],
        }],
        Library::SingleDie => single_die_points(seed)?
            .into_iter()
            .map(|p| Call {
                kind: CallKind::Single,
                units: vec![p],
            })
            .collect(),
    })
}

/// The outcome of one untraced library call: one check point per
/// population and its solver work.
pub struct CallResult {
    pub points: Vec<Point>,
    pub dies: usize,
    pub stats: SolverStats,
}

/// Runs one call through the library's public entry point, untraced:
/// `e3::populations` / `e5::populations` for the figures,
/// `delta_t_fault_sweep_with_engine` (auto engine) for the sweep, and
/// `TestBench::measure_delta_t_with` for a single die.
pub fn run_call(call: &Call, seed: u64) -> Result<CallResult, SpiceError> {
    let mut points = Vec::new();
    let mut stats = SolverStats::default();
    match call.kind {
        CallKind::E3 => {
            for (row, units) in e3::populations(&Fidelity::full(), seed)?
                .iter()
                .zip(call.units.chunks(2))
            {
                points.push(Point::of_summary(
                    &units[0].label,
                    &row.fault_free,
                    FIG_SAMPLES,
                ));
                points.push(Point::of_summary(&units[1].label, &row.faulty, FIG_SAMPLES));
                stats.merge(&row.stats);
            }
        }
        CallKind::E5 => {
            for (row, units) in e5::populations(&Fidelity::full(), seed)?
                .iter()
                .zip(call.units.chunks(2))
            {
                points.push(Point::of_summary(
                    &units[0].label,
                    &row.fault_free,
                    FIG_SAMPLES,
                ));
                points.push(match &row.leaky {
                    Some(s) => Point::of_summary(&units[1].label, s, FIG_SAMPLES),
                    None => Point::all_stuck(&units[1].label, row.stuck),
                });
                stats.merge(&row.stats);
            }
        }
        CallKind::Sweep => {
            let p = &call.units[0];
            let pop = delta_t_fault_sweep_with_engine(
                &p.bench,
                p.vdd,
                &p.faults,
                &[0],
                ProcessSpread::paper(),
                seed,
                McEngine::Auto,
            )?;
            let stuck = pop.stuck_count + pop.reference_failures;
            points.push(Point::of_deltas(&p.label, &pop.deltas, stuck));
            stats = pop.stats;
        }
        CallKind::Single => {
            let p = &call.units[0];
            let m = p.measure_one(0)?;
            points.push(Point::of_measurements(&p.label, std::slice::from_ref(&m)));
            stats = m.stats;
        }
    }
    Ok(CallResult {
        points,
        dies: call.units.iter().map(Population::dies).sum(),
        stats,
    })
}

/// Host time attributed to the layers of a traced replay.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Busy time inside population / single-die entry calls.
    pub population_s: f64,
    /// Busy time inside `RingOscillator::measure_*` calls.
    pub measure_s: f64,
    /// Entry calls replayed.
    pub calls: u64,
    /// Solver work of every replayed measurement.
    pub stats: SolverStats,
}

/// Orders sample indices the way the population engine seats them: by
/// the magnitude of each die's first threshold-voltage delta, ties by
/// index (`Die::first_delta` is the public view of that score).
fn cohort_order(dies: &[Die]) -> Vec<usize> {
    let score: Vec<f64> = dies.iter().map(|d| d.first_delta().dvth.abs()).collect();
    let mut order: Vec<usize> = (0..dies.len()).collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
    order
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Replays one population down the public stack with every layer call
/// timed, returning per-die measurements in sample order.
pub fn replay(p: &Population, layers: &mut Layers) -> Result<Vec<DeltaTMeasurement>, SpiceError> {
    let t0 = Instant::now();
    let mut measure_s = 0.0;
    let n = p.dies.len();
    let out = match p.engine {
        McEngine::Batched { lanes } => {
            let order = cohort_order(&p.dies);
            let cache = Arc::new(SymbolicCache::new());
            let build = |enabled: bool| -> Vec<RingOscillator> {
                order
                    .iter()
                    .map(|&i| {
                        let (en, by) = p.bench.ro_configs(p.vdd, &p.faults[i], &[0]);
                        let cfg = if enabled { en } else { by };
                        let mut ro = RingOscillator::build(&cfg, &mut p.dies[i].variation());
                        ro.set_symbolic_cache(Arc::clone(&cache));
                        ro
                    })
                    .collect()
            };
            let ros1 = build(true);
            let refs1: Vec<&RingOscillator> = ros1.iter().collect();
            let run1 = timed(&mut measure_s, || {
                RingOscillator::measure_queue_with_stats(&refs1, lanes, &p.opts)
            })?;
            let ros2 = build(false);
            let refs2: Vec<&RingOscillator> = ros2.iter().collect();
            let run2 = timed(&mut measure_s, || {
                RingOscillator::measure_queue_with_stats(&refs2, lanes, &p.opts)
            })?;
            let mut out: Vec<Option<DeltaTMeasurement>> = vec![None; n];
            for ((&i, (t1, s1)), (t2, s2)) in order.iter().zip(run1).zip(run2) {
                let mut stats = s1;
                stats.merge(&s2);
                out[i] = Some(DeltaTMeasurement { t1, t2, stats });
            }
            out.into_iter()
                .map(|m| m.expect("every die measured exactly once"))
                .collect()
        }
        McEngine::Scalar => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (en, by) = p.bench.ro_configs(p.vdd, &p.faults[i], &[0]);
                let cache = Arc::new(SymbolicCache::new());
                let mut ro1 = RingOscillator::build(&en, &mut p.dies[i].variation());
                ro1.set_symbolic_cache(Arc::clone(&cache));
                let (t1, mut stats) = timed(&mut measure_s, || ro1.measure_with_stats(&p.opts))?;
                let mut ro2 = RingOscillator::build(&by, &mut p.dies[i].variation());
                ro2.set_symbolic_cache(cache);
                let (t2, s2) = timed(&mut measure_s, || ro2.measure_with_stats(&p.opts))?;
                stats.merge(&s2);
                out.push(DeltaTMeasurement { t1, t2, stats });
            }
            out
        }
        other => panic!("the library workloads never resolve {other:?}"),
    };
    layers.population_s += t0.elapsed().as_secs_f64();
    layers.measure_s += measure_s;
    layers.calls += 1;
    for m in &out {
        layers.stats.merge(&m.stats);
    }
    Ok(out)
}

/// The check points a call's replayed measurements fold into — the same
/// folding the untraced call applies, so the two compare bit for bit.
pub fn replay_points(call: &Call, per_unit: &[Vec<DeltaTMeasurement>]) -> Vec<Point> {
    call.units
        .iter()
        .zip(per_unit)
        .map(|(p, ms)| Point::of_measurements(&p.label, ms))
        .collect()
}
