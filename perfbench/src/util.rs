//! Small measurement helpers: percentiles, the host probe, peak memory
//! and the host fingerprint.

use std::hint::black_box;
use std::time::Instant;

use rotsv_obs::Json;

/// Linear-interpolated percentile (`q` in 0..=1) of `values`; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A fixed CPU loop unrelated to rotsv, timed: it shows how fast the
/// host ran beside a measurement. It is reported, never used to rescale
/// a metric.
pub fn host_probe() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16 + i as f64 * 1e-18;
    }
    black_box((x, acc));
    t0.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPU model, `nproc`, the SIMD dispatch level and the auto-engine
/// tuning in force — the hidden inputs every result depends on.
pub fn fingerprint() -> Vec<(String, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let table = rotsv::mc::auto_lane_table()
        .iter()
        .map(|&(floor, lanes)| Json::Arr(vec![Json::Num(floor as f64), Json::Num(lanes as f64)]))
        .collect();
    vec![
        ("cpu".into(), Json::Str(cpu)),
        ("nproc".into(), Json::Num(nproc as f64)),
        (
            "simd".into(),
            Json::Str(rotsv::num::simd::level().name().into()),
        ),
        (
            "auto_crossover".into(),
            Json::Num(rotsv::mc::auto_crossover() as f64),
        ),
        ("auto_lane_table".into(), Json::Arr(table)),
    ]
}

/// One metric as the result line carries it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Prints the human-readable table and, as the last line, the result
/// object.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<28} {:>16} ratio",
        "failed_ratio",
        format!("{failed_ratio:.6}")
    );
    for m in metrics {
        println!(
            "{:<28} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    let members = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ]);
    println!("{}", result.render());
}
