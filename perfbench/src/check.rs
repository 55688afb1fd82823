//! Output checks: population summaries compared against references
//! recorded in `references/<workload>.json`, with GOLDEN.json's
//! tolerance bands.

use std::path::Path;

use rotsv::num::stats::Summary;
use rotsv::DeltaTMeasurement;
use rotsv_obs::Json;

/// Relative tolerance on mean, min and max (GOLDEN.json's mean/quantile
/// band).
const TOL_LOCATION: f64 = 0.002;
/// Relative tolerance on the standard deviation.
const TOL_SPREAD: f64 = 0.02;
/// Absolute floor under every band, seconds (GOLDEN.json's `abs_floor`).
const ABS_FLOOR: f64 = 1e-16;

/// The checked summary of one population (or one single-die point):
/// oscillating and non-oscillating counts must match exactly, the ΔT
/// statistics within the tolerance bands.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub name: String,
    /// Dies with a ΔT.
    pub n: usize,
    /// Dies without one (stuck, or a failed reference run).
    pub stuck: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Point {
    pub fn of_summary(name: &str, s: &Summary, total: usize) -> Self {
        Self {
            name: name.into(),
            n: s.n,
            stuck: total - s.n,
            mean: s.mean,
            std_dev: s.std_dev,
            min: s.min,
            max: s.max,
        }
    }

    pub fn all_stuck(name: &str, stuck: usize) -> Self {
        Self {
            name: name.into(),
            n: 0,
            stuck,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Folds ΔT values (in sample order) the way the figure experiments
    /// do, with `stuck` dies that produced none.
    pub fn of_deltas(name: &str, deltas: &[f64], stuck: usize) -> Self {
        if deltas.is_empty() {
            Self::all_stuck(name, stuck)
        } else {
            Self::of_summary(name, &Summary::of(deltas), deltas.len() + stuck)
        }
    }

    pub fn of_measurements(name: &str, ms: &[DeltaTMeasurement]) -> Self {
        let deltas: Vec<f64> = ms.iter().filter_map(DeltaTMeasurement::delta).collect();
        Self::of_deltas(name, &deltas, ms.len() - deltas.len())
    }

    pub fn dies(&self) -> usize {
        self.n + self.stuck
    }

    /// `true` when every field is bit-identical to `other`'s.
    pub fn bits_eq(&self, other: &Point) -> bool {
        self.name == other.name
            && self.n == other.n
            && self.stuck == other.stuck
            && [
                (self.mean, other.mean),
                (self.std_dev, other.std_dev),
                (self.min, other.min),
                (self.max, other.max),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Describes how `self` departs from `reference`, or `None` when it
    /// is within the bands.
    pub fn mismatch(&self, reference: &Point) -> Option<String> {
        if self.name != reference.name {
            return Some(format!(
                "point {} where {} was expected",
                self.name, reference.name
            ));
        }
        if (self.n, self.stuck) != (reference.n, reference.stuck) {
            return Some(format!(
                "{}: {} oscillating / {} stuck, reference {} / {}",
                self.name, self.n, self.stuck, reference.n, reference.stuck
            ));
        }
        for (what, now, then, tol) in [
            ("mean", self.mean, reference.mean, TOL_LOCATION),
            ("min", self.min, reference.min, TOL_LOCATION),
            ("max", self.max, reference.max, TOL_LOCATION),
            ("std_dev", self.std_dev, reference.std_dev, TOL_SPREAD),
        ] {
            if (now - then).abs() > tol * then.abs().max(ABS_FLOOR) {
                return Some(format!(
                    "{}: {what} {now:.6e} vs reference {then:.6e}",
                    self.name
                ));
            }
        }
        None
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("n".into(), Json::Num(self.n as f64)),
            ("stuck".into(), Json::Num(self.stuck as f64)),
            ("mean".into(), Json::Num(self.mean)),
            ("std_dev".into(), Json::Num(self.std_dev)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Self {
            name: j.get("name")?.as_str()?.to_owned(),
            n: num("n")? as usize,
            stuck: num("stuck")? as usize,
            mean: num("mean")?,
            std_dev: num("std_dev")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

/// `true` when `got` lies within the location band of `want`.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL_LOCATION * want.abs().max(ABS_FLOOR)
}

/// `true` when `got` lies in `[min, max]` widened by the location band.
pub fn within(got: f64, min: f64, max: f64) -> bool {
    close(got, min) || close(got, max) || (min..=max).contains(&got)
}

/// The recorded reference points of `workload` at `seed`, if any.
pub fn load_reference(dir: &Path, workload: &str, seed: u64) -> Result<Option<Vec<Point>>, String> {
    let path = dir.join(format!("{workload}.json"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    let doc = rotsv_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(points) = doc.get("seeds").and_then(|s| s.get(&seed.to_string())) else {
        return Ok(None);
    };
    points
        .as_arr()
        .ok_or_else(|| format!("{}: seed {seed} is not a list", path.display()))?
        .iter()
        .map(|p| Point::from_json(p).ok_or_else(|| format!("{}: malformed point", path.display())))
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Adds (or replaces) the reference points of `workload` at `seed`.
pub fn record_reference(
    dir: &Path,
    workload: &str,
    seed: u64,
    points: &[Point],
) -> Result<(), String> {
    let path = dir.join(format!("{workload}.json"));
    let mut seeds: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(text) => match rotsv_obs::json::parse(&text)
            .map_err(|e| e.to_string())?
            .get("seeds")
        {
            Some(Json::Obj(members)) => members.clone(),
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let key = seed.to_string();
    seeds.retain(|(k, _)| *k != key);
    seeds.push((key, Json::Arr(points.iter().map(Point::to_json).collect())));
    seeds.sort_by_key(|(k, _)| k.parse::<u64>().unwrap_or(u64::MAX));
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seeds".into(), Json::Obj(seeds)),
    ]);
    std::fs::write(&path, doc.render_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
