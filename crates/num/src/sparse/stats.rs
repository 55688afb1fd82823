//! Work counters threaded from the linear solver up to the harness.

/// Counters describing the numerical work of a simulation.
///
/// Produced by the linear solver and the Newton/transient loops in
/// `rotsv-spice`, aggregated per measurement and per Monte-Carlo
/// population in `rotsv`, and printed by the `experiments` binary.
///
/// Equality is not derived: `wall_seconds` varies run to run, so
/// containers holding stats implement equality over their data only.
///
/// # Examples
///
/// ```
/// use rotsv_num::sparse::SolverStats;
///
/// let mut total = SolverStats::default();
/// let step = SolverStats {
///     factorizations: 1,
///     solves: 3,
///     newton_iterations: 3,
///     steps_accepted: 1,
///     ..SolverStats::default()
/// };
/// total.merge(&step);
/// total.merge(&step);
/// assert_eq!(total.solves, 6);
/// assert!(total.summary().contains("newton 6"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Full symbolic + pivot analyses (one per topology, plus pivot-drift
    /// fallbacks).
    pub symbolic_analyses: u64,
    /// Numeric factorizations, including the fast refactorizations.
    pub factorizations: u64,
    /// Triangular solves.
    pub solves: u64,
    /// Newton iterations across all analyses.
    pub newton_iterations: u64,
    /// Accepted integration steps.
    pub steps_accepted: u64,
    /// Rejected integration steps (local-truncation-error control or
    /// Newton failure).
    pub steps_rejected: u64,
    /// Wall-clock time spent inside analyses, seconds. For a die run on
    /// the lane engine (`rotsv_spice::transient_stream`) this is the
    /// die's share of its session: its lane-resident time (seat to
    /// retire) divided by the lane count K, so the dies of one session
    /// sum to no more than the session's wall clock.
    pub wall_seconds: f64,
}

impl SolverStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SolverStats) {
        self.symbolic_analyses += other.symbolic_analyses;
        self.factorizations += other.factorizations;
        self.solves += other.solves;
        self.newton_iterations += other.newton_iterations;
        self.steps_accepted += other.steps_accepted;
        self.steps_rejected += other.steps_rejected;
        self.wall_seconds += other.wall_seconds;
    }

    /// Renders the counters as a JSON object (for run manifests and
    /// `--json` experiment output).
    pub fn to_json(&self) -> rotsv_obs::Json {
        use rotsv_obs::Json;
        Json::Obj(vec![
            (
                "symbolic_analyses".into(),
                Json::Num(self.symbolic_analyses as f64),
            ),
            (
                "factorizations".into(),
                Json::Num(self.factorizations as f64),
            ),
            ("solves".into(), Json::Num(self.solves as f64)),
            (
                "newton_iterations".into(),
                Json::Num(self.newton_iterations as f64),
            ),
            (
                "steps_accepted".into(),
                Json::Num(self.steps_accepted as f64),
            ),
            (
                "steps_rejected".into(),
                Json::Num(self.steps_rejected as f64),
            ),
            ("wall_seconds".into(), Json::num_or_null(self.wall_seconds)),
        ])
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "steps {}+{}r, newton {}, factor {} ({} analyses), solves {}, wall {:.3} s",
            self.steps_accepted,
            self.steps_rejected,
            self.newton_iterations,
            self.factorizations,
            self.symbolic_analyses,
            self.solves,
            self.wall_seconds,
        )
    }
}
