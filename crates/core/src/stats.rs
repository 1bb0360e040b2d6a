//! Planner observability: counters and timings collected while MadPipe
//! plans, exposed to the CLI (`--stats`, `--stats-json`,
//! `--metrics-out`) and the bench CSV writers.
//!
//! A plan's instrumentation is kept once, as plain fields:
//!
//! * [`DpStats`] — the counters of the plan's DP session
//!   ([`crate::dp::ProbeSession`]), added to as each solve is absorbed:
//!   how many DP solves ran, how many of them ran under a cap from the
//!   session's held allocations, and the memoization/prune behaviour
//!   inside them;
//! * [`PlannerStats`] — the end-to-end picture: those counters, the probe
//!   timeline (every target period evaluated, tagged with the planner
//!   stage that asked for it), phase wall-clock times, phase-2
//!   scheduling and placement counts and certification verdicts.
//!   [`PlannerStats::metrics`] renders them as a metrics snapshot only
//!   when one is exported (the Prometheus dump, [`PlannerStats::to_json`]).

use madpipe_json::Value;
use madpipe_obs::{HistogramSnapshot, MetricsSnapshot};
use madpipe_solver::PlaceStats;

/// Aggregate counters of one [`crate::dp::ProbeSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DpStats {
    /// DP solves, one per probe (memo built from scratch).
    pub solves: usize,
    /// Solves run under a finite cap from the allocations the session
    /// already held.
    pub capped: usize,
    /// Capped solves whose root exceeded the cap and were re-solved
    /// uncapped. The cap is a proven bound, so this stays 0 unless the
    /// solver has a bug.
    pub cap_misses: usize,
    /// Distinct memoized states created across all solves.
    pub states_created: u64,
    /// Intra-solve memo lookups that hit an existing state.
    pub memo_hits: u64,
    /// Times the exact load prune (`u ≥ best`) cut a stage scan short.
    pub load_prunes: u64,
    /// Times the monotone memory-overflow break cut a stage scan short.
    pub memory_prunes: u64,
    /// Candidate recursions skipped because the 1F1B* subtree lower
    /// bound already met the incumbent (branch-and-bound, exact).
    pub branch_prunes: u64,
    /// Child states skipped because the special GPU could not hold what
    /// the normal GPUs cannot take of their remaining layers (the memory
    /// floor, exact).
    pub memory_floor_prunes: u64,
}

/// Which planner stage requested a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSource {
    /// Algorithm 1's bisection over `T̂`.
    Bisection,
    /// The memory-aware contiguous ablation (special processor off).
    ContiguousFallback,
    /// The post-bisection refinement grid.
    Refinement,
}

impl std::fmt::Display for ProbeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeSource::Bisection => write!(f, "bisection"),
            ProbeSource::ContiguousFallback => write!(f, "contiguous"),
            ProbeSource::Refinement => write!(f, "refinement"),
        }
    }
}

/// One entry of the probe timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// Stage that asked for this probe.
    pub source: ProbeSource,
    /// Target period `T̂`.
    pub t_hat: f64,
    /// Whether the special processor was enabled.
    pub use_special: bool,
    /// Raw DP period (infinite when infeasible).
    pub period: f64,
    /// Memoized states of the probe's solve.
    pub states: usize,
    /// The cap the solve ran under (`None` when uncapped).
    pub cap: Option<f64>,
    /// Wall-clock seconds of the solve.
    pub seconds: f64,
}

/// End-to-end planner instrumentation for one [`crate::madpipe_plan`]
/// run, also available on failure (the counters explain *why* planning
/// failed, e.g. every probe infeasible).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlannerStats {
    /// Aggregate DP counters of the shared probe session.
    pub dp: DpStats,
    /// Every probe in evaluation order (parallel batches keep their
    /// submission order, so the timeline is deterministic).
    pub probes: Vec<ProbeRecord>,
    /// Distinct allocations handed to phase 2.
    pub schedules_attempted: usize,
    /// Of those, how many produced a valid schedule.
    pub schedules_solved: usize,
    /// Of those, how many stopped early because their period could not
    /// beat the incumbent (neither solved nor failed).
    pub schedules_cut: usize,
    /// Placement work of phase 2 over every candidate, failed ones
    /// included: `schedule_at_period` calls, calls that used up the node
    /// budget without a pattern, calls the memory floor answered, DFS
    /// nodes and leaves, and leaves the leaf floor answered.
    pub place: PlaceStats,
    /// Wall time of the phase-1 bisection (including its DP solves).
    pub phase1_seconds: f64,
    /// Wall time of the contiguous-fallback bisection.
    pub fallback_seconds: f64,
    /// Wall time of the refinement-grid probes.
    pub refine_seconds: f64,
    /// Wall time of phase-2 scheduling (all candidate allocations).
    pub schedule_seconds: f64,
    /// Wall time of differential certification, folded in by
    /// [`crate::certify::Certificate::record`] (0 when no plan was
    /// certified).
    pub certify_seconds: f64,
    /// Total wall time: the plan call plus any certification recorded
    /// afterwards, so the phase times always sum to at most this.
    pub total_seconds: f64,
    /// Worker threads used for independent probes and scheduling.
    pub threads: usize,
    /// Plans that passed differential certification
    /// ([`crate::certify::Certificate::record`]).
    pub certifications_passed: usize,
    /// Plans that failed it.
    pub certifications_failed: usize,
}

impl PlannerStats {
    /// One-line summary suitable for CLI output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "probes {} ({} solved, {} capped, {} cap misses), states {}, \
             schedules {}/{} ({} cut), place {} calls ({} exhausted, {} floored, {} nodes, \
             {} leaves, {} leaves floored, {} dead ends), {:.3}s total ({} thread{})",
            self.probes.len(),
            self.dp.solves,
            self.dp.capped,
            self.dp.cap_misses,
            self.dp.states_created,
            self.schedules_solved,
            self.schedules_attempted,
            self.schedules_cut,
            self.place.calls,
            self.place.exhausted,
            self.place.floored,
            self.place.nodes,
            self.place.leaves,
            self.place.leaves_floored,
            self.place.dead_ends,
            self.total_seconds,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        );
        let certs = self.certifications_passed + self.certifications_failed;
        if certs > 0 {
            s.push_str(&format!(", certify {}/{certs}", self.certifications_passed));
        }
        s
    }

    /// The fields as a metrics snapshot (`--metrics-out`, and `metrics`
    /// in [`PlannerStats::to_json`]), every series sorted by name:
    ///
    /// * counters: each non-zero count above, `planner.probes.<source>`
    ///   per probe source, and `dp.capped`, `dp.cap_misses` and
    ///   `dp.memory_floor_prunes` even at zero (a cap miss is a solver
    ///   bug, so its absence reads as a visible 0; the memory floor is
    ///   always on);
    /// * gauges: the phase clocks and the total, plus
    ///   `plan.certify.seconds` once a certification was recorded;
    /// * histograms: per-solve wall time (`dp.solve.seconds`) and
    ///   memoized states (`dp.solve.states`) over the probe timeline,
    ///   when any solve ran.
    pub fn metrics(&self) -> MetricsSnapshot {
        fn sorted<T>(mut series: Vec<(&str, T)>) -> Vec<(String, T)> {
            series.sort_by_key(|&(name, _)| name);
            series
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect()
        }
        let (dp, place) = (&self.dp, &self.place);
        let probes = |source| self.probes.iter().filter(|p| p.source == source).count();
        let mut counters: Vec<(&str, u64)> = [
            ("dp.solves", dp.solves as u64),
            ("dp.states_created", dp.states_created),
            ("dp.memo_hits", dp.memo_hits),
            ("dp.load_prunes", dp.load_prunes),
            ("dp.memory_prunes", dp.memory_prunes),
            ("dp.branch_prunes", dp.branch_prunes),
            (
                "planner.schedules_attempted",
                self.schedules_attempted as u64,
            ),
            ("planner.schedules_solved", self.schedules_solved as u64),
            ("planner.schedules.cut", self.schedules_cut as u64),
            ("planner.place.calls", place.calls),
            ("planner.place.exhausted", place.exhausted),
            ("planner.place.floored", place.floored),
            ("planner.place.nodes", place.nodes),
            ("planner.place.leaves", place.leaves),
            ("planner.place.leaves_floored", place.leaves_floored),
            ("planner.place.dead_ends", place.dead_ends),
            (
                "planner.probes.bisection",
                probes(ProbeSource::Bisection) as u64,
            ),
            (
                "planner.probes.contiguous",
                probes(ProbeSource::ContiguousFallback) as u64,
            ),
            (
                "planner.probes.refinement",
                probes(ProbeSource::Refinement) as u64,
            ),
            (
                "planner.certifications_passed",
                self.certifications_passed as u64,
            ),
            (
                "planner.certifications_failed",
                self.certifications_failed as u64,
            ),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
        counters.extend([
            ("dp.capped", dp.capped as u64),
            ("dp.cap_misses", dp.cap_misses as u64),
            ("dp.memory_floor_prunes", dp.memory_floor_prunes),
        ]);
        let mut gauges = vec![
            ("plan.phase1.seconds", self.phase1_seconds),
            ("plan.fallback.seconds", self.fallback_seconds),
            ("plan.refine.seconds", self.refine_seconds),
            ("plan.schedule.seconds", self.schedule_seconds),
            ("plan.total.seconds", self.total_seconds),
        ];
        if self.certifications_passed + self.certifications_failed > 0 {
            gauges.push(("plan.certify.seconds", self.certify_seconds));
        }
        let mut histograms = Vec::new();
        if !self.probes.is_empty() {
            let seconds = self.probes.iter().map(|p| p.seconds);
            let states = self.probes.iter().map(|p| p.states as f64);
            histograms.push(("dp.solve.seconds", HistogramSnapshot::of(seconds)));
            histograms.push(("dp.solve.states", HistogramSnapshot::of(states)));
        }
        MetricsSnapshot {
            counters: sorted(counters),
            gauges: sorted(gauges),
            histograms: sorted(histograms),
        }
    }

    /// Sum of the per-phase wall clocks (each phase is timed inside the
    /// total clock, so this never exceeds [`total_seconds`]).
    ///
    /// [`total_seconds`]: PlannerStats::total_seconds
    pub fn phase_seconds_sum(&self) -> f64 {
        self.phase1_seconds
            + self.fallback_seconds
            + self.refine_seconds
            + self.schedule_seconds
            + self.certify_seconds
    }

    /// Machine-readable export: every field, the probe timeline and
    /// [`PlannerStats::metrics`] (the `--stats-json` payload).
    pub fn to_json(&self) -> Value {
        let probe = |p: &ProbeRecord| {
            Value::Object(vec![
                ("source".into(), Value::Str(p.source.to_string())),
                ("t_hat".into(), Value::Float(p.t_hat)),
                ("use_special".into(), Value::Bool(p.use_special)),
                (
                    "period".into(),
                    if p.period.is_finite() {
                        Value::Float(p.period)
                    } else {
                        Value::Null
                    },
                ),
                ("states".into(), Value::UInt(p.states as u64)),
                ("cap".into(), p.cap.map_or(Value::Null, Value::Float)),
                ("seconds".into(), Value::Float(p.seconds)),
            ])
        };
        Value::Object(vec![
            (
                "dp".into(),
                Value::Object(vec![
                    ("solves".into(), Value::UInt(self.dp.solves as u64)),
                    ("capped".into(), Value::UInt(self.dp.capped as u64)),
                    ("cap_misses".into(), Value::UInt(self.dp.cap_misses as u64)),
                    ("states_created".into(), Value::UInt(self.dp.states_created)),
                    ("memo_hits".into(), Value::UInt(self.dp.memo_hits)),
                    ("load_prunes".into(), Value::UInt(self.dp.load_prunes)),
                    ("memory_prunes".into(), Value::UInt(self.dp.memory_prunes)),
                    ("branch_prunes".into(), Value::UInt(self.dp.branch_prunes)),
                    (
                        "memory_floor_prunes".into(),
                        Value::UInt(self.dp.memory_floor_prunes),
                    ),
                ]),
            ),
            (
                "probes".into(),
                Value::Array(self.probes.iter().map(probe).collect()),
            ),
            (
                "schedules_attempted".into(),
                Value::UInt(self.schedules_attempted as u64),
            ),
            (
                "schedules_solved".into(),
                Value::UInt(self.schedules_solved as u64),
            ),
            (
                "schedules_cut".into(),
                Value::UInt(self.schedules_cut as u64),
            ),
            (
                "place".into(),
                Value::Object(vec![
                    ("calls".into(), Value::UInt(self.place.calls)),
                    ("exhausted".into(), Value::UInt(self.place.exhausted)),
                    ("floored".into(), Value::UInt(self.place.floored)),
                    ("nodes".into(), Value::UInt(self.place.nodes)),
                    ("leaves".into(), Value::UInt(self.place.leaves)),
                    (
                        "leaves_floored".into(),
                        Value::UInt(self.place.leaves_floored),
                    ),
                    ("dead_ends".into(), Value::UInt(self.place.dead_ends)),
                ]),
            ),
            (
                "phase_seconds".into(),
                Value::Object(vec![
                    ("phase1".into(), Value::Float(self.phase1_seconds)),
                    ("fallback".into(), Value::Float(self.fallback_seconds)),
                    ("refine".into(), Value::Float(self.refine_seconds)),
                    ("schedule".into(), Value::Float(self.schedule_seconds)),
                    ("certify".into(), Value::Float(self.certify_seconds)),
                    ("total".into(), Value::Float(self.total_seconds)),
                ]),
            ),
            ("threads".into(), Value::UInt(self.threads as u64)),
            (
                "certifications_passed".into(),
                Value::UInt(self.certifications_passed as u64),
            ),
            (
                "certifications_failed".into(),
                Value::UInt(self.certifications_failed as u64),
            ),
            ("metrics".into(), self.metrics().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_the_key_counters() {
        let stats = PlannerStats {
            threads: 4,
            schedules_attempted: 5,
            schedules_solved: 3,
            schedules_cut: 1,
            dp: DpStats {
                solves: 28,
                capped: 23,
                ..DpStats::default()
            },
            ..PlannerStats::default()
        };
        let s = stats.summary();
        assert!(s.contains("schedules 3/5 (1 cut)"));
        assert!(s.contains("4 threads"));
        assert!(s.contains("(28 solved, 23 capped, 0 cap misses)"));
        let dp = stats.to_json().field("dp").unwrap().clone();
        assert_eq!(dp.field("capped").unwrap().as_u64().unwrap(), 23);
        assert_eq!(dp.field("cap_misses").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn summary_and_json_carry_the_placement_counters() {
        let stats = PlannerStats {
            place: PlaceStats {
                calls: 21,
                exhausted: 8,
                floored: 3,
                nodes: 30_123,
                leaves: 17_000,
                leaves_floored: 16_500,
                dead_ends: 9_000,
            },
            schedules_cut: 2,
            ..PlannerStats::default()
        };
        assert!(stats.summary().contains(
            "place 21 calls (8 exhausted, 3 floored, 30123 nodes, 17000 leaves, \
                 16500 leaves floored, 9000 dead ends)"
        ));
        let json = stats.to_json();
        assert_eq!(json.field("schedules_cut").unwrap().as_u64().unwrap(), 2);
        let place = json.field("place").unwrap();
        assert_eq!(place.field("calls").unwrap().as_u64().unwrap(), 21);
        assert_eq!(place.field("exhausted").unwrap().as_u64().unwrap(), 8);
        assert_eq!(place.field("floored").unwrap().as_u64().unwrap(), 3);
        assert_eq!(place.field("nodes").unwrap().as_u64().unwrap(), 30_123);
        assert_eq!(place.field("leaves").unwrap().as_u64().unwrap(), 17_000);
        assert_eq!(
            place.field("leaves_floored").unwrap().as_u64().unwrap(),
            16_500
        );
        assert_eq!(place.field("dead_ends").unwrap().as_u64().unwrap(), 9_000);
    }

    #[test]
    fn metrics_render_the_fields_under_the_export_rules() {
        let probe = |source, states, seconds| ProbeRecord {
            source,
            t_hat: 1.0,
            use_special: true,
            period: 1.0,
            states,
            cap: None,
            seconds,
        };
        let mut stats = PlannerStats {
            dp: DpStats {
                solves: 2,
                states_created: 12,
                ..DpStats::default()
            },
            probes: vec![
                probe(ProbeSource::Bisection, 4, 0.5),
                probe(ProbeSource::Refinement, 8, 0.25),
            ],
            total_seconds: 1.5,
            ..PlannerStats::default()
        };
        fn names<T>(series: &[(String, T)]) -> Vec<&str> {
            series.iter().map(|(name, _)| name.as_str()).collect()
        }
        let m = stats.metrics();
        // The cap and floor counters read 0 rather than go missing; every
        // other zero is absent, and every series is sorted by name.
        assert_eq!(
            m.counters,
            [
                ("dp.cap_misses", 0),
                ("dp.capped", 0),
                ("dp.memory_floor_prunes", 0),
                ("dp.solves", 2),
                ("dp.states_created", 12),
                ("planner.probes.bisection", 1),
                ("planner.probes.refinement", 1),
            ]
            .map(|(name, n)| (name.to_string(), n))
        );
        assert_eq!(
            names(&m.gauges),
            [
                "plan.fallback.seconds",
                "plan.phase1.seconds",
                "plan.refine.seconds",
                "plan.schedule.seconds",
                "plan.total.seconds",
            ]
        );
        assert_eq!(m.gauges[4].1, 1.5);
        assert_eq!(
            names(&m.histograms),
            ["dp.solve.seconds", "dp.solve.states"]
        );
        assert_eq!(m.histograms[0].1, HistogramSnapshot::of([0.5, 0.25]));
        assert_eq!(m.histograms[1].1, HistogramSnapshot::of([4.0, 8.0]));

        // A recorded certification adds its verdict and its clock.
        stats.certifications_failed = 1;
        stats.certify_seconds = 0.125;
        let m = stats.metrics();
        assert_eq!(m.counter("planner.certifications_failed"), 1);
        assert_eq!(m.gauges[0], ("plan.certify.seconds".to_string(), 0.125));

        // No solve, no histogram.
        assert!(PlannerStats::default().metrics().histograms.is_empty());
    }

    #[test]
    fn json_export_round_trips_and_encodes_infinity_as_null() {
        let stats = PlannerStats {
            probes: vec![
                ProbeRecord {
                    source: ProbeSource::Bisection,
                    t_hat: 0.5,
                    use_special: true,
                    period: 0.75,
                    states: 12,
                    cap: Some(0.8),
                    seconds: 0.01,
                },
                ProbeRecord {
                    source: ProbeSource::Refinement,
                    t_hat: 0.1,
                    use_special: true,
                    period: f64::INFINITY,
                    states: 40,
                    cap: None,
                    seconds: 0.002,
                },
            ],
            schedules_attempted: 2,
            schedules_solved: 1,
            total_seconds: 1.5,
            threads: 2,
            ..PlannerStats::default()
        };
        let v = stats.to_json();
        let text = v.to_string_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        let probes = back.field("probes").unwrap().as_array().unwrap();
        assert_eq!(probes[0].field("period").unwrap().as_f64().unwrap(), 0.75);
        assert_eq!(probes[1].field("period").unwrap(), &Value::Null);
        assert_eq!(probes[0].field("cap").unwrap().as_f64().unwrap(), 0.8);
        assert_eq!(probes[1].field("cap").unwrap(), &Value::Null);
        assert_eq!(
            back.field("phase_seconds")
                .unwrap()
                .field("total")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.5
        );
    }
}
