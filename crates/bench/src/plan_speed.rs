//! Plan-speed benchmark: MadPipe planning time over the fig6 grid,
//! serialized to JSON and gated against a committed reference — the data
//! path behind CI's `bench-plan-speed` job.
//!
//! Two properties gate, with very different tolerances:
//!
//! * **Periods gate bit-for-bit.** The planner is deterministic, so the
//!   achieved period of every cell is stored as raw IEEE-754 bits and
//!   compared exactly. Any drift — even 1 ulp — means the solver changed
//!   behaviour, not just speed, and the baseline must be refreshed
//!   deliberately.
//! * **Times gate loosely.** What is measured is the *DP portion* of
//!   planning (phase 1 bisection + contiguous fallback + refinement).
//!   Phase-2 scheduling has no time gate yet (ROADMAP item 6): its
//!   median is recorded and reported, not gated, and the period bits
//!   above are its exactness gate. Its node counts are not:
//!   they fall by design whenever phase 2 learns to skip a search whose
//!   result cannot change the plan. Wall time
//!   is hostage to the CI runner, so the gate only fails beyond a
//!   multiple of the baseline (default 1.25×), and the per-cell number
//!   is a median over repeats.
//!
//! Each record also carries the DP states its cell's plan creates
//! (`dp_states`): a count that repeats exactly on any host, so a change
//! to the DP's work shows without a clock. It is reported, not gated.

use std::io;
use std::path::Path;
use std::time::Instant;

use madpipe_core::{madpipe_plan_with_stats, PlannerConfig};
use madpipe_json::{JsonError, Value};
use madpipe_model::Platform;

use crate::grid::{paper_chains, GridConfig};

/// Format version of `BENCH_plan_speed.json`.
pub const PLAN_SPEED_VERSION: u64 = 1;

/// One cell's plan-speed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpeedRecord {
    pub network: String,
    pub p: usize,
    pub m_gb: u64,
    pub beta_gb: f64,
    /// Median DP seconds across repeats: `phase1 + fallback + refine`
    /// from the planner's phase clocks.
    pub dp_seconds: f64,
    /// Median end-to-end planning seconds across repeats (includes the
    /// phase-2 scheduler; informational, not gated).
    pub total_seconds: f64,
    /// Median phase-2 scheduling seconds across repeats, from the
    /// planner's `schedule` phase clock (informational, not gated).
    /// `None` in a document written before it was recorded.
    pub schedule_seconds: Option<f64>,
    /// DP states the cell's plan creates (`dp.states_created`), a count
    /// that repeats exactly on any host (informational, not gated).
    /// `None` in a document written before it was recorded.
    pub dp_states: Option<u64>,
    /// Raw IEEE-754 bits of the achieved period (`None` = infeasible).
    /// Stored as bits, not a float, so the JSON round trip and the gate
    /// are exact by construction.
    pub period_bits: Option<u64>,
}

impl PlanSpeedRecord {
    /// Identity of the cell this record measures.
    pub fn key(&self) -> (String, usize, u64, u64) {
        (
            self.network.clone(),
            self.p,
            self.m_gb,
            self.beta_gb.to_bits(),
        )
    }

    /// The achieved period as a float (for display only).
    pub fn period(&self) -> Option<f64> {
        self.period_bits.map(f64::from_bits)
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("network".into(), Value::Str(self.network.clone())),
            ("p".into(), Value::UInt(self.p as u64)),
            ("m_gb".into(), Value::UInt(self.m_gb)),
            ("beta_gb".into(), Value::Float(self.beta_gb)),
            ("dp_seconds".into(), Value::Float(self.dp_seconds)),
            ("total_seconds".into(), Value::Float(self.total_seconds)),
            (
                "schedule_seconds".into(),
                self.schedule_seconds.map_or(Value::Null, Value::Float),
            ),
            (
                "dp_states".into(),
                self.dp_states.map_or(Value::Null, Value::UInt),
            ),
            (
                "period_bits".into(),
                match self.period_bits {
                    Some(b) => Value::UInt(b),
                    None => Value::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            network: v.field("network")?.as_str()?.to_string(),
            p: v.field("p")?.as_u64()? as usize,
            m_gb: v.field("m_gb")?.as_u64()?,
            beta_gb: v.field("beta_gb")?.as_f64()?,
            dp_seconds: v.field("dp_seconds")?.as_f64()?,
            total_seconds: v.field("total_seconds")?.as_f64()?,
            schedule_seconds: match v.get("schedule_seconds") {
                None | Some(Value::Null) => None,
                Some(s) => Some(s.as_f64()?),
            },
            dp_states: match v.get("dp_states") {
                None | Some(Value::Null) => None,
                Some(n) => Some(n.as_u64()?),
            },
            period_bits: match v.get("period_bits") {
                None | Some(Value::Null) => None,
                Some(b) => Some(b.as_u64()?),
            },
        })
    }
}

/// The measured grid: ResNet-50 over the quick-grid pattern
/// (`P ∈ {2, 4, 8}`, `M ∈ {3, 4, 6, 8, 10, 12, 16}` GB,
/// `β ∈ {12, 24}` GB/s) — 42 cells, the single-network slice of the
/// fig6 sweep. One network keeps the job a couple of minutes while
/// still crossing every memory regime the DP cares about.
pub fn plan_speed_grid() -> GridConfig {
    GridConfig {
        networks: vec!["resnet50".into()],
        ..GridConfig::quick()
    }
}

/// Run the plan-speed grid: every cell planned `repeats` times, each a
/// cold plan: a fresh session from which no value carries over, though
/// the DP's buffers are warm, left by the thread's previous plan.
/// Medians recorded. Panics if repeats is 0 or a cell's
/// period or DP state count is not identical across its own repeats
/// (that would mean the planner went non-deterministic, which no
/// baseline can gate).
pub fn run_plan_speed(
    cfg: &GridConfig,
    planner: &PlannerConfig,
    repeats: usize,
) -> Vec<PlanSpeedRecord> {
    assert!(repeats > 0, "plan-speed needs at least one repeat");
    let chains = paper_chains(cfg);
    let mut out = Vec::new();
    for (chain, network) in chains.iter().zip(&cfg.networks) {
        for cell in cfg.cells().iter().filter(|c| &c.network == network) {
            let platform =
                Platform::gb(cell.p, cell.m_gb, cell.beta_gb).expect("valid grid platform");
            let mut dp_times = Vec::with_capacity(repeats);
            let mut totals = Vec::with_capacity(repeats);
            let mut schedule_times = Vec::with_capacity(repeats);
            let mut bits: Option<(Option<u64>, u64)> = None;
            for _ in 0..repeats {
                let wall = Instant::now();
                let (plan, stats) = madpipe_plan_with_stats(chain, &platform, planner);
                let total = wall.elapsed().as_secs_f64();
                let dp = stats.phase1_seconds + stats.fallback_seconds + stats.refine_seconds;
                let these = (
                    plan.ok().map(|p| p.period().to_bits()),
                    stats.dp.states_created,
                );
                match &bits {
                    None => bits = Some(these),
                    Some(prev) => assert_eq!(
                        *prev, these,
                        "{} P={} M={}GB: period or DP states changed across repeats",
                        cell.network, cell.p, cell.m_gb
                    ),
                }
                dp_times.push(dp);
                totals.push(total);
                schedule_times.push(stats.schedule_seconds);
            }
            let (period_bits, dp_states) = bits.expect("repeats > 0");
            out.push(PlanSpeedRecord {
                network: cell.network.clone(),
                p: cell.p,
                m_gb: cell.m_gb,
                beta_gb: cell.beta_gb,
                dp_seconds: median(&mut dp_times),
                total_seconds: median(&mut totals),
                schedule_seconds: Some(median(&mut schedule_times)),
                dp_states: Some(dp_states),
                period_bits,
            });
        }
    }
    out
}

pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Serialize `records` as a `BENCH_plan_speed.json` document.
pub fn render(records: &[PlanSpeedRecord]) -> String {
    let doc = Value::Object(vec![
        ("version".into(), Value::UInt(PLAN_SPEED_VERSION)),
        (
            "records".into(),
            Value::Array(records.iter().map(|r| r.to_json()).collect()),
        ),
    ]);
    doc.to_string_pretty()
}

/// Write `records` to `path`.
pub fn save(records: &[PlanSpeedRecord], path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, render(records))
}

/// Load a `BENCH_plan_speed.json` document.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<PlanSpeedRecord>, String> {
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
    parse(&text).map_err(|e| format!("parsing {}: {e}", path.as_ref().display()))
}

/// Parse a `BENCH_plan_speed.json` document from text.
pub fn parse(text: &str) -> Result<Vec<PlanSpeedRecord>, JsonError> {
    let doc = Value::parse(text)?;
    let version = doc.field("version")?.as_u64()?;
    if version != PLAN_SPEED_VERSION {
        return Err(JsonError::new(format!(
            "plan-speed baseline version {version} (this build reads {PLAN_SPEED_VERSION})"
        )));
    }
    doc.field("records")?
        .as_array()?
        .iter()
        .map(PlanSpeedRecord::from_json)
        .collect()
}

/// Compare `current` against `baseline`.
///
/// Violations (returned as human-readable lines, empty = pass):
/// * a cell present in one set but not the other;
/// * a period differing from the baseline **in any bit** (including
///   feasible/infeasible flips) — the solver changed behaviour;
/// * the DP time exceeding `time_factor ×` the baseline plus a 10 ms
///   absolute grace — the fastest cells finish in ~10 ms, where
///   scheduler jitter alone exceeds any sane relative factor.
pub fn compare_plan_speed(
    current: &[PlanSpeedRecord],
    baseline: &[PlanSpeedRecord],
    time_factor: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let describe = |r: &PlanSpeedRecord| {
        format!(
            "{} P={} M={}GB beta={}GB/s",
            r.network, r.p, r.m_gb, r.beta_gb
        )
    };
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.key() == base.key()) else {
            violations.push(format!("{}: missing from the current run", describe(base)));
            continue;
        };
        if cur.period_bits != base.period_bits {
            let show = |b: &Option<u64>| match b {
                Some(bits) => format!("{:.17e} ({bits:#018x})", f64::from_bits(*bits)),
                None => "infeasible".to_string(),
            };
            violations.push(format!(
                "{}: period not bit-identical: {} vs baseline {}",
                describe(base),
                show(&cur.period_bits),
                show(&base.period_bits)
            ));
        }
        const TIME_GRACE_SECONDS: f64 = 0.010;
        if base.dp_seconds > 0.0
            && cur.dp_seconds > base.dp_seconds * time_factor + TIME_GRACE_SECONDS
        {
            violations.push(format!(
                "{}: DP took {:.3} s vs baseline {:.3} s (> {time_factor}x + 10ms)",
                describe(base),
                cur.dp_seconds,
                base.dp_seconds
            ));
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.key() == cur.key()) {
            violations.push(format!(
                "{}: not in the baseline (refresh it)",
                describe(cur)
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(p: usize, m: u64, period: Option<f64>, dp: f64) -> PlanSpeedRecord {
        PlanSpeedRecord {
            network: "resnet50".into(),
            p,
            m_gb: m,
            beta_gb: 12.0,
            dp_seconds: dp,
            total_seconds: dp * 2.0,
            schedule_seconds: Some(dp / 2.0),
            dp_states: Some(1234),
            period_bits: period.map(f64::to_bits),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut records = vec![
            record(4, 6, Some(0.103_712_345_678_9), 0.42),
            record(4, 3, None, 0.01),
        ];
        records[1].schedule_seconds = None;
        records[1].dp_states = None;
        let parsed = parse(&render(&records)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn a_baseline_without_schedule_seconds_loads() {
        let text = r#"{"version": 1, "records": [{"network": "resnet50", "p": 2,
            "m_gb": 3, "beta_gb": 12.0, "dp_seconds": 0.01,
            "total_seconds": 0.2, "period_bits": 4600460563504974830}]}"#;
        let records = parse(text).unwrap();
        assert_eq!(records[0].schedule_seconds, None);
        assert_eq!(records[0].dp_states, None);
        // Phase 2's time and the DP states are not gated: only the
        // period bits and DP time.
        let mut cur = records.clone();
        cur[0].schedule_seconds = Some(10.0);
        cur[0].dp_states = Some(10);
        assert!(compare_plan_speed(&cur, &records, 1.25).is_empty());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        assert!(parse("{\"version\": 99, \"records\": []}").is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let records = vec![record(4, 6, Some(0.1), 0.4)];
        assert!(compare_plan_speed(&records, &records, 1.25).is_empty());
    }

    #[test]
    fn a_single_ulp_of_period_drift_is_flagged() {
        let base = vec![record(4, 6, Some(0.1), 0.4)];
        let mut cur = base.clone();
        cur[0].period_bits = cur[0].period_bits.map(|b| b + 1);
        let v = compare_plan_speed(&cur, &base, 1.25);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not bit-identical"));
    }

    #[test]
    fn feasibility_flips_are_period_violations() {
        let base = vec![record(4, 3, None, 0.01)];
        let mut cur = base.clone();
        cur[0].period_bits = Some(0.2f64.to_bits());
        let v = compare_plan_speed(&cur, &base, 1.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("infeasible"));
    }

    #[test]
    fn slow_dp_is_flagged_only_beyond_the_factor() {
        let base = vec![record(4, 6, Some(0.1), 0.4)];
        let mut cur = base.clone();
        cur[0].dp_seconds = 0.48; // 1.2x < 1.25x: fine
        assert!(compare_plan_speed(&cur, &base, 1.25).is_empty());
        cur[0].dp_seconds = 0.55; // 1.375x: violation
        let v = compare_plan_speed(&cur, &base, 1.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("DP took"));
    }

    #[test]
    fn missing_and_extra_cells_are_flagged() {
        let base = vec![record(4, 6, Some(0.1), 0.4), record(8, 6, Some(0.2), 0.5)];
        let cur = vec![record(4, 6, Some(0.1), 0.4), record(2, 6, Some(0.3), 0.3)];
        let v = compare_plan_speed(&cur, &base, 1.25);
        assert!(v.iter().any(|x| x.contains("missing from the current run")));
        assert!(v.iter().any(|x| x.contains("not in the baseline")));
    }

    #[test]
    fn plan_speed_grid_is_the_single_network_fig6_slice() {
        let g = plan_speed_grid();
        assert_eq!(g.networks, vec!["resnet50".to_string()]);
        assert_eq!(g.cells().len(), 3 * 7 * 2);
    }

    #[test]
    fn medians_are_order_free() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn run_measures_a_tiny_cell_deterministically() {
        // One micro cell, twice: times recorded, periods bit-stable.
        let cfg = GridConfig {
            networks: vec!["resnet50".into()],
            p_values: vec![2],
            m_values: vec![8],
            beta_values: vec![12.0],
            batch: 1,
            image_size: 100,
        };
        let planner = PlannerConfig {
            algorithm1: madpipe_core::Algorithm1Config {
                iterations: 4,
                discretization: madpipe_core::Discretization::coarse(),
                use_special: true,
            },
            refine_probes: 0,
            ..PlannerConfig::default()
        };
        let records = run_plan_speed(&cfg, &planner, 2);
        assert_eq!(records.len(), 1);
        assert!(records[0].period_bits.is_some());
        assert!(records[0].dp_seconds > 0.0);
        assert!(records[0].total_seconds >= records[0].dp_seconds);
        assert!(records[0].dp_states.expect("recorded") > 0);
        let schedule = records[0].schedule_seconds.expect("recorded");
        assert!(schedule >= 0.0 && schedule <= records[0].total_seconds);
    }
}
