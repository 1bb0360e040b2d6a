//! Ablations of MadPipe's design choices (§4.2) and the baselines, on
//! one memory sweep: ResNet-50 (batch 8, 1000×1000 images), P = 4,
//! β = 12 GB/s, M ∈ {3, 4, 6, 8, 12, 16} GB.
//!
//! Every variant plans the same chain at each memory limit:
//!
//! * MadPipe in full, and with one design choice switched off or
//!   changed: the special processor, phase-2 memory compaction, the
//!   refinement probes, and the DP discretization grid (coarse, fine);
//! * PipeDream's DP with its 1F1B\* schedule;
//! * GPipe (synchronous micro-batching with a flush), with and without
//!   activation recomputation.
//!
//! A row reports each achieved period and the median wall-clock time of
//! its planning calls.

use std::fmt::Write as _;
use std::time::Instant;

use madpipe_core::{madpipe_plan, Discretization, PlannerConfig};
use madpipe_model::{Chain, Platform};
use madpipe_pipedream::{gpipe_plan, pipedream_plan, GPipeConfig};

use crate::csv::{ms, Table};
use crate::grid::chains_for;
use crate::plan_speed::median;

/// The memory limits of the sweep, in GB.
const MEMORY_GB: [u64; 6] = [3, 4, 6, 8, 12, 16];

/// A planner configuration under test.
#[derive(Debug, Clone, Copy)]
enum Variant {
    MadPipe(PlannerConfig),
    PipeDream,
    GPipe(GPipeConfig),
}

impl Variant {
    /// The achieved period in seconds, `None` when the planner finds no
    /// schedule that fits.
    fn period(&self, chain: &Chain, platform: &Platform) -> Option<f64> {
        match self {
            Variant::MadPipe(cfg) => madpipe_plan(chain, platform, cfg).ok().map(|p| p.period()),
            Variant::PipeDream => pipedream_plan(chain, platform).ok().map(|p| p.period()),
            Variant::GPipe(cfg) => gpipe_plan(chain, platform, cfg).map(|p| p.period),
        }
    }
}

/// The variants, named, in table order.
fn variants() -> Vec<(&'static str, Variant)> {
    let full = PlannerConfig::default();
    let mut no_special = full;
    no_special.algorithm1.use_special = false;
    let mut no_compaction = full;
    no_compaction.place.compaction = false;
    let mut no_refinement = full;
    no_refinement.refine_probes = 0;
    let mut coarse = full;
    coarse.algorithm1.discretization = Discretization::coarse();
    let mut fine = full;
    fine.algorithm1.discretization = Discretization::fine();
    let recompute = GPipeConfig::default();
    let no_recompute = GPipeConfig {
        recompute: false,
        ..recompute
    };
    vec![
        ("madpipe (full)", Variant::MadPipe(full)),
        ("no special processor", Variant::MadPipe(no_special)),
        ("no memory compaction", Variant::MadPipe(no_compaction)),
        ("no refinement probes", Variant::MadPipe(no_refinement)),
        ("coarse discretization", Variant::MadPipe(coarse)),
        ("fine discretization", Variant::MadPipe(fine)),
        ("pipedream + 1f1b*", Variant::PipeDream),
        ("gpipe (recompute)", Variant::GPipe(recompute)),
        ("gpipe (no recompute)", Variant::GPipe(no_recompute)),
    ]
}

/// One variant across the sweep.
struct Row {
    variant: &'static str,
    /// Achieved period in seconds at each memory limit, `None` when
    /// infeasible.
    periods: Vec<Option<f64>>,
    /// Median wall-clock seconds of the row's planning calls.
    median_planning_seconds: f64,
}

/// Plan `chain` with every variant at each limit in `memory_gb`, on
/// `gpus` GPUs linked at `bandwidth_gb` GB/s.
fn run(chain: &Chain, gpus: usize, memory_gb: &[u64], bandwidth_gb: f64) -> Vec<Row> {
    variants()
        .into_iter()
        .map(|(variant, planner)| {
            let mut seconds = Vec::with_capacity(memory_gb.len());
            let periods = memory_gb
                .iter()
                .map(|&m| {
                    let platform =
                        Platform::gb(gpus, m, bandwidth_gb).expect("valid ablation platform");
                    let start = Instant::now();
                    let period = planner.period(chain, &platform);
                    seconds.push(start.elapsed().as_secs_f64());
                    period
                })
                .collect();
            Row {
                variant,
                periods,
                median_planning_seconds: median(&mut seconds),
            }
        })
        .collect()
}

/// Run the sweep and render it as text and CSV.
pub fn generate() -> (String, Table) {
    let chain = &chains_for(&["resnet50".to_string()], 8, 1000)[0];
    let rows = run(chain, 4, &MEMORY_GB, 12.0);
    render(&rows, &MEMORY_GB, "ResNet-50, P = 4, beta = 12 GB/s")
}

/// Render `rows`, whose periods follow `memory_gb`, as a text table
/// under `caption` and as CSV.
fn render(rows: &[Row], memory_gb: &[u64], caption: &str) -> (String, Table) {
    let mut header = vec!["variant".to_string()];
    header.extend(memory_gb.iter().map(|m| format!("period_ms_M{m}")));
    header.push("median_planning_ms".into());
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablations and baselines — achieved period (ms), {caption}"
    );
    let _ = write!(text, "  {:<24}", "variant \\ M(GB)");
    for m in memory_gb {
        let _ = write!(text, " {m:>8}");
    }
    let _ = writeln!(text, " {:>15}", "median plan ms");
    for row in rows {
        let _ = write!(text, "  {:<24}", row.variant);
        for period in &row.periods {
            let shown = period.map_or_else(|| "-".into(), |p| format!("{:.1}", p * 1e3));
            let _ = write!(text, " {shown:>8}");
        }
        let _ = writeln!(text, " {:>15.3}", row.median_planning_seconds * 1e3);
        let mut fields = vec![row.variant.to_string()];
        fields.extend(row.periods.iter().map(|&p| ms(p)));
        fields.push(ms(Some(row.median_planning_seconds)));
        table.push(fields);
    }
    (text, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_core::compare;
    use madpipe_dnn::{random_chain, RandomChainConfig};

    #[test]
    fn every_variant_plans_every_limit_and_matches_its_planner() {
        let chain = random_chain(
            &RandomChainConfig {
                layers: 8,
                activation_range: (256 << 20, 1 << 30),
                ..RandomChainConfig::default()
            },
            7,
        );
        let memory_gb = [1, 2, 4];
        let rows = run(&chain, 3, &memory_gb, 12.0);

        let names: Vec<&str> = variants().iter().map(|(name, _)| *name).collect();
        assert_eq!(rows.iter().map(|r| r.variant).collect::<Vec<_>>(), names);
        for row in &rows {
            assert_eq!(row.periods.len(), memory_gb.len(), "{}", row.variant);
            assert!(row.median_planning_seconds >= 0.0);
        }
        let row = |name: &str| &rows.iter().find(|r| r.variant == name).unwrap().periods;
        // 1 GB fits no MadPipe plan, 4 GB does: the sweep covers both.
        assert_eq!(row("madpipe (full)")[0], None);
        assert!(row("madpipe (full)")[2].is_some());
        for (i, &m) in memory_gb.iter().enumerate() {
            let platform = Platform::gb(3, m, 12.0).unwrap();
            let both = compare(&chain, &platform, &PlannerConfig::default());
            assert_eq!(
                row("madpipe (full)")[i],
                both.madpipe.ok().map(|p| p.period())
            );
            assert_eq!(
                row("pipedream + 1f1b*")[i],
                both.pipedream.ok().map(|p| p.period())
            );
            let gpipe = |recompute| {
                gpipe_plan(
                    &chain,
                    &platform,
                    &GPipeConfig {
                        recompute,
                        ..GPipeConfig::default()
                    },
                )
                .map(|p| p.period)
            };
            assert_eq!(row("gpipe (recompute)")[i], gpipe(true));
            assert_eq!(row("gpipe (no recompute)")[i], gpipe(false));
        }

        let (text, table) = render(&rows, &memory_gb, "test");
        assert_eq!(table.len(), names.len());
        let csv = table.to_csv();
        assert!(
            csv.starts_with("variant,period_ms_M1,period_ms_M2,period_ms_M4,median_planning_ms\n")
        );
        for name in names {
            assert!(text.contains(name) && csv.contains(name), "{name}");
        }
        assert!(csv.contains("\nmadpipe (full),,,"), "{csv}");
        let full = text.lines().find(|l| l.contains("madpipe (full)")).unwrap();
        assert_eq!(full.split_whitespace().nth(2), Some("-"), "{text}");
    }
}
