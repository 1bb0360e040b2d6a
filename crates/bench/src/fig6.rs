//! Figure 6: period vs memory limit for ResNet-50, panels over (P, β).
//!
//! Four series per panel, exactly as in the paper: the two partitioners'
//! *predicted* periods (dashed) and the periods of their valid schedules
//! (solid). Lower is better; throughput is `1/period`.
//!
//! Cells planned under a non-default stage policy (`--recompute` /
//! `--weights`) render as extra rows tagged with the policy — the
//! "below the leftmost point" extension of the paper's figure, showing
//! where recompute and 2BW weight versioning keep planning feasible or
//! faster at memory limits the paper's model cannot reach.

use std::fmt::Write as _;

use crate::csv::{ms, ratio, Table};
use crate::grid::CellResult;

/// Build the Figure 6 table and text rendering from grid results
/// (only `network == "resnet50"` cells are used).
pub fn generate(results: &[CellResult]) -> (String, Table) {
    let mut table = Table::new(&[
        "network",
        "P",
        "beta_gb",
        "M_gb",
        "policy",
        "madpipe_est_ms",
        "madpipe_ms",
        "pipedream_est_ms",
        "pipedream_ms",
        "planning_s",
        "dp_solves",
        "certified",
        "jitter_margin",
    ]);
    let mut cells: Vec<&CellResult> = results
        .iter()
        .filter(|r| r.cell.network == "resnet50")
        .collect();
    cells.sort_by(|a, b| {
        (a.cell.p, a.cell.beta_gb as u64, a.cell.m_gb, a.cell.policy).cmp(&(
            b.cell.p,
            b.cell.beta_gb as u64,
            b.cell.m_gb,
            b.cell.policy,
        ))
    });

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 6 — ResNet-50 (1000x1000, batch 8): period (ms) vs memory limit"
    );
    let mut panel = (0usize, 0u64);
    for r in &cells {
        let key = (r.cell.p, r.cell.beta_gb as u64);
        if key != panel {
            panel = key;
            let _ = writeln!(text, "\n  P = {}, beta = {} GB/s", key.0, key.1);
            let _ = writeln!(
                text,
                "  {:>5} | {:>10} {:>10} | {:>10} {:>10}",
                "M(GB)", "mp dashed", "mp solid", "pd dashed", "pd solid"
            );
        }
        let fmt = |v: Option<f64>| -> String {
            v.map(|x| format!("{:.1}", x * 1e3)).unwrap_or("inf".into())
        };
        let tag = if r.cell.policy.is_default() {
            String::new()
        } else {
            format!(
                "  [{}, {}]",
                r.cell.policy.recompute.as_str(),
                r.cell.policy.weights.as_str()
            )
        };
        let _ = writeln!(
            text,
            "  {:>5} | {:>10} {:>10} | {:>10} {:>10}{tag}",
            r.cell.m_gb,
            fmt(r.madpipe_estimate),
            fmt(r.madpipe),
            fmt(r.pipedream_estimate),
            fmt(r.pipedream),
        );
        table.push(vec![
            r.cell.network.clone(),
            r.cell.p.to_string(),
            format!("{}", r.cell.beta_gb),
            r.cell.m_gb.to_string(),
            format!(
                "{}/{}",
                r.cell.policy.recompute.as_str(),
                r.cell.policy.weights.as_str()
            ),
            ms(r.madpipe_estimate),
            ms(r.madpipe),
            ms(r.pipedream_estimate),
            ms(r.pipedream),
            format!("{:.3}", r.planning_seconds),
            r.dp_solves().to_string(),
            r.certified.map(|c| c.to_string()).unwrap_or_default(),
            ratio(r.jitter_margin),
        ]);
    }
    (text, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Cell;

    fn cell(p: usize, m: u64) -> CellResult {
        CellResult {
            cell: Cell {
                network: "resnet50".into(),
                p,
                m_gb: m,
                beta_gb: 12.0,
                policy: Default::default(),
            },
            sequential: 0.3,
            madpipe_estimate: Some(0.1),
            madpipe: Some(0.11),
            pipedream_estimate: Some(0.1),
            pipedream: Some(0.14),
            planning_seconds: 0.5,
            stats: crate::grid::test_stats(3, 10),
            certified: Some(true),
            jitter_margin: Some(0.12),
        }
    }

    #[test]
    fn renders_panels_and_rows() {
        let results = vec![cell(2, 3), cell(2, 4), cell(4, 3)];
        let (text, table) = generate(&results);
        assert_eq!(table.len(), 3);
        assert!(text.contains("P = 2, beta = 12 GB/s"));
        assert!(text.contains("P = 4, beta = 12 GB/s"));
        assert!(text.contains("110.0"));
    }

    #[test]
    fn policy_rows_are_tagged_and_sorted_after_default() {
        use madpipe_model::{PolicySpec, RecomputeMode, WeightPolicy};
        let mut flipped = cell(2, 3);
        flipped.cell.policy = PolicySpec {
            recompute: RecomputeMode::Auto,
            weights: WeightPolicy::TwoBw,
        };
        flipped.madpipe = Some(0.09);
        let (text, table) = generate(&[flipped, cell(2, 3)]);
        assert_eq!(table.len(), 2);
        assert!(text.contains("[auto, 2bw]"));
        // Default row first within the same (P, beta, M) panel slot.
        let csv: Vec<String> = table.to_csv().lines().map(str::to_string).collect();
        assert!(csv[1].contains("never/3w"));
        assert!(csv[2].contains("auto/2bw"));
    }

    #[test]
    fn ignores_other_networks() {
        let mut other = cell(2, 3);
        other.cell.network = "densenet121".into();
        let (_, table) = generate(&[other]);
        assert!(table.is_empty());
    }
}
