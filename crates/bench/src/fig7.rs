//! Figure 7: per-network geometric mean, over all (P, β), of the ratio
//! *algorithm period / MadPipe period* as a function of the memory limit.
//!
//! A PipeDream ratio above 1 means MadPipe is faster; the paper reports
//! it consistently above 1.2 when memory is below 10 GB. Cells where
//! PipeDream fails entirely (MadPipe plans, PipeDream cannot) are counted
//! separately — they would push the mean to infinity.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::csv::{ratio, Table};
use crate::grid::{geometric_mean, CellResult};

/// Build the Figure 7 table and text rendering from grid results.
pub fn generate(results: &[CellResult]) -> (String, Table) {
    let mut table = Table::new(&[
        "network",
        "M_gb",
        "pipedream_over_madpipe_gmean",
        "cells",
        "pipedream_failures",
        "madpipe_failures",
    ]);
    let networks: BTreeSet<&str> = results.iter().map(|r| r.cell.network.as_str()).collect();
    let memories: BTreeSet<u64> = results.iter().map(|r| r.cell.m_gb).collect();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 7 — geometric mean over (P, beta) of PipeDream/MadPipe period ratio"
    );
    let _ = writeln!(
        text,
        "  (>1 means MadPipe is faster; 'pd-fail' counts cells only MadPipe could plan)"
    );
    let _ = write!(text, "  {:>5} |", "M(GB)");
    for net in &networks {
        let _ = write!(text, " {:>22} |", net);
    }
    let _ = writeln!(text);

    for &m in &memories {
        let _ = write!(text, "  {:>5} |", m);
        for net in &networks {
            let group: Vec<&CellResult> = results
                .iter()
                .filter(|r| r.cell.network == *net && r.cell.m_gb == m)
                .collect();
            let gmean = geometric_mean(group.iter().map(|r| r.ratio()));
            let pd_fail = group
                .iter()
                .filter(|r| r.madpipe.is_some() && r.pipedream.is_none())
                .count();
            let mp_fail = group.iter().filter(|r| r.madpipe.is_none()).count();
            let shown = gmean
                .map(|g| format!("{g:.3}"))
                .unwrap_or_else(|| "-".into());
            let _ = write!(text, " {:>12} ({} pd-fail) |", shown, pd_fail);
            table.push(vec![
                net.to_string(),
                m.to_string(),
                ratio(gmean),
                group.len().to_string(),
                pd_fail.to_string(),
                mp_fail.to_string(),
            ]);
        }
        let _ = writeln!(text);
    }
    (text, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Cell;

    fn cell(net: &str, p: usize, m: u64, mp: Option<f64>, pd: Option<f64>) -> CellResult {
        CellResult {
            cell: Cell {
                network: net.into(),
                p,
                m_gb: m,
                beta_gb: 12.0,
                policy: Default::default(),
            },
            sequential: 1.0,
            madpipe_estimate: mp,
            madpipe: mp,
            pipedream_estimate: pd,
            pipedream: pd,
            planning_seconds: 0.1,
            stats: crate::grid::test_stats(3, 10),
            certified: mp.map(|_| true),
            jitter_margin: mp.map(|_| 0.1),
        }
    }

    #[test]
    fn aggregates_ratios_per_network_and_memory() {
        let results = vec![
            cell("resnet50", 2, 3, Some(0.1), Some(0.2)),  // ratio 2
            cell("resnet50", 4, 3, Some(0.1), Some(0.05)), // ratio 0.5
            cell("resnet50", 2, 8, Some(0.1), None),       // pd failure
        ];
        let (text, table) = generate(&results);
        // gm(2, 0.5) = 1
        assert!(text.contains("1.000"));
        assert_eq!(table.len(), 2); // two memory levels
        let csv = table.to_csv();
        assert!(csv.contains("resnet50,3,1.0000,2,0,0"));
        assert!(csv.contains("resnet50,8,,1,1,0"));
    }
}
