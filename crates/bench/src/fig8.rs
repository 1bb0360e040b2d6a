//! Figure 8: speedup vs number of GPUs, per network and memory limit.
//!
//! Speedup is `U(1,L) / period` — how much faster than sequential
//! execution the pipelined schedule trains. The paper's observations:
//! good scalability at `M ≥ 12` GB, MadPipe scaling further than
//! PipeDream, and both collapsing when memory is tight.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::csv::{ratio, Table};
use crate::grid::CellResult;

/// Build the Figure 8 table and text rendering from grid results.
/// Text shows the β = 12 GB/s panels; the CSV carries everything.
pub fn generate(results: &[CellResult]) -> (String, Table) {
    let mut table = Table::new(&[
        "network",
        "beta_gb",
        "M_gb",
        "P",
        "madpipe_speedup",
        "pipedream_speedup",
    ]);
    let networks: BTreeSet<&str> = results.iter().map(|r| r.cell.network.as_str()).collect();
    let memories: BTreeSet<u64> = results.iter().map(|r| r.cell.m_gb).collect();
    let ps: BTreeSet<usize> = results.iter().map(|r| r.cell.p).collect();
    let betas: BTreeSet<u64> = results.iter().map(|r| r.cell.beta_gb as u64).collect();

    let mut text = String::new();
    let _ = writeln!(text, "Figure 8 — speedup U(1,L)/period vs number of GPUs");
    for net in &networks {
        for &beta in &betas {
            if beta != 12 && betas.len() > 1 {
                continue; // text shows the 12 GB/s panel; CSV has all
            }
            let _ = writeln!(text, "\n  {net}  (beta = {beta} GB/s, speedup mp/pd)");
            let _ = write!(text, "  {:>6} |", "M(GB)");
            for &p in &ps {
                let _ = write!(text, " {:>11} |", format!("P={p}"));
            }
            let _ = writeln!(text);
            for &m in &memories {
                let _ = write!(text, "  {:>6} |", m);
                for &p in &ps {
                    let r = results.iter().find(|r| {
                        r.cell.network == *net
                            && r.cell.m_gb == m
                            && r.cell.p == p
                            && r.cell.beta_gb as u64 == beta
                    });
                    let fmt =
                        |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
                    match r {
                        Some(r) => {
                            let _ = write!(
                                text,
                                " {:>5}/{:<5} |",
                                fmt(r.madpipe_speedup()),
                                fmt(r.pipedream_speedup())
                            );
                        }
                        None => {
                            let _ = write!(text, " {:>11} |", "");
                        }
                    }
                }
                let _ = writeln!(text);
            }
        }
    }

    for r in results {
        table.push(vec![
            r.cell.network.clone(),
            format!("{}", r.cell.beta_gb),
            r.cell.m_gb.to_string(),
            r.cell.p.to_string(),
            ratio(r.madpipe_speedup()),
            ratio(r.pipedream_speedup()),
        ]);
    }
    (text, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Cell;

    fn cell(p: usize, m: u64, mp: f64) -> CellResult {
        CellResult {
            cell: Cell {
                network: "resnet50".into(),
                p,
                m_gb: m,
                beta_gb: 12.0,
                policy: Default::default(),
            },
            sequential: 1.0,
            madpipe_estimate: Some(mp),
            madpipe: Some(mp),
            pipedream_estimate: None,
            pipedream: None,
            planning_seconds: 0.1,
            stats: crate::grid::test_stats(3, 10),
            certified: Some(true),
            jitter_margin: Some(0.1),
        }
    }

    #[test]
    fn speedups_are_sequential_over_period() {
        let results = vec![cell(2, 8, 0.5), cell(4, 8, 0.25)];
        let (text, table) = generate(&results);
        assert!(text.contains("2.00"));
        assert!(text.contains("4.00"));
        assert_eq!(table.len(), 2);
        assert!(table.to_csv().contains("resnet50,12,8,4,4.0000,"));
    }
}
