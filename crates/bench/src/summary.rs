//! Aggregate statistics backing the paper's prose claims (§5.2): win
//! counts, mean ratios by memory band, prediction-optimism gaps, and
//! planning-time totals.

use std::fmt::Write as _;

use crate::csv::Table;
use crate::grid::{geometric_mean, CellResult};

/// Summary statistics over a set of evaluated cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Cells where both planners produced schedules.
    pub comparable: usize,
    /// … of which MadPipe was strictly faster (>0.1% margin).
    pub madpipe_wins: usize,
    /// … of which PipeDream was strictly faster.
    pub pipedream_wins: usize,
    /// Cells only MadPipe could plan.
    pub only_madpipe: usize,
    /// Cells only PipeDream could plan.
    pub only_pipedream: usize,
    /// Geometric-mean PipeDream/MadPipe ratio over all comparable cells.
    pub overall_ratio: Option<f64>,
    /// Same, restricted to `M < 10` GB (the paper: "consistently over
    /// 20% when the available memory is below 10GB").
    pub tight_ratio: Option<f64>,
    /// Largest single-cell ratio (the paper: "up to two or even three
    /// times slower").
    pub max_ratio: Option<f64>,
    /// Geometric mean of PipeDream's achieved/predicted gap.
    pub pipedream_optimism: Option<f64>,
    /// Geometric mean of MadPipe's achieved/phase-1 gap.
    pub madpipe_optimism: Option<f64>,
    /// Total planning wall-clock (both planners, all cells).
    pub planning_seconds: f64,
    /// DP solves that actually ran across all cells (planner cost).
    pub dp_solves: usize,
    /// Memoized DP states created across all cells.
    pub dp_states: u64,
    /// MadPipe plans that passed differential certification.
    pub certified_pass: usize,
    /// MadPipe plans that failed it (checker/replay disagreement).
    pub certified_fail: usize,
    /// Smallest jitter robustness margin over all certified plans.
    pub min_jitter_margin: Option<f64>,
}

/// Compute the summary.
pub fn summarize(results: &[CellResult]) -> Summary {
    let mut s = Summary {
        comparable: 0,
        madpipe_wins: 0,
        pipedream_wins: 0,
        only_madpipe: 0,
        only_pipedream: 0,
        overall_ratio: None,
        tight_ratio: None,
        max_ratio: None,
        pipedream_optimism: None,
        madpipe_optimism: None,
        planning_seconds: results.iter().map(|r| r.planning_seconds).sum(),
        dp_solves: results.iter().map(|r| r.dp_solves()).sum(),
        dp_states: results.iter().map(|r| r.dp_states()).sum(),
        certified_pass: results.iter().filter(|r| r.certified == Some(true)).count(),
        certified_fail: results
            .iter()
            .filter(|r| r.certified == Some(false))
            .count(),
        min_jitter_margin: results
            .iter()
            .filter(|r| r.certified == Some(true))
            .filter_map(|r| r.jitter_margin)
            .fold(None, |acc: Option<f64>, m| {
                Some(acc.map_or(m, |a| a.min(m)))
            }),
    };
    let mut ratios = Vec::new();
    let mut tight = Vec::new();
    let mut pd_gap = Vec::new();
    let mut mp_gap = Vec::new();
    for r in results {
        match (r.madpipe, r.pipedream) {
            (Some(m), Some(p)) => {
                s.comparable += 1;
                let ratio = p / m;
                if ratio > 1.001 {
                    s.madpipe_wins += 1;
                } else if ratio < 0.999 {
                    s.pipedream_wins += 1;
                }
                ratios.push(Some(ratio));
                if r.cell.m_gb < 10 {
                    tight.push(Some(ratio));
                }
            }
            (Some(_), None) => s.only_madpipe += 1,
            (None, Some(_)) => s.only_pipedream += 1,
            (None, None) => {}
        }
        if let (Some(est), Some(got)) = (r.pipedream_estimate, r.pipedream) {
            pd_gap.push(Some(got / est));
        }
        if let (Some(est), Some(got)) = (r.madpipe_estimate, r.madpipe) {
            mp_gap.push(Some(got / est));
        }
    }
    s.max_ratio = ratios
        .iter()
        .flatten()
        .copied()
        .fold(None, |acc: Option<f64>, r| {
            Some(acc.map_or(r, |a| a.max(r)))
        });
    s.overall_ratio = geometric_mean(ratios);
    s.tight_ratio = geometric_mean(tight);
    s.pipedream_optimism = geometric_mean(pd_gap);
    s.madpipe_optimism = geometric_mean(mp_gap);
    s
}

/// Render the summary as text + a one-row CSV.
pub fn generate(results: &[CellResult]) -> (String, Table) {
    let s = summarize(results);
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
    let mut text = String::new();
    let _ = writeln!(text, "Summary over {} cells:", results.len());
    let _ = writeln!(
        text,
        "  comparable {} | MadPipe wins {} | PipeDream wins {} | only-MadPipe {} | only-PipeDream {}",
        s.comparable, s.madpipe_wins, s.pipedream_wins, s.only_madpipe, s.only_pipedream
    );
    let _ = writeln!(
        text,
        "  PipeDream/MadPipe period ratio: gmean {} (M<10GB: {}), max {}",
        fmt(s.overall_ratio),
        fmt(s.tight_ratio),
        fmt(s.max_ratio)
    );
    let _ = writeln!(
        text,
        "  prediction gaps (achieved/predicted, gmean): PipeDream {}, MadPipe {}",
        fmt(s.pipedream_optimism),
        fmt(s.madpipe_optimism)
    );
    let _ = writeln!(text, "  total planning time: {:.1} s", s.planning_seconds);
    let _ = writeln!(
        text,
        "  planner cost: {} DP solves, {} states",
        s.dp_solves, s.dp_states
    );
    let _ = writeln!(
        text,
        "  certification: {} passed, {} failed, min jitter margin {}",
        s.certified_pass,
        s.certified_fail,
        fmt(s.min_jitter_margin)
    );

    let mut table = Table::new(&[
        "cells",
        "comparable",
        "madpipe_wins",
        "pipedream_wins",
        "only_madpipe",
        "only_pipedream",
        "ratio_gmean",
        "ratio_gmean_tight",
        "ratio_max",
        "pipedream_optimism",
        "madpipe_optimism",
        "planning_seconds",
        "dp_solves",
        "dp_states",
        "certified_pass",
        "certified_fail",
        "min_jitter_margin",
    ]);
    table.push(vec![
        results.len().to_string(),
        s.comparable.to_string(),
        s.madpipe_wins.to_string(),
        s.pipedream_wins.to_string(),
        s.only_madpipe.to_string(),
        s.only_pipedream.to_string(),
        fmt(s.overall_ratio),
        fmt(s.tight_ratio),
        fmt(s.max_ratio),
        fmt(s.pipedream_optimism),
        fmt(s.madpipe_optimism),
        format!("{:.1}", s.planning_seconds),
        s.dp_solves.to_string(),
        s.dp_states.to_string(),
        s.certified_pass.to_string(),
        s.certified_fail.to_string(),
        fmt(s.min_jitter_margin),
    ]);
    (text, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Cell;

    fn cell(m: u64, mp: Option<f64>, pd: Option<f64>) -> CellResult {
        CellResult {
            cell: Cell {
                network: "x".into(),
                p: 4,
                m_gb: m,
                beta_gb: 12.0,
                policy: Default::default(),
            },
            sequential: 1.0,
            madpipe_estimate: mp.map(|x| x * 0.9),
            madpipe: mp,
            pipedream_estimate: pd.map(|x| x * 0.5),
            pipedream: pd,
            planning_seconds: 1.0,
            stats: crate::grid::test_stats(5, 100),
            certified: mp.map(|_| true),
            jitter_margin: mp.map(|_| 0.1),
        }
    }

    #[test]
    fn counts_and_means() {
        let results = vec![
            cell(3, Some(0.1), Some(0.2)),  // MadPipe wins, tight
            cell(12, Some(0.1), Some(0.1)), // tie
            cell(12, Some(0.1), None),      // only MadPipe
            cell(12, None, Some(0.1)),      // only PipeDream
        ];
        let s = summarize(&results);
        assert_eq!(s.comparable, 2);
        assert_eq!(s.madpipe_wins, 1);
        assert_eq!(s.pipedream_wins, 0);
        assert_eq!(s.only_madpipe, 1);
        assert_eq!(s.only_pipedream, 1);
        assert_eq!(s.max_ratio, Some(2.0));
        assert!((s.tight_ratio.unwrap() - 2.0).abs() < 1e-12);
        assert!((s.pipedream_optimism.unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.planning_seconds, 4.0);
        assert_eq!(s.dp_solves, 20);
        assert_eq!(s.dp_states, 400);
        assert_eq!(s.certified_pass, 3);
        assert_eq!(s.certified_fail, 0);
        assert!((s.min_jitter_margin.unwrap() - 0.1).abs() < 1e-12);
        let (text, table) = generate(&results);
        assert!(text.contains("MadPipe wins 1"));
        assert!(text.contains("certification: 3 passed"));
        assert_eq!(table.len(), 1);
    }
}
