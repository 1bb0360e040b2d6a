//! The paper's experiment grid and single-cell evaluation.

use std::time::Instant;

use madpipe_core::{certify_plan, compare, CertifyConfig, PlannerConfig, PlannerStats};
use madpipe_dnn::{networks, GpuModel};
use madpipe_model::{Chain, Platform, PolicySpec};

/// Grid of instances to evaluate.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Network names (resolved through [`networks::by_name`]).
    pub networks: Vec<String>,
    /// GPU counts.
    pub p_values: Vec<usize>,
    /// Memory limits in GB.
    pub m_values: Vec<u64>,
    /// Bandwidths in GB/s.
    pub beta_values: Vec<f64>,
    /// Batch size (paper: 8).
    pub batch: u64,
    /// Square image size (paper: 1000).
    pub image_size: u64,
}

impl GridConfig {
    /// The paper's full grid: all four networks, `P ∈ 2..=8`,
    /// `M ∈ 3..=16` GB, `β ∈ {12, 24}` GB/s.
    pub fn full() -> Self {
        Self {
            networks: ["resnet50", "resnet101", "inception_v3", "densenet121"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            p_values: (2..=8).collect(),
            m_values: (3..=16).collect(),
            beta_values: vec![12.0, 24.0],
            batch: 8,
            image_size: 1000,
        }
    }

    /// A reduced grid with the same coverage pattern, sized for a laptop
    /// run: `P ∈ {2, 4, 8}`, `M ∈ {3, 4, 6, 8, 10, 12, 16}`.
    pub fn quick() -> Self {
        Self {
            p_values: vec![2, 4, 8],
            m_values: vec![3, 4, 6, 8, 10, 12, 16],
            ..Self::full()
        }
    }

    /// All cells of the grid.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for net in &self.networks {
            for &p in &self.p_values {
                for &beta in &self.beta_values {
                    for &m in &self.m_values {
                        out.push(Cell {
                            network: net.clone(),
                            p,
                            m_gb: m,
                            beta_gb: beta,
                            policy: PolicySpec::default(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// One `(network, P, M, β, policy)` instance. The policy axis defaults
/// to the paper's model (store activations, three weight versions);
/// non-default cells evaluate the same platform point under a recompute
/// / weight-versioning configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub network: String,
    pub p: usize,
    pub m_gb: u64,
    pub beta_gb: f64,
    pub policy: PolicySpec,
}

impl Cell {
    /// Human-readable cell identity (policy suffix only when set).
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} P={} M={}GB beta={}GB/s",
            self.network, self.p, self.m_gb, self.beta_gb
        );
        if !self.policy.is_default() {
            s.push_str(&format!(
                " policy={}/{}",
                self.policy.recompute.as_str(),
                self.policy.weights.as_str()
            ));
        }
        s
    }
}

/// Both planners' results on one cell. Periods are seconds per
/// mini-batch; `None` means the planner failed (memory-infeasible).
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub cell: Cell,
    /// Sequential time `U(1,L)` of the network (speedup baseline).
    pub sequential: f64,
    /// MadPipe phase-1 estimate (dashed line).
    pub madpipe_estimate: Option<f64>,
    /// MadPipe achieved valid period (solid line).
    pub madpipe: Option<f64>,
    /// PipeDream DP prediction (dashed line).
    pub pipedream_estimate: Option<f64>,
    /// PipeDream + 1F1B* achieved valid period (solid line).
    pub pipedream: Option<f64>,
    /// Wall-clock seconds spent planning (both planners).
    pub planning_seconds: f64,
    /// Full MadPipe planner instrumentation for this cell — DP counters,
    /// probe timeline, phase clocks and the frozen metrics registry
    /// (certification already folded in via `Certificate::record`).
    pub stats: PlannerStats,
    /// Differential certification verdict of the MadPipe plan (`None`
    /// when MadPipe failed to plan).
    pub certified: Option<bool>,
    /// Jitter robustness margin of the certified plan.
    pub jitter_margin: Option<f64>,
}

impl CellResult {
    /// PipeDream period / MadPipe period (> 1 ⇒ MadPipe wins).
    pub fn ratio(&self) -> Option<f64> {
        match (self.madpipe, self.pipedream) {
            (Some(m), Some(p)) => Some(p / m),
            _ => None,
        }
    }

    /// DP solves that actually ran inside MadPipe's probe session.
    pub fn dp_solves(&self) -> usize {
        self.stats.dp.solves
    }

    /// Memoized DP states created across this cell's solves.
    pub fn dp_states(&self) -> u64 {
        self.stats.dp.states_created
    }

    /// Speedup of MadPipe over sequential execution.
    pub fn madpipe_speedup(&self) -> Option<f64> {
        self.madpipe.map(|m| self.sequential / m)
    }

    /// Speedup of PipeDream over sequential execution.
    pub fn pipedream_speedup(&self) -> Option<f64> {
        self.pipedream.map(|p| self.sequential / p)
    }
}

/// Profile the four paper networks once (batch/image size from `cfg`).
pub fn paper_chains(cfg: &GridConfig) -> Vec<Chain> {
    chains_for(&cfg.networks, cfg.batch, cfg.image_size)
}

/// Profile each named network once at the given batch/image size.
pub fn chains_for(names: &[String], batch: u64, image_size: u64) -> Vec<Chain> {
    let gpu = GpuModel::default();
    names
        .iter()
        .map(|name| {
            networks::by_name(name)
                .unwrap_or_else(|| panic!("unknown network {name}"))
                .profile(batch, image_size, &gpu)
                .expect("bench networks profile cleanly")
        })
        .collect()
}

/// Evaluate one cell (the chain must match `cell.network`). The MadPipe
/// plan, when there is one, is differentially certified with a cheap
/// [`CertifyConfig::quick`] profile; the verdict and the jitter margin
/// land in the result's certification columns.
pub fn run_cell(chain: &Chain, cell: &Cell, planner: &PlannerConfig) -> CellResult {
    debug_assert_eq!(chain.name(), cell.network);
    let platform = Platform::gb(cell.p, cell.m_gb, cell.beta_gb).expect("valid grid platform");
    // The cell's policy axis overrides the shared planner config; a
    // default-policy cell reproduces the paper's planner bit for bit.
    let planner = PlannerConfig {
        policy: cell.policy,
        ..*planner
    };
    let planner = &planner;
    let start = Instant::now();
    let mut cmp = compare(chain, &platform, planner);
    let planning_seconds = start.elapsed().as_secs_f64();
    let cert = cmp
        .madpipe
        .as_ref()
        .ok()
        .map(|m| certify_plan(chain, &platform, m, &CertifyConfig::quick()));
    if let Some(c) = &cert {
        c.record(&mut cmp.stats);
    }
    CellResult {
        cell: cell.clone(),
        sequential: chain.total_compute_time(),
        madpipe_estimate: cmp.madpipe.as_ref().ok().map(|m| m.phase1.period),
        madpipe: cmp.madpipe.as_ref().ok().map(|m| m.period()),
        pipedream_estimate: cmp
            .pipedream
            .as_ref()
            .ok()
            .map(|p| p.outcome.predicted_period),
        pipedream: cmp.pipedream.as_ref().ok().map(|p| p.period()),
        planning_seconds,
        stats: cmp.stats,
        certified: cert.as_ref().map(|c| c.passed()),
        jitter_margin: cert.as_ref().map(|c| c.jitter_margin),
    }
}

/// Planner stats with just the DP counters set, for figure-module tests.
#[cfg(test)]
pub(crate) fn test_stats(solves: usize, states: u64) -> PlannerStats {
    PlannerStats {
        dp: madpipe_core::DpStats {
            solves,
            states_created: states,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Geometric mean helper (ignores `None`s; `None` when nothing remains).
pub fn geometric_mean(values: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values.into_iter().flatten() {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_the_paper_dimensions() {
        let g = GridConfig::full();
        assert_eq!(g.cells().len(), 4 * 7 * 14 * 2);
    }

    #[test]
    fn quick_grid_is_a_subset_pattern() {
        let g = GridConfig::quick();
        assert_eq!(g.cells().len(), 4 * 3 * 7 * 2);
        let full = GridConfig::full();
        for p in &g.p_values {
            assert!(full.p_values.contains(p));
        }
        for m in &g.m_values {
            assert!(full.m_values.contains(m));
        }
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean([Some(4.0), Some(1.0)]), Some(2.0));
        assert_eq!(geometric_mean([None, None]), None);
        let g = geometric_mean([Some(2.0), None, Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn run_cell_on_a_small_instance() {
        let cfg = GridConfig {
            networks: vec!["resnet50".into()],
            p_values: vec![2],
            m_values: vec![8],
            beta_values: vec![12.0],
            batch: 1,
            image_size: 100,
        };
        let chains = paper_chains(&cfg);
        let cell = &cfg.cells()[0];
        let planner = PlannerConfig {
            algorithm1: madpipe_core::Algorithm1Config {
                iterations: 4,
                discretization: madpipe_core::Discretization::coarse(),
                use_special: true,
            },
            refine_probes: 0,
            ..PlannerConfig::default()
        };
        let r = run_cell(&chains[0], cell, &planner);
        assert!(r.sequential > 0.0);
        assert!(r.madpipe.is_some());
        assert!(r.pipedream.is_some());
        assert!(r.ratio().unwrap() > 0.5);
        assert!(r.dp_solves() > 0);
        assert!(r.dp_states() > 0);
        assert_eq!(r.stats.certifications_passed, 1);
        assert!(r.stats.certify_seconds > 0.0);
        assert!(r.madpipe.unwrap() + 1e-12 >= r.sequential / 2.0 * 0.99);
        assert_eq!(r.certified, Some(true), "grid plans must certify");
        assert!(r.jitter_margin.unwrap() > 0.0);
    }
}
