//! Grid cells fanned out over CPU cores.
//!
//! The planners are pure CPU-bound functions of `(chain, cell)`, so the
//! sweep parallelizes embarrassingly on the workspace's one ordered pool
//! ([`ordered_pool`]): results come back in cell order whatever the
//! thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

use madpipe_core::PlannerConfig;
use madpipe_model::util::ordered_pool;
use madpipe_model::Chain;

use crate::grid::{run_cell, Cell, CellResult};

/// Evaluate `cells` with up to `threads` workers (0 ⇒ available
/// parallelism). `chains` must contain one profiled chain per distinct
/// network name referenced by the cells. Results keep the input order.
pub fn run_cells(
    chains: &[Chain],
    cells: &[Cell],
    planner: &PlannerConfig,
    threads: usize,
    progress: bool,
) -> Vec<CellResult> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let chain_for = |name: &str| -> &Chain {
        chains
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("no profiled chain for network {name}"))
    };
    let done = AtomicUsize::new(0);
    ordered_pool(cells.len(), &mut vec![(); threads], |_, i| {
        let cell = &cells[i];
        let result = run_cell(chain_for(&cell.network), cell, planner);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if progress && (finished.is_multiple_of(10) || finished == cells.len()) {
            eprintln!("  [{finished}/{}] cells evaluated", cells.len());
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{paper_chains, GridConfig};

    #[test]
    fn parallel_matches_serial_and_keeps_order() {
        let cfg = GridConfig {
            networks: vec!["resnet50".into()],
            p_values: vec![2, 3],
            m_values: vec![8, 16],
            beta_values: vec![12.0],
            batch: 1,
            image_size: 100,
        };
        let chains = paper_chains(&cfg);
        let cells = cfg.cells();
        let planner = PlannerConfig {
            algorithm1: madpipe_core::Algorithm1Config {
                iterations: 4,
                discretization: madpipe_core::Discretization::coarse(),
                use_special: true,
            },
            refine_probes: 0,
            ..PlannerConfig::default()
        };
        let serial = run_cells(&chains, &cells, &planner, 1, false);
        let parallel = run_cells(&chains, &cells, &planner, 4, false);
        assert_eq!(serial.len(), cells.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cell, p.cell);
            assert_eq!(s.madpipe, p.madpipe);
            assert_eq!(s.pipedream, p.pipedream);
        }
    }
}
