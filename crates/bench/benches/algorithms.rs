//! Microbenchmarks of the individual algorithms: 1F1B* construction, the
//! exact pattern checker, PipeDream's DP, one MadPipe-DP run, the
//! phase-2 solver and the discrete-event simulator.
//!
//! These back the paper's runtime claims (§5.1: "the first step of
//! MadPipe takes several seconds for the smaller networks … significantly
//! slower than the dynamic program of PipeDream").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use madpipe_core::{madpipe_dp, Discretization};
use madpipe_dnn::{networks, GpuModel};
use madpipe_model::{Allocation, Platform, UnitSequence};
use madpipe_pipedream::{pipedream_partition, pipedream_plan};
use madpipe_schedule::{best_contiguous_period, check_pattern, one_f1b_star};
use madpipe_sim::{simulate_eager, EagerConfig};
use madpipe_solver::{best_period, PlaceConfig, PlaceStats};

fn bench(c: &mut Criterion) {
    let gpu = GpuModel::default();
    let chains: Vec<_> = networks::all_networks()
        .iter()
        .map(|n| n.profile(8, 1000, &gpu).unwrap())
        .collect();
    let platform = Platform::gb(4, 8, 12.0).unwrap();

    // 1F1B* and the checker on a fixed contiguous allocation.
    {
        let chain = &chains[0];
        let plan = pipedream_plan(chain, &platform).unwrap();
        let seq = UnitSequence::from_allocation(chain, &platform, &plan.allocation);
        let t = seq.total_load();
        let mut group = c.benchmark_group("primitives");
        group.bench_function("one_f1b_star/resnet50", |b| {
            b.iter(|| one_f1b_star(&seq, t))
        });
        let pattern = one_f1b_star(&seq, t);
        group.bench_function("check_pattern/resnet50", |b| {
            b.iter(|| check_pattern(chain, &platform, &plan.allocation, &seq, &pattern).unwrap())
        });
        group.bench_function("best_contiguous_period/resnet50", |b| {
            b.iter(|| {
                best_contiguous_period(chain, &platform, &plan.allocation)
                    .unwrap()
                    .period
            })
        });
        group.finish();
    }

    // Partitioners across all four networks.
    {
        let mut group = c.benchmark_group("partitioners");
        group.sample_size(10);
        for chain in &chains {
            group.bench_with_input(
                BenchmarkId::new("pipedream_dp", chain.name()),
                chain,
                |b, chain| {
                    b.iter(|| {
                        pipedream_partition(chain, &platform)
                            .unwrap()
                            .predicted_period
                    })
                },
            );
            let t_hat = chain.total_compute_time() / platform.n_gpus as f64;
            group.bench_with_input(
                BenchmarkId::new("madpipe_dp_single", chain.name()),
                chain,
                |b, chain| {
                    b.iter(|| {
                        madpipe_dp(chain, &platform, t_hat * 1.3, &Discretization::default()).period
                    })
                },
            );
        }
        group.finish();
    }

    // Phase-2 solver and the simulator on a MadPipe allocation.
    {
        let chain = &chains[0];
        let plan = madpipe_core::madpipe_plan(chain, &platform, &Default::default()).unwrap();
        let alloc: &Allocation = &plan.allocation;
        let mut group = c.benchmark_group("scheduling");
        group.sample_size(10);
        group.bench_function("solver_best_period/resnet50", |b| {
            b.iter(|| {
                best_period(
                    chain,
                    &platform,
                    alloc,
                    &PlaceConfig::default(),
                    None,
                    &mut PlaceStats::default(),
                )
                .unwrap()
                .expect("no cutoff")
                .period
            })
        });
        group.bench_function("simulate_eager_100_batches/resnet50", |b| {
            b.iter(|| {
                simulate_eager(
                    chain,
                    &platform,
                    alloc,
                    &EagerConfig {
                        batches: 100,
                        depth: None,
                    },
                )
                .period
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
