//! Eager scheduling vs planned periodic schedules — the paper's core
//! motivation, observed in the discrete-event simulator.
//!
//! PipeDream executes its partition with an *eager* 1F1B policy; §4.1
//! argues this makes memory consumption unpredictable. Here we take the
//! same allocation, run (a) the eager policy at several pipeline depths
//! and (b) the 1F1B*/MadPipe periodic pattern, and compare measured
//! throughput and measured memory peaks against the limit.
//!
//! ```sh
//! cargo run --release --example eager_vs_planned [network] [P] [M_gb]
//! ```

use madpipe::core::{madpipe_plan, PlannerConfig};
use madpipe::dnn::{networks, GpuModel};
use madpipe::model::Platform;
use madpipe::sim::{replay, simulate_eager, EagerConfig, FaultSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let net_name = args.get(1).map(String::as_str).unwrap_or("resnet50");
    let p: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let m: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(8);

    let net = networks::by_name(net_name).expect("unknown network");
    let chain = net.profile(8, 1000, &GpuModel::default()).unwrap();
    let platform = Platform::gb(p, m, 12.0).unwrap();
    const GIB: f64 = (1u64 << 30) as f64;

    let plan = madpipe_plan(&chain, &platform, &PlannerConfig::default())
        .expect("planning failed — try a larger memory limit");
    println!(
        "{} on {} GPUs, {} GB each — MadPipe allocation, {} stages\n",
        chain.name(),
        p,
        m,
        plan.allocation.len()
    );
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "policy", "period (ms)", "peak (GB)", "fits?"
    );

    let planned = replay(
        &chain,
        &platform,
        &plan.allocation,
        &plan.schedule.pattern,
        100,
        &FaultSpec::zero(),
    );
    println!(
        "{:<26} {:>12.1} {:>12.2} {:>10}",
        "planned periodic pattern",
        planned.period * 1e3,
        planned.max_peak_bytes() as f64 / GIB,
        if planned.memory_violation {
            "NO"
        } else {
            "yes"
        }
    );

    for depth in [1usize, 2, 4, 8, 16] {
        let eager = simulate_eager(
            &chain,
            &platform,
            &plan.allocation,
            &EagerConfig {
                batches: 100,
                depth: Some(depth),
            },
        );
        println!(
            "{:<26} {:>12.1} {:>12.2} {:>10}",
            format!("eager 1F1B, depth {depth}"),
            eager.period * 1e3,
            eager.max_peak_bytes() as f64 / GIB,
            if eager.memory_violation { "NO" } else { "yes" }
        );
    }
    println!(
        "\nEager scheduling only reaches the planned throughput at depths\n\
         whose memory peak already exceeds the limit — the planned pattern\n\
         gets the throughput *and* provably fits (the paper's §4.1 point)."
    );
}
