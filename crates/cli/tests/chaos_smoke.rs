//! Degraded-mode replanning drill: runs the built `madpipe` binary the
//! way an operator does after a fault.
//!
//! * `madpipe replan` plans an 8-layer synthetic chain on 4 GPUs with
//!   4 GB each after losing one GPU, and again after losing half of
//!   every GPU's memory; both must exit 0 and print the planner stats;
//! * a daemon (2 workers) reports `"workers_alive":2` on `health`,
//!   answers a `replan` line with the degraded plan and its
//!   `"throughput_delta"`, acknowledges `shutdown` with
//!   `"draining":true`, and exits 0.
//!
//! `replan` plans through a DP probe session, so this drill runs the
//! planner end to end on a degraded platform.

mod common;

use common::{exchange, madpipe, Daemon};

/// A two-layer chain on 3 GPUs with 2 GB each, losing one GPU.
const REPLAN: &str = r#"{"cmd":"replan","fault":{"kind":"gpu_loss","count":1},"chain":{"name":"ci","input_bytes":1048576,"layers":[{"name":"l0","forward_time":0.002,"backward_time":0.004,"weight_bytes":1048576,"activation_bytes":4194304},{"name":"l1","forward_time":0.003,"backward_time":0.006,"weight_bytes":1048576,"activation_bytes":4194304}]},"platform":{"n_gpus":3,"memory_gb":2,"bandwidth_gb":12}}"#;

#[test]
fn offline_replans_survive_gpu_loss_and_memory_faults() {
    for fault in ["gpu-loss:1", "memory:0.5"] {
        let out = madpipe(&[
            "replan",
            "synthetic",
            "--layers",
            "8",
            "--gpus",
            "4",
            "--memory-gb",
            "4",
            "--fault",
            fault,
            "--stats",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "replan --fault {fault} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("planner"), "no planner stats:\n{stdout}");
    }
}

#[test]
fn served_replan_reports_health_and_drains() {
    let daemon = Daemon::start(&[
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--cache-entries",
        "64",
        "--timeout-ms",
        "30000",
    ]);

    let health = exchange(&daemon.addr, &[r#"{"cmd":"health"}"#]);
    assert!(health[0].contains(r#""workers_alive":2"#), "{health:?}");

    let replan = exchange(&daemon.addr, &[REPLAN]);
    assert!(replan[0].contains(r#""ok":true"#), "{replan:?}");
    assert!(replan[0].contains(r#""throughput_delta""#), "{replan:?}");

    let ack = exchange(&daemon.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    let (code, stderr) = daemon.wait();
    assert_eq!(code, Some(0), "daemon exit code\nstderr:\n{stderr}");
}
