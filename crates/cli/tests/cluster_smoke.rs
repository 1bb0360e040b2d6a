//! Cluster drill: three daemons behind `madpipe route`, all on port 0.
//!
//! * a pipelined 3-daemon `loadgen` run (6 connections × 500 requests,
//!   depth 8, 4 instances, `--expect-hits`) must reach 10× the
//!   throughput of an uncached single-connection run against one daemon
//!   (64 requests over 64 instances);
//! * the router's `metrics` rollup carries `madpipe_serve_cache_hits`
//!   and `madpipe_cluster_daemons_reporting 3`;
//! * a daemon that routed load reaches gets a `SIGTERM` 0.5 s into it
//!   (4 connections × 2000 requests, depth 4, `--max-retries 5`): the
//!   load exits 0, and the daemon exits 0 and logs `drained, exiting`;
//! * the router's `health` then reports `"alive":2` of
//!   `"configured":3`, and a routed `--expect-hits` run still passes;
//! * the router drains on `shutdown`, the survivors on `SIGTERM`.

mod common;

use std::thread;
use std::time::Duration;

use common::{exchange, loadgen, madpipe, plan_lookups, take_loaded, throughput, Daemon};

#[test]
fn a_routed_cluster_outpaces_one_daemon_and_survives_losing_one() {
    let serve = ["--addr", "127.0.0.1:0", "--threads", "2"];
    let mut daemons: Vec<Daemon> = (0..3).map(|_| Daemon::start(&serve)).collect();
    let [d1, d2, d3] = [&daemons[0], &daemons[1], &daemons[2]];
    let router = Daemon::route(&[d1, d2, d3], &["--addr", "127.0.0.1:0"]);

    // One connection, depth 1, every request a distinct instance: the
    // uncached client the cluster is measured against.
    let baseline = throughput(&loadgen(&[
        "--addr",
        &d1.addr,
        "--connections",
        "1",
        "--requests",
        "64",
        "--instances",
        "64",
        "--seed",
        "777",
    ]));
    let all = format!("{},{},{}", d1.addr, d2.addr, d3.addr);
    let cluster = throughput(&loadgen(&[
        "--addr",
        &all,
        "--connections",
        "6",
        "--requests",
        "500",
        "--pipeline",
        "8",
        "--instances",
        "4",
        "--expect-hits",
    ]));
    assert!(
        cluster >= 10.0 * baseline,
        "cluster {cluster:.1} req/s is under 10x the {baseline:.1} req/s baseline"
    );

    let rollup = exchange(&router.addr, &[r#"{"cmd":"metrics"}"#]).remove(0);
    assert!(rollup.contains("madpipe_serve_cache_hits"), "{rollup}");
    assert!(
        rollup.contains("madpipe_cluster_daemons_reporting 3"),
        "{rollup}"
    );

    // A daemon drains in the middle of routed load: the router fails its
    // keys over and the load still exits 0.
    let before: Vec<u64> = daemons.iter().map(|d| plan_lookups(&d.addr)).collect();
    let addr = router.addr.clone();
    let load = thread::spawn(move || {
        madpipe(&[
            "loadgen",
            "--addr",
            &addr,
            "--connections",
            "4",
            "--requests",
            "2000",
            "--pipeline",
            "4",
            "--instances",
            "4",
            "--max-retries",
            "5",
        ])
    });
    thread::sleep(Duration::from_millis(500));
    let (_, stopped) = take_loaded(&mut daemons, &before);
    stopped.terminate();
    let load = load.join().expect("loadgen thread");
    assert!(
        load.status.success(),
        "routed load failed across the daemon's drain: {:?}\nstdout:\n{}\nstderr:\n{}",
        load.status.code(),
        String::from_utf8_lossy(&load.stdout),
        String::from_utf8_lossy(&load.stderr)
    );
    stopped.drained();

    let health = exchange(&router.addr, &[r#"{"cmd":"health"}"#]).remove(0);
    assert!(health.contains(r#""alive":2"#), "{health}");
    assert!(health.contains(r#""configured":3"#), "{health}");
    loadgen(&[
        "--addr",
        &router.addr,
        "--connections",
        "4",
        "--requests",
        "64",
        "--pipeline",
        "4",
        "--instances",
        "4",
        "--max-retries",
        "5",
        "--expect-hits",
    ]);

    let ack = exchange(&router.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    for survivor in &daemons {
        survivor.terminate();
    }
    for process in [router].into_iter().chain(daemons) {
        process.drained();
    }
}
