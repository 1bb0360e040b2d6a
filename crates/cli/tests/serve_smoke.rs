//! Planning-service drill: runs the built `madpipe` binary as a daemon
//! and drives it the way a client does.
//!
//! * `loadgen` fires pipelined, mixed-instance load at it (4 connections
//!   × 500 requests, depth 8, 4 instances). It must see every request
//!   succeed, the daemon's counters must report both cache hits and
//!   misses (`--expect-hits`), and throughput must clear the committed
//!   `BENCH_serve_speed.json` floor;
//! * a malformed line is answered with a `malformed` error, and the same
//!   connection keeps serving (`ping`);
//! * `shutdown` drains the daemon, which logs `drained, exiting` and
//!   exits 0.

mod common;

use common::{exchange, madpipe, Daemon};

/// The committed serve-speed floor, at the repository root.
const FLOOR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_speed.json");

#[test]
fn serve_takes_load_answers_garbage_and_drains() {
    let daemon = Daemon::start(&[
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--cache-entries",
        "128",
        "--timeout-ms",
        "30000",
    ]);

    let load = madpipe(&[
        "loadgen",
        "--addr",
        &daemon.addr,
        "--connections",
        "4",
        "--requests",
        "500",
        "--pipeline",
        "8",
        "--instances",
        "4",
        "--floor",
        FLOOR,
        "--expect-hits",
    ]);
    let report = String::from_utf8_lossy(&load.stdout);
    assert!(
        load.status.success(),
        "loadgen exited with {:?}\nstdout:\n{report}\nstderr:\n{}",
        load.status.code(),
        String::from_utf8_lossy(&load.stderr)
    );
    assert!(
        report.contains("throughput floor ok"),
        "no `throughput floor ok` line:\n{report}"
    );

    // A malformed request is answered, and the connection survives it.
    let probe = exchange(&daemon.addr, &["this is not json", r#"{"cmd":"ping"}"#]);
    assert!(probe[0].contains(r#""kind":"malformed""#), "{probe:?}");
    assert!(probe[1].contains(r#""pong":true"#), "{probe:?}");

    let ack = exchange(&daemon.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    let (code, stderr) = daemon.wait();
    assert_eq!(code, Some(0), "daemon exit code\nstderr:\n{stderr}");
    assert!(
        stderr.contains("drained, exiting"),
        "no `drained, exiting` line\nstderr:\n{stderr}"
    );
}
