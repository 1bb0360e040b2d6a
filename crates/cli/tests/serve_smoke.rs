//! Planning-service drill: runs the built `madpipe` binary as a daemon
//! and drives it the way a client does.
//!
//! * `loadgen` fires pipelined, mixed-instance load at it (4 connections
//!   × 500 requests, depth 8, 4 instances). It must see every request
//!   succeed, the daemon's counters must report both cache hits and
//!   misses (`--expect-hits`), and throughput must clear the committed
//!   `BENCH_serve_speed.json` floor;
//! * a malformed line is answered with a `malformed` error, and the same
//!   connection keeps serving (`ping`); so is a 100,001-byte line of `[`,
//!   nested far past the reader's depth limit;
//! * values past what a field holds are refused, not wrapped: a served
//!   `replan` with a memory of 2^64 bytes is `invalid`, and chains whose
//!   byte counts near `u64::MAX` are `invalid` or refused by the planner,
//!   never a worker panic (this daemon is a debug build, where integer
//!   overflow panics);
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

    // Nesting past the depth limit is malformed, and the reactor thread
    // that parsed it lives on.
    let deep = "[".repeat(100_001);
    let probe = exchange(&daemon.addr, &[&deep, r#"{"cmd":"ping"}"#]);
    assert!(
        probe[0].contains(r#""kind":"malformed""#)
            && probe[0].contains("nesting deeper than 128 levels at byte 128"),
        "{}",
        probe[0]
    );
    assert!(probe[1].contains(r#""pong":true"#), "{probe:?}");

    // 2^64 is no byte count.
    let replan = concat!(
        r#"{"cmd":"replan","chain":{"name":"m","input_bytes":1,"layers":[{"name":"a","forward_time":1,"#,
        r#""backward_time":1,"weight_bytes":1,"activation_bytes":1}]},"platform":{"n_gpus":2,"#,
        r#""memory_bytes":18446744073709551616,"bandwidth_bytes":1e9},"fault":{"kind":"gpu_loss","count":1}}"#
    );
    let answer = exchange(&daemon.addr, &[replan]).remove(0);
    assert!(answer.contains(r#""kind":"invalid""#), "{answer}");

    // Byte counts near `u64::MAX`: sums that overflow, and one layer the
    // planner's memory arithmetic could not hold.
    let layer = |w: u64, a: u64| {
        format!(
            r#"{{"name":"l","forward_time":0.5,"backward_time":0.5,"weight_bytes":{w},"activation_bytes":{a}}}"#
        )
    };
    let line = |input: u64, layers: &[String]| {
        format!(
            r#"{{"cmd":"plan","chain":{{"name":"huge","input_bytes":{input},"layers":[{}]}},"platform":{{"n_gpus":2,"memory_bytes":18446744073709551615,"bandwidth_bytes":1e9}}}}"#,
            layers.join(",")
        )
    };
    let max = u64::MAX;
    let lines = [
        line(1, &[layer(1 << 63, 1), layer(1 << 63, 1)]),
        line(max, &[layer(1, max), layer(1, 1)]),
        line(1, &[layer(max - 1, 1)]),
        line(1, &[layer(1, max / 2), layer(1, max / 2)]),
    ];
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    for answer in exchange(&daemon.addr, &lines) {
        assert!(
            answer.contains(r#""ok":true"#)
                || answer.contains(r#""kind":"invalid""#)
                || answer.contains(r#""kind":"plan""#),
            "{answer}"
        );
    }

    let ack = exchange(&daemon.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    let (code, stderr) = daemon.wait();
    assert_eq!(code, Some(0), "daemon exit code\nstderr:\n{stderr}");
    assert!(
        stderr.contains("drained, exiting"),
        "no `drained, exiting` line\nstderr:\n{stderr}"
    );
}
