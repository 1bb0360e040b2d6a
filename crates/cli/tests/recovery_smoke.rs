//! Crash-recovery drill: a journaling daemon is killed mid-load and
//! restarted on the same journal.
//!
//! * three `plan` lines (`drill0..2`) answer `"cached":false`, then
//!   `"cached":true`; the second answers are kept;
//! * a background `loadgen` (2 connections × 100,000 requests, depth 4,
//!   256 instances) keeps the daemon busy, and 0.5 s into it the daemon
//!   gets a real `SIGKILL`; loadgen's exit status is ignored;
//! * the journal gets the torn tail a mid-append power cut leaves;
//! * a daemon restarted on that journal reports `recovered ≥ 3` and
//!   `torn ≥ 1` on `health`, answers the three lines `"cached":true`
//!   with the kept bytes, acknowledges `shutdown` with
//!   `"draining":true`, and exits 0.

mod common;

use std::fs::OpenOptions;
use std::io::Write;
use std::thread;
use std::time::Duration;

use common::{exchange, madpipe, Daemon};
use madpipe_json::Value;

/// A two-layer chain on 2 GPUs with 2 GB each; `i` varies the first
/// layer's timings so every line is its own cache key.
fn drill_line(i: usize) -> String {
    let fwd = format!("{:.3}", 0.002 + 0.002 * i as f64);
    let bwd = format!("{:.3}", 0.004 + 0.002 * i as f64);
    format!(
        r#"{{"cmd":"plan","chain":{{"name":"drill{i}","input_bytes":1048576,"layers":[{{"name":"l0","forward_time":{fwd},"backward_time":{bwd},"weight_bytes":1048576,"activation_bytes":4194304}},{{"name":"l1","forward_time":0.003,"backward_time":0.006,"weight_bytes":1048576,"activation_bytes":4194304}}]}},"platform":{{"n_gpus":2,"memory_gb":2,"bandwidth_gb":12}}}}"#
    )
}

/// A journaling daemon whose cache holds every plan of the drill, so
/// the restart can only miss a drill plan by failing to recover it: a
/// smaller cache (8 shards) lets the loadgen plans journaled after the
/// drill plans evict one of them during replay.
fn start(journal: &str) -> Daemon {
    Daemon::start(&[
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--cache-entries",
        "4096",
        "--timeout-ms",
        "30000",
        "--journal",
        journal,
    ])
}

#[test]
fn a_killed_daemon_recovers_byte_identical_plans_from_its_journal() {
    let journal = std::env::temp_dir()
        .join(format!(
            "madpipe-recovery-smoke-{}.jsonl",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&journal);
    let lines: Vec<String> = (0..3).map(drill_line).collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

    let mut daemon = start(&journal);
    for answer in exchange(&daemon.addr, &lines) {
        assert!(answer.contains(r#""cached":false"#), "{answer}");
    }
    let before = exchange(&daemon.addr, &lines);
    for answer in &before {
        assert!(answer.contains(r#""cached":true"#), "{answer}");
    }

    let addr = daemon.addr.clone();
    let load = thread::spawn(move || {
        madpipe(&[
            "loadgen",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "100000",
            "--pipeline",
            "4",
            "--instances",
            "256",
        ])
    });
    thread::sleep(Duration::from_millis(500));
    daemon.kill();
    // Loadgen fails once the daemon is gone; only its end matters.
    let _ = load.join().expect("loadgen thread");

    // A mid-append power cut leaves half a frame at the tail.
    OpenOptions::new()
        .append(true)
        .open(&journal)
        .and_then(|mut f| f.write_all(br#"999 deadbeefdeadbeef {"half"#))
        .expect("append a torn tail to the journal");

    let daemon = start(&journal);
    let health = exchange(&daemon.addr, &[r#"{"cmd":"health"}"#]).remove(0);
    let parsed = Value::parse(health.trim()).expect("health answers JSON");
    let recovery = parsed
        .field("health")
        .and_then(|h| h.field("journal"))
        .expect("health reports the journal");
    let count = |key: &str| recovery.field(key).and_then(Value::as_u64);
    assert!(count("recovered").is_ok_and(|n| n >= 3), "{health}");
    assert!(count("torn").is_ok_and(|n| n >= 1), "{health}");
    // The drill plans were journaled before the crash: the restarted
    // daemon answers them from the warmed cache, byte for byte.
    assert_eq!(exchange(&daemon.addr, &lines), before);

    let ack = exchange(&daemon.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    let (code, stderr) = daemon.wait();
    assert_eq!(code, Some(0), "daemon exit code\nstderr:\n{stderr}");
    let _ = std::fs::remove_file(&journal);
}
