//! Overload drill: a storm at three times a daemon's measured uncached
//! capacity is shed at admission.
//!
//! * capacity: one closed-loop connection sends 64 requests over 64
//!   instances (`--seed 777`) to a `--threads 1 --cache-entries 0`
//!   daemon; loadgen's throughput is the daemon's uncached service rate;
//! * the storm daemon has the same flags and a deadline of 20 service
//!   times, `⌈20,000 / capacity⌉` ms;
//! * the storm: 8 connections × 192 requests at depth 16 over 4096
//!   instances (`--seed 778`), paced at 3× capacity, with a 10 s client
//!   timeout. Up to 128 requests are in flight, far more than one worker
//!   finishes in 20 service times, so the admission bound must refuse
//!   work up front while the head of the queue is still served: `ok > 0`,
//!   `shed > 0` and `madpipe_serve_shed_overload > 0`, and p95, charged
//!   from each request's scheduled send time, under 10,000 ms;
//! * both daemons acknowledge `shutdown` with `"draining":true` and
//!   drain cleanly.

mod common;

use common::{exchange, loadgen, throughput, Daemon};

/// A one-worker daemon that caches nothing, plus `extra` flags.
fn start(extra: &[&str]) -> Daemon {
    let flags = [
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--cache-entries",
        "0",
    ];
    Daemon::start(&[&flags[..], extra].concat())
}

/// Ask `daemon` to shut down; it must acknowledge and drain cleanly.
fn drain(daemon: Daemon) {
    let ack = exchange(&daemon.addr, &[r#"{"cmd":"shutdown"}"#]).remove(0);
    assert!(
        ack.contains(r#""draining":true"#),
        "shutdown answered {ack}"
    );
    daemon.drained();
}

/// The number after the word `name` on the first report line starting
/// with `line` that has one.
fn word_after(report: &str, line: &str, name: &str) -> Option<f64> {
    report
        .lines()
        .filter(|l| l.trim_start().starts_with(line))
        .find_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let at = words.iter().position(|w| *w == name)?;
            words.get(at + 1)?.parse().ok()
        })
}

/// [`word_after`], which must be there.
fn field(report: &str, line: &str, name: &str) -> f64 {
    word_after(report, line, name)
        .unwrap_or_else(|| panic!("no `{name}` on a `{line}` line of the report:\n{report}"))
}

#[test]
fn a_storm_at_three_times_capacity_is_shed_at_admission() {
    let daemon = start(&[]);
    let capacity = throughput(&loadgen(&[
        "--addr",
        &daemon.addr,
        "--connections",
        "1",
        "--requests",
        "64",
        "--instances",
        "64",
        "--seed",
        "777",
    ]));
    drain(daemon);
    assert!(capacity > 0.0, "capacity {capacity} req/s");

    let rate = format!("{:.1}", 3.0 * capacity);
    let deadline = (20_000.0 / capacity).ceil().to_string();
    let daemon = start(&["--timeout-ms", &deadline]);
    let storm = loadgen(&[
        "--addr",
        &daemon.addr,
        "--connections",
        "8",
        "--pipeline",
        "16",
        "--requests",
        "192",
        "--instances",
        "4096",
        "--seed",
        "778",
        "--rate",
        &rate,
        "--timeout-ms",
        "10000",
    ]);
    let ok = field(&storm, "requests", "ok");
    let shed = field(&storm, "requests", "shed");
    let p95 = field(&storm, "latency", "p95");
    // The daemon's counters follow the report; one still at 0 is absent.
    let overload = word_after(
        &storm,
        "madpipe_serve_shed_overload ",
        "madpipe_serve_shed_overload",
    )
    .unwrap_or(0.0);
    let summary = format!(
        "capacity {capacity:.1} req/s, storm {rate} req/s, deadline {deadline} ms: \
         ok {ok}, shed {shed}, p95 {p95} ms, shed_overload {overload}\n{storm}"
    );
    assert!(ok > 0.0, "no request was served: {summary}");
    assert!(shed > 0.0, "no request was shed: {summary}");
    assert!(overload > 0.0, "no refusal at admission: {summary}");
    assert!(
        p95 < 10_000.0,
        "p95 at or above the client timeout: {summary}"
    );
    drain(daemon);
}
