//! Distributed-tracing drill: three daemons and `madpipe route`, all on
//! port 0, each writing its flight recorder to a `--flight-dump` file.
//!
//! * traced load through the router (4 connections × 768 requests,
//!   depth 4, 4 instances, `--trace --max-retries 5`; 3072 requests
//!   keep every flight ring below its capacity, so the merged trace is
//!   complete) exits 0 while a daemon it reaches gets a `SIGTERM` 0.5 s
//!   in;
//! * every response echoes a span, and throughput reaches 90% of the
//!   committed `BENCH_serve_speed.json` floor;
//! * that daemon exits 0, logs `drained, exiting` and leaves a
//!   non-empty dump; after the router's `shutdown` and the survivors'
//!   `SIGTERM`, every process has drained and left one;
//! * `trace-merge` of the four dumps passes `validate-trace
//!   --expect-spans router.forward,serve.request,serve.queue.wait,serve.worker,serve.dp`.

mod common;

use std::fs;
use std::thread;
use std::time::Duration;

use common::{exchange, madpipe, plan_lookups, take_loaded, throughput, Daemon};
use madpipe_bench::loadgen::ServeSpeedBaseline;

/// The committed serve-speed floor, at the repository root.
const FLOOR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_speed.json");

/// The count before `label` on the loadgen report line starting `line`.
fn count(report: &str, line: &str, label: &str) -> usize {
    report
        .lines()
        .find_map(|l| l.strip_prefix(line))
        .and_then(|rest| rest.split(label).next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{line} N {label}` in the loadgen report:\n{report}"))
}

/// Run `madpipe` with `args`; it must exit 0.
fn succeeds(args: &[&str]) {
    let out = madpipe(args);
    assert!(
        out.status.success(),
        "madpipe {args:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn non_empty(path: &str) -> bool {
    fs::metadata(path).is_ok_and(|m| m.len() > 0)
}

#[test]
fn a_traced_cluster_leaves_one_mergeable_trace_across_a_daemon_drain() {
    let dir = std::env::temp_dir().join(format!("madpipe-trace-smoke-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the dump directory");
    let dump = |name: &str| -> String { dir.join(name).to_string_lossy().into_owned() };
    let dumps = [
        dump("dump1.jsonl"),
        dump("dump2.jsonl"),
        dump("dump3.jsonl"),
        dump("dump_router.jsonl"),
    ];
    let daemon = |dump: &str| {
        Daemon::start(&[
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--flight-dump",
            dump,
        ])
    };
    let mut daemons: Vec<Daemon> = dumps[..3].iter().map(|d| daemon(d)).collect();
    let router = Daemon::route(
        &[&daemons[0], &daemons[1], &daemons[2]],
        &["--addr", "127.0.0.1:0", "--flight-dump", &dumps[3]],
    );

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
            "768",
            "--pipeline",
            "4",
            "--instances",
            "4",
            "--trace",
            "--max-retries",
            "5",
        ])
    });
    thread::sleep(Duration::from_millis(500));
    let (stopped_at, stopped) = take_loaded(&mut daemons, &before);
    stopped.terminate();
    let load = load.join().expect("loadgen thread");
    let report = String::from_utf8_lossy(&load.stdout).into_owned();
    assert!(
        load.status.success(),
        "traced load failed across the daemon's drain: {:?}\nstdout:\n{report}\nstderr:\n{}",
        load.status.code(),
        String::from_utf8_lossy(&load.stderr)
    );
    let total = count(&report, "requests  :", "total");
    let traced = count(&report, "tracing   :", "responses echoed a span");
    assert_eq!(traced, total, "a response echoed no span:\n{report}");
    let floor = 0.9
        * ServeSpeedBaseline::load(FLOOR)
            .expect("read the floor")
            .floor();
    let rps = throughput(&report);
    assert!(
        rps >= floor,
        "traced {rps:.1} req/s is under 90% of the floor, {floor:.1} req/s"
    );

    stopped.drained();
    let stopped_dump = &dumps[stopped_at];
    assert!(
        non_empty(stopped_dump),
        "the stopped daemon left no {stopped_dump}"
    );

    // Every process appends its final flight dump on the way out.
    let ack = exchange(&router.addr, &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""draining":true"#), "{ack:?}");
    for survivor in &daemons {
        survivor.terminate();
    }
    for process in [router].into_iter().chain(daemons) {
        process.drained();
    }
    for path in &dumps {
        assert!(non_empty(path), "{path} is missing or empty");
    }

    let merged = dump("merged.json");
    let mut merge: Vec<&str> = vec!["trace-merge"];
    merge.extend(dumps.iter().map(String::as_str));
    merge.extend(["--out", &merged]);
    succeeds(&merge);
    succeeds(&[
        "validate-trace",
        &merged,
        "--expect-spans",
        "router.forward,serve.request,serve.queue.wait,serve.worker,serve.dp",
    ]);
    let _ = fs::remove_dir_all(&dir);
}
