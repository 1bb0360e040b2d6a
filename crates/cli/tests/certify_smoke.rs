//! Certification and observability drill: runs the built `madpipe`
//! binary the way a user does and checks exit codes, verdicts and the
//! emitted artifacts.
//!
//! * `certify` passes on VGG-16, Inception-v3, a seeded synthetic chain
//!   (small enough for the exact cross-check) and the tight mlp12 cell
//!   under recompute + 2BW, which the default model cannot plan;
//! * `plan --trace-out/--metrics-out/--stats-json` artifacts re-parse
//!   under `validate-trace` with one span per planner phase;
//! * meaningless fault flags are rejected with exit code 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use madpipe_json::Value;

fn madpipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .output()
        .expect("spawn madpipe")
}

/// Run `madpipe args`, require exit 0 and return its stdout.
fn succeeds(args: &[&str]) -> String {
    let out = madpipe(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "madpipe {args:?} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `madpipe certify <instance> --stats` must exit 0 and print `PASS`.
fn certifies(instance: &[&str]) -> String {
    let mut args = vec!["certify"];
    args.extend_from_slice(instance);
    args.push("--stats");
    let stdout = succeeds(&args);
    assert!(stdout.contains("\nPASS: "), "no PASS line:\n{stdout}");
    stdout
}

/// A fresh per-test artifact directory under the system temp dir.
fn artifact_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "madpipe-certify-smoke-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

#[test]
fn vgg16_certifies() {
    certifies(&["vgg16", "--gpus", "4", "--memory-gb", "10"]);
}

#[test]
fn inception_certifies() {
    certifies(&["inception", "--gpus", "4", "--memory-gb", "8"]);
}

#[test]
fn a_synthetic_chain_certifies_against_the_exact_optimum() {
    let stdout = certifies(&[
        "synthetic",
        "--layers",
        "5",
        "--seed",
        "7",
        "--gpus",
        "2",
        "--memory-gb",
        "8",
    ]);
    assert!(stdout.contains("exact    : optimum"), "{stdout}");
}

#[test]
fn the_tight_cell_needs_recompute_and_2bw() {
    // Weight-dominated mlp12 has no feasible partition on 4 x 2 GB GPUs
    // under the paper's model; recompute + 2BW plans and certifies.
    let stdout = succeeds(&["plan", "mlp12", "--gpus", "4", "--memory-gb", "2"]);
    assert!(stdout.contains("MadPipe   : infeasible"), "{stdout}");
    certifies(&[
        "mlp12",
        "--gpus",
        "4",
        "--memory-gb",
        "2",
        "--recompute",
        "auto",
        "--weights",
        "2bw",
    ]);
}

/// Plan `instance` with tracing and metrics on, then re-parse the
/// artifacts and require every span in `spans`.
fn plan_artifacts_validate(name: &str, instance: &[&str], spans: &str) {
    let dir = artifact_dir(name);
    let path = |file: &str| dir.join(file).to_str().expect("utf-8 path").to_string();
    let (trace, metrics, stats) = (path("trace.json"), path("metrics.prom"), path("stats.json"));
    let mut args = vec!["plan"];
    args.extend_from_slice(instance);
    args.extend_from_slice(&[
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
        "--stats-json",
        &stats,
    ]);
    succeeds(&args);
    succeeds(&[
        "validate-trace",
        &trace,
        "--expect-spans",
        spans,
        "--metrics",
        &metrics,
    ]);
    let text = std::fs::read_to_string(&stats).expect("stats JSON written");
    let json = Value::parse(&text).expect("stats JSON parses");
    // The DP cap counters are exported everywhere, a zero miss count too.
    let dp = json.field("dp").expect("dp counters");
    assert_eq!(dp.field("cap_misses").unwrap().as_u64().unwrap(), 0);
    assert!(dp.field("capped").unwrap().as_u64().unwrap() > 0);
    let prom = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(prom.contains("\nmadpipe_dp_cap_misses 0\n"), "{prom}");
    assert!(prom.contains("\nmadpipe_dp_capped "), "{prom}");
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
}

#[test]
fn vgg16_plan_artifacts_validate() {
    plan_artifacts_validate(
        "vgg16",
        &["vgg16", "--gpus", "4", "--memory-gb", "10"],
        "plan.total,plan.phase1.bisect,plan.fallback.contiguous,plan.refine.grid,\
         plan.phase2.schedule,dp.solve,sim.replay",
    );
}

#[test]
fn synthetic_plan_artifacts_validate() {
    plan_artifacts_validate(
        "synthetic",
        &[
            "synthetic",
            "--layers",
            "8",
            "--seed",
            "7",
            "--gpus",
            "2",
            "--memory-gb",
            "8",
        ],
        "plan.total,plan.phase1.bisect,plan.phase2.schedule,dp.solve",
    );
}

#[test]
fn meaningless_fault_flags_exit_2() {
    for (flag, value) in [
        ("--jitter", "-0.5"),
        ("--jitter", "nan"),
        ("--jitter", "inf"),
        ("--headroom", "nan"),
        ("--headroom", "-1"),
    ] {
        let out = madpipe(&[
            "certify",
            "synthetic",
            "--layers",
            "5",
            "--seed",
            "7",
            "--gpus",
            "2",
            "--memory-gb",
            "8",
            flag,
            value,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}
