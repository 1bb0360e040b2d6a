//! The metrics a plan exports, pinned: `plan --metrics-out` and
//! `--stats-json` on a feasible plan, a phase-1-infeasible cell and a
//! degenerate instance, and `certify --metrics-out` on a certified plan.
//!
//! Every metric name, their order, every counter and the
//! `dp.solve.states` histogram must match the files under
//! `tests/exports/`. Wall-clock values are masked as `_`: the phase and
//! total gauges, and the `dp.solve.seconds` histogram but for its count
//! (its finite buckets are dropped, since which ones are filled depends
//! on the host).

use std::process::Command;

use madpipe_json::Value;

/// Run `madpipe args` with `--metrics-out` (and `--stats-json` when
/// `stats`) into a fresh directory; return the dump and the stats JSON.
fn export(name: &str, args: &[&str], stats: bool) -> (String, Option<Value>) {
    let dir = std::env::temp_dir().join(format!(
        "madpipe-metrics-export-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let prom = dir.join("metrics.prom");
    let json = dir.join("stats.json");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_madpipe"));
    cmd.args(args).arg("--metrics-out").arg(&prom);
    if stats {
        cmd.arg("--stats-json").arg(&json);
    }
    let out = cmd.output().expect("spawn madpipe");
    assert!(
        out.status.success(),
        "madpipe {args:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = std::fs::read_to_string(&prom).expect("metrics written");
    let json = stats.then(|| {
        let text = std::fs::read_to_string(&json).expect("stats JSON written");
        Value::parse(&text).expect("stats JSON parses")
    });
    std::fs::remove_dir_all(&dir).expect("remove artifact dir");
    (dump, json)
}

/// The Prometheus dump with its wall-clock values masked.
fn masked_dump(dump: &str) -> String {
    let mut out = String::new();
    for line in dump.lines() {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        let kept = if line.starts_with('#') {
            line.to_string()
        } else if name.starts_with("madpipe_dp_solve_seconds") {
            if name.ends_with("_count") || line.contains("le=\"+Inf\"") {
                line.to_string()
            } else if name.ends_with("_bucket") {
                continue;
            } else {
                mask_value(line)
            }
        } else if name.ends_with("_seconds") {
            mask_value(line)
        } else {
            line.to_string()
        };
        out.push_str(&kept);
        out.push('\n');
    }
    out
}

fn mask_value(line: &str) -> String {
    let (series, _) = line.rsplit_once(' ').expect("a sample line");
    format!("{series} _")
}

/// The `metrics` object of a `--stats-json` payload, pretty-printed with
/// its wall-clock values masked.
fn masked_metrics(stats: &Value) -> String {
    let Value::Object(mut groups) = stats.field("metrics").expect("metrics").clone() else {
        panic!("metrics is an object");
    };
    let masked = || Value::Str("_".into());
    for (group, series) in &mut groups {
        let Value::Object(series) = series else {
            panic!("{group} is an object");
        };
        for (name, value) in series {
            match (group.as_str(), name.as_str(), value) {
                ("gauges", _, value) => *value = masked(),
                ("histograms", "dp.solve.seconds", Value::Object(fields)) => {
                    for (field, value) in fields {
                        if field != "count" {
                            *value = masked();
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Value::Object(groups).to_string_pretty() + "\n"
}

/// Compare `actual` with the committed `tests/exports/<file>`.
fn pinned(file: &str, actual: &str) {
    let path = format!("{}/tests/exports/{file}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(actual, expected, "{file} changed");
}

fn plan_exports_are_pinned(name: &str, args: &[&str]) {
    let mut plan = vec!["plan"];
    plan.extend_from_slice(args);
    let (dump, stats) = export(name, &plan, true);
    pinned(&format!("{name}.prom"), &masked_dump(&dump));
    pinned(&format!("{name}.json"), &masked_metrics(&stats.unwrap()));
}

#[test]
fn a_feasible_plan_exports_the_pinned_metrics() {
    plan_exports_are_pinned("feasible", &["resnet50", "--gpus", "4", "--memory-gb", "8"]);
}

#[test]
fn a_phase1_infeasible_cell_exports_the_pinned_metrics() {
    plan_exports_are_pinned("infeasible", &["mlp12", "--gpus", "4", "--memory-gb", "2"]);
}

#[test]
fn a_degenerate_instance_exports_the_pinned_metrics() {
    plan_exports_are_pinned("degenerate", &["resnet50", "--gpus", "300"]);
}

#[test]
fn a_certified_plan_exports_the_pinned_metrics() {
    let args = [
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
    ];
    let (dump, _) = export("certified", &args, false);
    pinned("certified.prom", &masked_dump(&dump));
}
