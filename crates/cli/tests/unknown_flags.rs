//! Every command rejects flags it does not read: a misspelt or retired
//! flag exits 2 and names the flag, instead of planning at a default or
//! starting a long-running process that silently ignores it.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the built `madpipe` with `args`: it must exit 2 within 10 s and
/// name `--flag` on stderr. A child still running at 10 s is killed and
/// fails the test.
fn rejects(args: &[&str], flag: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn madpipe");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll madpipe") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("madpipe {args:?} was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(
        status.code(),
        Some(2),
        "madpipe {args:?}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("unknown flag --{flag} for {}", args[0])),
        "madpipe {args:?} must name --{flag}\nstderr:\n{stderr}"
    );
}

#[test]
fn serve_rejects_the_retired_peers_flag() {
    rejects(
        &["serve", "--addr", "127.0.0.1:0", "--peers", "127.0.0.1:1"],
        "peers",
    );
}

#[test]
fn serve_rejects_a_misspelt_journal_flag() {
    rejects(
        &["serve", "--addr", "127.0.0.1:0", "--jornal", "x"],
        "jornal",
    );
}

#[test]
fn route_rejects_a_flag_it_does_not_read() {
    rejects(
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--backends",
            "127.0.0.1:1",
            "--peers",
            "x",
        ],
        "peers",
    );
}

#[test]
fn plan_rejects_a_misspelt_memory_flag() {
    rejects(
        &["plan", "resnet50", "--gpus", "4", "--memroy-gb", "3"],
        "memroy-gb",
    );
}

#[test]
fn certify_rejects_a_misspelt_jitter_flag() {
    rejects(
        &[
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
            "--jiter",
            "0.5",
        ],
        "jiter",
    );
}

#[test]
fn experiments_rejects_a_misspelt_threads_flag() {
    rejects(&["experiments", "fig6", "--thredas", "2"], "thredas");
}

#[test]
fn loadgen_rejects_a_misspelt_address_flag() {
    rejects(&["loadgen", "--adress", "127.0.0.1:1"], "adress");
}
