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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The committed serve-speed floor, at the repository root.
const FLOOR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_speed.json");

/// A `madpipe serve` child, killed if the test fails before it exits.
struct Daemon {
    child: Child,
    addr: String,
    /// Readers that drain the daemon's stdout and stderr so neither pipe
    /// fills; the stderr reader returns what it read.
    readers: Option<(JoinHandle<()>, JoinHandle<String>)>,
}

impl Daemon {
    /// Start the daemon and wait (up to 10 s) for `listening on ADDR`.
    fn start(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_madpipe"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn madpipe serve");
        let mut stderr = child.stderr.take().expect("piped stderr");
        let stderr = thread::spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let stdout = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            readers: Some((stdout, stderr)),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        daemon.addr = addr.trim().to_string();
                    }
                }
                Err(_) => panic!("madpipe serve printed no `listening on` line within 10 s"),
            }
        }
        daemon
    }

    /// Wait (up to 10 s) for the daemon to exit; return its status code
    /// and everything it wrote to stderr.
    fn wait(mut self) -> (Option<i32>, String) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll madpipe serve") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "madpipe serve was still running 10 s after shutdown"
            );
            thread::sleep(Duration::from_millis(20));
        };
        let (stdout, stderr) = self.readers.take().expect("one wait per daemon");
        stdout.join().expect("stdout reader");
        (status.code(), stderr.join().expect("stderr reader"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn madpipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .output()
        .expect("spawn madpipe")
}

/// Send `lines` on one fresh connection and read one response per line.
fn exchange(addr: &str, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    for line in lines {
        writeln!(stream, "{line}").expect("send request");
    }
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .unwrap_or_else(|e| panic!("no response to {line:?}: {e}"));
            response
        })
        .collect()
}

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
