//! Helpers shared by the CLI drills that run the built `madpipe` binary:
//! a daemon or router child that is killed if a test fails before it
//! exits (or when a drill crashes it), a one-shot command runner, a
//! `loadgen` run that must exit 0, a line-per-request exchange, a pick
//! of the daemon a routed load reaches, and a reader for loadgen's
//! throughput.

// Every drill compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A `madpipe serve` or `madpipe route` child, killed if the test fails
/// before it exits.
pub struct Daemon {
    child: Child,
    /// `serve` or `route`.
    command: &'static str,
    /// The address the process printed in its `listening on` or
    /// `routing on` line.
    pub addr: String,
    /// Readers that drain the process's stdout and stderr so neither
    /// pipe fills; the stderr reader returns what it read.
    readers: Option<(JoinHandle<()>, JoinHandle<String>)>,
}

impl Daemon {
    /// Start `madpipe serve` and wait (up to 10 s) for `listening on ADDR`.
    pub fn start(args: &[&str]) -> Daemon {
        Daemon::spawn("serve", args, "listening on ").0
    }

    /// Start `madpipe route --backends` over `backends` and wait (up to
    /// 10 s) for `routing on ADDR -> N backends`, with N the number of
    /// `backends`.
    pub fn route(backends: &[&Daemon], args: &[&str]) -> Daemon {
        let list: Vec<&str> = backends.iter().map(|d| d.addr.as_str()).collect();
        let list = list.join(",");
        let args = [&["--backends", list.as_str()][..], args].concat();
        let (router, banner) = Daemon::spawn("route", &args, "routing on ");
        let expected = format!("-> {} backends", backends.len());
        assert!(
            banner.ends_with(&expected),
            "router printed `routing on {banner}`, expected `{expected}`"
        );
        router
    }

    /// Start `madpipe <command>` and wait (up to 10 s) for a stdout line
    /// starting with `ready`; return the process and the rest of that
    /// line, whose first word is the address.
    fn spawn(command: &'static str, args: &[&str], ready: &str) -> (Daemon, String) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_madpipe"))
            .arg(command)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn madpipe {command}: {e}"));
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
            command,
            addr: String::new(),
            readers: Some((stdout, stderr)),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(ready) {
                        let rest = rest.trim().to_string();
                        daemon.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        return (daemon, rest);
                    }
                }
                Err(_) => panic!("madpipe {command} printed no `{ready}` line within 10 s"),
            }
        }
    }

    /// Wait (up to 10 s) for the process to exit; return its status code
    /// and everything it wrote to stderr.
    pub fn wait(mut self) -> (Option<i32>, String) {
        let command = self.command;
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll the child") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "madpipe {command} was still running 10 s after shutdown"
            );
            thread::sleep(Duration::from_millis(20));
        };
        let (stdout, stderr) = self.readers.take().expect("one wait per process");
        stdout.join().expect("stdout reader");
        (status.code(), stderr.join().expect("stderr reader"))
    }

    /// Wait for the process to exit, as [`Daemon::wait`] does: it must
    /// exit 0 and log `drained, exiting`.
    pub fn drained(self) {
        let command = self.command;
        let (code, stderr) = self.wait();
        assert_eq!(
            code,
            Some(0),
            "madpipe {command} exit code\nstderr:\n{stderr}"
        );
        assert!(
            stderr.contains("drained, exiting"),
            "madpipe {command} logged no `drained, exiting`\nstderr:\n{stderr}"
        );
    }

    /// Send the process a `SIGTERM` with `/bin/kill`, which starts its
    /// graceful drain; [`Daemon::kill`] sends `SIGKILL`, which skips it.
    pub fn terminate(&self) {
        let pid = self.child.id().to_string();
        let status = Command::new("/bin/kill")
            .args(["-TERM", &pid])
            .status()
            .expect("run /bin/kill");
        assert!(status.success(), "/bin/kill -TERM {pid} failed");
    }

    /// Send the process a `SIGKILL` (`Child::kill`) and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

pub fn madpipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_madpipe"))
        .args(args)
        .output()
        .expect("spawn madpipe")
}

/// Run `madpipe loadgen` with `args`; it must exit 0. Returns its report.
pub fn loadgen(args: &[&str]) -> String {
    let out = madpipe(&[&["loadgen"][..], args].concat());
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "loadgen {args:?} exited with {:?}\nstdout:\n{report}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    report
}

/// Send `lines` on one fresh connection and read one response per line.
pub fn exchange(addr: &str, lines: &[&str]) -> Vec<String> {
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

/// Plan requests the daemon at `addr` has looked up in its cache so far:
/// its hits plus its misses (`metrics` leaves out a counter still at 0).
pub fn plan_lookups(addr: &str) -> u64 {
    let answer = exchange(addr, &[r#"{"cmd":"metrics"}"#]).remove(0);
    let parsed = madpipe_json::Value::parse(answer.trim()).expect("metrics answers JSON");
    let text = parsed
        .field("metrics")
        .and_then(madpipe_json::Value::as_str)
        .unwrap_or_else(|e| panic!("no metrics text ({e}) in {answer}"));
    text.lines()
        .filter_map(|l| {
            l.strip_prefix("madpipe_serve_cache_hits ")
                .or_else(|| l.strip_prefix("madpipe_serve_cache_misses "))
        })
        .map(|n| n.trim().parse::<u64>().expect("a counter value"))
        .sum()
}

/// Remove and return a daemon that a routed load reaches: one whose
/// [`plan_lookups`] grew past `before`, read per daemon before the load
/// started. With port-0 addresses the router's ring, and so which
/// daemons own a few instances, changes from run to run.
pub fn take_loaded(daemons: &mut Vec<Daemon>, before: &[u64]) -> (usize, Daemon) {
    let i = (0..daemons.len())
        .rev()
        .find(|&i| plan_lookups(&daemons[i].addr) > before[i])
        .expect("the routed load reaches some daemon");
    (i, daemons.remove(i))
}

/// The requests per second on loadgen's `throughput:` line.
pub fn throughput(report: &str) -> f64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix("throughput:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|rps| rps.parse().ok())
        .unwrap_or_else(|| panic!("no `throughput:` line in the loadgen report:\n{report}"))
}
