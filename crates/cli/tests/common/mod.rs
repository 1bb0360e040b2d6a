//! Helpers shared by the CLI drills that run the built `madpipe` binary:
//! a daemon child that is killed if a test fails before it exits (or
//! when a drill crashes it), a one-shot command runner, and a
//! line-per-request exchange.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A `madpipe serve` child, killed if the test fails before it exits.
pub struct Daemon {
    child: Child,
    /// The address the daemon printed in its `listening on` line.
    pub addr: String,
    /// Readers that drain the daemon's stdout and stderr so neither pipe
    /// fills; the stderr reader returns what it read.
    readers: Option<(JoinHandle<()>, JoinHandle<String>)>,
}

impl Daemon {
    /// Start the daemon and wait (up to 10 s) for `listening on ADDR`.
    pub fn start(args: &[&str]) -> Daemon {
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
    pub fn wait(mut self) -> (Option<i32>, String) {
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

    /// Send the daemon a `SIGKILL` (`Child::kill`) and reap it.
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
