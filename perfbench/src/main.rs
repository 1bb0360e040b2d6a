//! End-to-end and per-layer benchmark of MadPipe planning served by the
//! `madpipe serve` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit|schedule --seed N --seconds S --trace 0|1
//! ```
//!
//! A run pins itself to one CPU, starts the daemon in-process on a
//! loopback port (several times, to time set-up), warms it, then drives
//! it for `--seconds` with one closed-loop client, which sends its next
//! request once the previous answer is in. End-to-end times are rescaled
//! to a reference host speed read by a probe kernel ([`pace`]), so they
//! compare across runs on a machine whose speed drifts. Afterwards every
//! distinct plan the daemon served is compared byte for byte with offline
//! planning of the same instance, and the offline plan is certified. The
//! last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`; with `--trace 1` the requests carry trace
//! ids, the planner's span tracer is on from the warm-up on, and the
//! metrics are per layer (see [`layers`]).

mod layers;
mod pace;
mod workload;

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use madpipe_core::{certify_plan, madpipe_plan, CertifyConfig, PlannerConfig};
use madpipe_json::Value;
use madpipe_serve::{plan_to_json, ServeConfig, Server};

use layers::{interquartile_mean, quantile, Counters, LayerLog, ServeClocks};
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <hit|schedule> [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 41;

/// Slices needed before unsteady ones are left out of the figures.
const MIN_STEADY_SLICES: usize = 8;

/// Daemon worker threads.
const WORKERS: usize = 2;

/// How often a traced run empties the flight recorder, well before its
/// ring of recent events can wrap.
const ABSORB_EVERY: Duration = Duration::from_millis(50);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?.max(1),
                "--trace" => args.trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !workload::NAMES.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                workload::NAMES.join(", ")
            ));
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pace::pin_to_one_cpu();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One client connection speaking NDJSON.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request line and read its response line.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let mut payload = String::with_capacity(line.len() + 1);
        payload.push_str(line);
        payload.push('\n');
        self.stream
            .write_all(payload.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if !response.ends_with('\n') {
            return Err("daemon closed the connection".into());
        }
        response.pop();
        Ok(response)
    }
}

/// Distinct responses by template. A correct daemon sends at most two
/// per instance (`cached` false and true); a third means plans differ
/// between requests for one instance, and nothing more is kept.
#[derive(Default)]
struct Responses(HashMap<usize, HashSet<String>>);

impl Responses {
    fn keep(&mut self, template: usize, response: String) {
        let set = self.0.entry(template).or_default();
        if set.len() < 3 {
            set.insert(response);
        }
    }
}

/// What set-up leaves behind: the workload, a running daemon and the client
/// connection.
struct Env {
    workload: Workload,
    server: Server,
    conn: Conn,
    /// Responses to the warm-up requests, checked with the rest.
    responses: Responses,
}

impl Env {
    fn start(name: &str, seed: u64) -> Result<Env, String> {
        let workload = Workload::build(name, seed).ok_or("unknown workload")?;
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: WORKERS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let ready_by = Instant::now() + Duration::from_secs(10);
        while server.workers_alive() < WORKERS {
            if Instant::now() > ready_by {
                return Err("daemon workers did not start".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let conn = Conn::open(server.local_addr())
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        Ok(Env {
            workload,
            server,
            conn,
            responses: Responses::default(),
        })
    }

    /// Send the workload's warm-up requests.
    /// With `trace`, the requests carry trace ids (counted from `WARMUP_ID`).
    fn warm(&mut self, seed: u64, trace: bool) -> Result<(), String> {
        for (t, mut line) in self.workload.warmup() {
            if trace {
                tag(&mut line, trace_id(seed, WARMUP_ID + t as u64));
            }
            let mut response = self.conn.exchange(&line)?;
            untag(&mut response);
            self.responses.keep(t, response);
        }
        Ok(())
    }

    /// Close the connection, drain the daemon and wait for every one of
    /// its threads.
    fn stop(self) -> (Workload, Responses) {
        drop(self.conn);
        self.server.shutdown();
        self.server.join();
        (self.workload, self.responses)
    }
}

/// One request of the timed window.
struct Sample {
    /// Send to response, µs.
    latency_us: f64,
    ok: bool,
    /// When the response arrived, seconds into the window.
    done_s: f64,
}

/// A slice boundary: when it fell, and the host's speed there.
struct Mark {
    /// Seconds into the window.
    at_s: f64,
    /// [`pace::probe`] read just before `at_s`.
    probe_us: f64,
}

/// What the client saw during the timed window.
#[derive(Default)]
struct Log {
    samples: Vec<Sample>,
    /// Slice boundaries: slice `i` runs from mark `i` to mark `i + 1`.
    marks: Vec<Mark>,
    /// `(trace id, round trip µs)` of each traced request.
    rtt: Vec<(u64, f64)>,
    error: Option<String>,
}

impl Log {
    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// End-to-end figures, robust to interference from outside the
    /// process: the timed window is cut into slices of `slice_len`
    /// requests (whole rounds, a fraction of a second each), each slice
    /// gets its own latency quantiles and throughput, rescaled to the
    /// reference host by the probes read on either side of it, and every
    /// figure is the interquartile mean over the slices during which the
    /// host kept its speed. A burst that slows a few slices moves none of
    /// the figures, and a change in host speed is divided out.
    fn end_to_end(&self, slice_len: usize) -> [f64; 3] {
        let mut slices = Vec::new();
        for (slice, ends) in self.samples.chunks(slice_len).zip(self.marks.windows(2)) {
            if slice.len() < slice_len {
                break;
            }
            let (a, b) = (ends[0].probe_us, ends[1].probe_us);
            let steady = a.max(b) <= pace::STEADY * a.min(b);
            let slowdown = pace::slowdown((a + b) / 2.0);
            let ok: Vec<f64> = slice
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.latency_us)
                .collect();
            let end_s = slice.last().map_or(ends[0].at_s, |s| s.done_s);
            let figures = [
                quantile(&ok, 0.5) / 1e3 / slowdown,
                quantile(&ok, 0.9) / 1e3 / slowdown,
                ok.len() as f64 / (end_s - ends[0].at_s) * slowdown,
            ];
            slices.push((steady, figures));
        }
        // Too few steady slices (a host that never settles): use them all.
        if slices.iter().filter(|(steady, _)| *steady).count() >= MIN_STEADY_SLICES {
            slices.retain(|(steady, _)| *steady);
        }
        std::array::from_fn(|i| {
            let figure: Vec<f64> = slices.iter().map(|(_, f)| f[i]).collect();
            interquartile_mean(&figure)
        })
    }
}

/// Drive the daemon until `seconds` have passed and a slice is complete,
/// so every run sends whole copies of one request multiset. The host's
/// speed is probed at every slice boundary.
fn drive(env: &mut Env, args: &Args, layer_log: &mut LayerLog, clocks: &mut ServeClocks) -> Log {
    let mut log = Log::default();
    let started = Instant::now();
    let end = started + Duration::from_secs(args.seconds);
    let slice_len = env.workload.slice_len() as u64;
    let mut absorbed = Instant::now();
    for seq in 0.. {
        if seq % slice_len == 0 {
            let probe_us = pace::probe();
            log.marks.push(Mark {
                at_s: started.elapsed().as_secs_f64(),
                probe_us,
            });
            if Instant::now() >= end {
                break;
            }
        }
        let (template, mut line) = env.workload.request(seq);
        let mut id = 0;
        let mut lookup = None;
        if args.trace {
            if absorbed.elapsed() >= ABSORB_EVERY {
                layer_log.absorb();
                absorbed = Instant::now();
            }
            match clocks.request(&line) {
                Ok(found) => lookup = Some(found),
                Err(e) => {
                    log.error = Some(format!("request {seq} does not parse: {e}"));
                    break;
                }
            }
            id = trace_id(args.seed, seq);
            tag(&mut line, id);
        }
        let t0 = Instant::now();
        let outcome = env.conn.exchange(&line);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        let done_s = started.elapsed().as_secs_f64();
        let mut response = match outcome {
            Ok(response) => response,
            Err(e) => {
                log.samples.push(Sample {
                    latency_us,
                    ok: false,
                    done_s,
                });
                log.error = Some(e);
                break;
            }
        };
        if args.trace {
            log.rtt.push((id, latency_us));
            untag(&mut response);
        }
        log.samples.push(Sample {
            latency_us,
            ok: response.starts_with("{\"ok\":true"),
            done_s,
        });
        let timed = lookup.map_or(Ok(()), |found| clocks.response(found, &response));
        env.responses.keep(template, response);
        if let Err(e) = timed {
            log.error = Some(format!("response {seq}: {e}"));
            break;
        }
    }
    log
}

/// Trace ids of the warm-up requests start here, clear of the timed ones.
const WARMUP_ID: u64 = 1 << 40;

/// Trace id of request `n`: nonzero and unique within the run.
fn trace_id(seed: u64, n: u64) -> u64 {
    ((seed & 0xffff) << 48) | (n + 1)
}

/// Add trace id `id` to a request line.
fn tag(line: &mut String, id: u64) {
    line.pop();
    line.push_str(&format!(",\"trace\":\"{id:016x}\"}}"));
}

/// Take the echoed trace fields off a response, so it compares with
/// untraced ones.
fn untag(response: &mut String) {
    if let Some(cut) = response.rfind(",\"trace\":\"") {
        response.truncate(cut);
        response.push('}');
    }
}

/// Compare every distinct served plan with offline planning of its
/// instance and certify the offline plan. Returns the certification
/// times (µs) or the first disagreement.
fn verify(wl: &Workload, responses: &Responses) -> Result<Vec<f64>, String> {
    let mut templates: Vec<&usize> = responses.0.keys().collect();
    templates.sort();
    let mut certify_us = Vec::new();
    for &t in templates {
        let tpl = &wl.templates[t];
        let seen = &responses.0[&t];
        if seen.len() > 2 {
            return Err(format!("instance {t}: responses differ between requests"));
        }
        let plan = madpipe_plan(&tpl.chain, &tpl.platform, &PlannerConfig::default())
            .map_err(|e| format!("instance {t}: offline planning failed: {e}"))?;
        let expected = plan_to_json(&plan).to_string_compact();
        for response in seen {
            let v = Value::parse(response).map_err(|e| format!("instance {t}: {e}"))?;
            let served = v
                .field("plan")
                .map_err(|_| format!("instance {t}: error response {response}"))?
                .to_string_compact();
            if served != expected {
                return Err(format!(
                    "instance {t}: served plan differs from offline planning"
                ));
            }
        }
        let t0 = Instant::now();
        let cert = certify_plan(&tpl.chain, &tpl.platform, &plan, &CertifyConfig::quick());
        certify_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !cert.passed() {
            return Err(format!(
                "instance {t}: certification failed: {:?}",
                cert.failures
            ));
        }
    }
    Ok(certify_us)
}

fn run(args: &Args) -> Result<String, String> {
    // Set-up is building the instances, starting the daemon and
    // connecting; the warm-up that follows is not timed with it. Each
    // repeat is rescaled to the reference host like the traffic is.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            old.stop();
        }
        let slowdown = pace::slowdown(pace::probe());
        let t0 = Instant::now();
        env = Some(Env::start(&args.workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64() / slowdown);
    }
    let mut env = env.expect("SETUP_REPS > 0");
    // A traced run traces the warm-up too: on `hit` it is the only
    // traffic that reaches the planner.
    let mut layer_log = LayerLog::default();
    let mut clocks = ServeClocks::new();
    if args.trace {
        LayerLog::discard();
        madpipe_obs::set_enabled(true);
    }
    env.warm(args.seed, args.trace)?;

    let before = Counters::read(env.server.registry());
    let log = drive(&mut env, args, &mut layer_log, &mut clocks);
    madpipe_obs::set_enabled(false);
    if args.trace {
        layer_log.absorb();
    }
    let counters = Counters::read(env.server.registry()).since(before);
    let slice_len = env.workload.slice_len();
    let (wl, responses) = env.stop();

    if let Some(e) = &log.error {
        eprintln!("perfbench: client: {e}");
    }
    let verdict = verify(&wl, &responses);
    if let Err(e) = &verdict {
        eprintln!("perfbench: incorrect output: {e}");
    }
    let correct = verdict.is_ok() && log.error.is_none();
    let certify_us = verdict.unwrap_or_default();

    let metrics = if args.trace {
        let probe_us: Vec<f64> = log.marks.iter().map(|m| m.probe_us).collect();
        let mut metrics = layer_log.metrics(&log.rtt, &clocks, &certify_us, &counters);
        metrics.push(("host_probe_ms", quantile(&probe_us, 0.5) / 1e3, "ms"));
        metrics
    } else {
        let [p50, p90, rps] = log.end_to_end(slice_len);
        vec![
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("throughput_rps", rps, "1/s"),
            ("setup_s", quantile(&setup_s, 0.5), "s"),
        ]
    };
    let attempted = log.samples.len() as u64;
    Ok(render(correct, attempted, log.failed(), &metrics))
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
