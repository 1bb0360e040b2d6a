//! Load generator for `madpipe serve` — single daemon or cluster,
//! closed-loop or paced.
//!
//! N connections each fire M requests over a deterministic pool of
//! mixed instances, and the report aggregates p50/p95/p99 latency, a
//! per-outcome breakdown (`ok`/`cache_hit`/`shed`/`timeout`/`error`)
//! and the cache hit rate observed in the responses.
//!
//! Closed loop (the default): each connection sends its next batch as
//! soon as the previous one is answered — the classic service-time
//! measurement. Paced ([`LoadgenConfig::rate`] > 0): each request gets
//! a slot on a fixed schedule (`rate` req/s split across connections),
//! a batch is not sent before its first slot, and each request's
//! latency is measured from its **scheduled** send time. This is *not*
//! an open-loop arrival process: a connection still sends its next
//! batch only after the previous one is answered, so at most
//! `connections × pipeline_depth` requests are ever in flight, and a
//! server slower than `rate` never sees a queue deeper than that. The
//! scheduled-time quantiles then mostly measure the generator falling
//! behind its own schedule, not server backlog. To overload a daemon,
//! keep many requests in flight: many connections and deep pipelines.
//!
//! Pipelining: with [`LoadgenConfig::pipeline_depth`] > 1 each
//! connection writes a whole batch of newline-delimited requests before
//! reading the batch of responses — the wire pattern the reactor's
//! in-order pipelining exists for. Recorded per-request latency is then
//! the batch round trip divided by its size (amortized, exactly what a
//! pipelining client experiences per request).
//!
//! Multi-target: [`LoadgenConfig::addrs`] may name several daemons;
//! connection `i` targets `addrs[i % addrs.len()]`, so one run can
//! drive a whole cluster in aggregate.
//!
//! Transient transport failures — a refused/reset connect, a connection
//! the server closed mid-exchange — are retried on a fresh connection
//! with capped, deterministically jittered backoff ([`LoadgenConfig::
//! max_retries`]); a failed batch is replayed whole (plans are cached
//! server-side, so replays are cheap hits). Structured protocol errors
//! (`ok:false`) are *not* retried: the server answered, and a closed
//! loop that resends rejected work measures nothing.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use madpipe_json::{ToJson, Value};
use madpipe_model::Platform;

const GIB: u64 = 1 << 30;

/// Load profile.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server addresses, e.g. `["127.0.0.1:4835"]`; connection `i`
    /// targets `addrs[i % addrs.len()]`.
    pub addrs: Vec<String>,
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_conn: usize,
    /// Requests in flight per connection: 1 is the classic
    /// send-one-await-one loop, larger batches pipeline.
    pub pipeline_depth: usize,
    /// Distinct instances in the request mix.
    pub instances: usize,
    /// Seed of the instance pool.
    pub seed: u64,
    /// Per-response read timeout.
    pub timeout: Duration,
    /// Reconnect attempts per batch on transient transport failures
    /// (connect refused, server closed the connection). 0 fails fast.
    pub max_retries: usize,
    /// Paced request rate in requests/second across all connections; 0
    /// keeps the classic closed loop. Paced requests are timestamped by
    /// schedule, not by actual send, so latency includes any time the
    /// generator fell behind. Batches still wait for the previous
    /// batch's answers, so this is not an open-loop arrival process.
    pub rate: f64,
    /// Inject a distributed trace context (`"trace"` field, unique id
    /// per request) into every request line, and count the responses
    /// that echo one back. This is how `madpipe loadgen --trace` seeds
    /// cluster-wide traces: router and daemons hang their spans off the
    /// injected id.
    pub trace: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addrs: vec!["127.0.0.1:4835".into()],
            connections: 4,
            requests_per_conn: 16,
            pipeline_depth: 1,
            instances: 4,
            seed: 42,
            timeout: Duration::from_secs(60),
            max_retries: 3,
            rate: 0.0,
            trace: false,
        }
    }
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    pub total: usize,
    pub ok: usize,
    /// Structured errors that were neither shed nor timed out
    /// (`malformed`, `internal`, `plan`, …).
    pub errors: usize,
    /// Requests the server shed under overload (`overloaded` errors —
    /// a full queue or the admission gate).
    pub shed: usize,
    /// Requests whose deadline elapsed server-side (`timeout` errors).
    pub timeouts: usize,
    pub cached: usize,
    /// Responses that echoed a `trace`/`span` context back (0 unless
    /// [`LoadgenConfig::trace`] was set and the server speaks tracing).
    pub traced: usize,
    /// Reconnect-and-resend attempts taken across all connections.
    pub retries: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Wall clock of the whole run, backoff sleeps included.
    pub elapsed_seconds: f64,
    /// Time spent *sleeping* in retry backoff, summed over connections.
    /// Reported separately so transient faults show up as backoff, not
    /// as deflated throughput.
    pub backoff_seconds: f64,
    /// Request-loop wall clock: the busiest connection's loop time minus
    /// its own backoff sleeps — the denominator of [`throughput`].
    ///
    /// [`throughput`]: LoadgenReport::throughput
    pub request_seconds: f64,
}

impl LoadgenReport {
    /// Fraction of successful responses served from the plan cache.
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cached as f64 / self.ok as f64
        }
    }

    /// Completed requests per second of request-loop time. Backoff
    /// sleeps are excluded — they measure the fault injector (or the
    /// network), not the server; the run's total wall clock (sleeps
    /// included) stays visible in `elapsed_seconds`.
    pub fn throughput(&self) -> f64 {
        if self.request_seconds > 0.0 {
            self.total as f64 / self.request_seconds
        } else {
            0.0
        }
    }
}

impl fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests  : {} total | ok {} | cache_hit {} | shed {} | timeout {} | error {} | retries {}",
            self.total, self.ok, self.cached, self.shed, self.timeouts, self.errors, self.retries
        )?;
        writeln!(
            f,
            "latency   : p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
            self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        writeln!(
            f,
            "cache     : {} cached responses ({:.0}% hit rate)",
            self.cached,
            100.0 * self.hit_rate()
        )?;
        if self.traced > 0 {
            writeln!(f, "tracing   : {} responses echoed a span", self.traced)?;
        }
        write!(
            f,
            "throughput: {:.1} req/s over {:.2} s of request time \
             ({:.2} s wall, {:.2} s retry backoff)",
            self.throughput(),
            self.request_seconds,
            self.elapsed_seconds,
            self.backoff_seconds
        )
    }
}

/// Deterministic pool of `n` request lines: small random chains (same
/// generator as the experiment harness) on a fixed 4-GPU platform,
/// sized so one plan takes milliseconds, not seconds.
pub fn request_lines(n: usize, seed: u64) -> Vec<String> {
    let platform = Platform::new(4, 2 * GIB, 12.0 * GIB as f64).expect("static platform");
    (0..n.max(1) as u64)
        .map(|i| {
            let cfg = madpipe_dnn::RandomChainConfig {
                layers: 8,
                forward_range: (0.5e-3, 5e-3),
                weight_range: (1 << 16, 1 << 20),
                activation_range: (1 << 20, 8 << 20),
                cnn_profile: false,
            };
            let chain = madpipe_dnn::random_chain(&cfg, seed.wrapping_add(i));
            Value::Object(vec![
                ("cmd".into(), Value::Str("plan".into())),
                ("chain".into(), chain.to_json()),
                (
                    "platform".into(),
                    Value::Object(vec![
                        ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
                        ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                        ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
                    ]),
                ),
            ])
            .to_string_compact()
        })
        .collect()
}

/// One request/response exchange on an open connection.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<Value, String> {
    exchange_batch(stream, reader, &[line]).map(|mut vs| vs.pop().expect("one response"))
}

/// A pipelined exchange: write every line of the batch, then read one
/// response per line. The serve reactor answers pipelined requests in
/// order, so response `i` belongs to line `i`.
fn exchange_batch(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    batch: &[&str],
) -> Result<Vec<Value>, String> {
    let mut payload = String::with_capacity(batch.iter().map(|l| l.len() + 1).sum());
    for line in batch {
        payload.push_str(line);
        payload.push('\n');
    }
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut responses = Vec::with_capacity(batch.len());
    for _ in batch {
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".into());
        }
        responses
            .push(Value::parse(response.trim()).map_err(|e| format!("bad response JSON: {e}"))?);
    }
    Ok(responses)
}

/// SplitMix64 finalizer — the jitter source. Deterministic in its seed,
/// so two runs with the same config back off identically.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Backoff before retry `attempt` (1-based): exponential from 10 ms,
/// capped at 200 ms, jittered to 50–150% so retrying connections
/// don't reconnect in lockstep after a mass disconnect.
fn backoff(attempt: usize, jitter_seed: u64) -> Duration {
    let base_ms = (10u64 << (attempt - 1).min(8)).min(200);
    let jitter = 50 + mix(jitter_seed.wrapping_add(attempt as u64)) % 101; // percent
    Duration::from_millis(base_ms * jitter / 100)
}

/// A connected stream plus its buffered read half.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(cfg: &LoadgenConfig, addr: &str) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A closed loop of one-line exchanges would spend its time in
    // Nagle/delayed-ACK stalls otherwise.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(cfg.timeout))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok(Conn { stream, reader })
}

/// One batch exchange with transient-failure retries. Both the connect
/// and the exchange may fail transiently (the server killed the
/// connection, a worker died mid-drain); each failure burns one retry,
/// backs off and reconnects, and the *whole batch* is replayed — with a
/// mid-batch failure there is no telling which responses were in flight,
/// and replays land on the server's plan cache anyway. Returns the
/// responses, how many retries it took, and the total backoff slept —
/// callers subtract the sleeps from their request-loop clock so
/// throughput measures the server, not the backoff schedule.
fn batch_with_retry(
    cfg: &LoadgenConfig,
    addr: &str,
    conn: &mut Option<Conn>,
    batch: &[&str],
    jitter_seed: u64,
) -> Result<(Vec<Value>, usize, Duration), String> {
    let mut retries = 0usize;
    let mut slept = Duration::ZERO;
    loop {
        let attempt: Result<Vec<Value>, String> = match conn {
            Some(c) => exchange_batch(&mut c.stream, &mut c.reader, batch),
            None => match connect(cfg, addr) {
                Ok(c) => {
                    let c = conn.insert(c);
                    exchange_batch(&mut c.stream, &mut c.reader, batch)
                }
                Err(e) => Err(e),
            },
        };
        match attempt {
            Ok(vs) => return Ok((vs, retries, slept)),
            Err(e) => {
                // The connection is in an unknown state; never reuse it.
                *conn = None;
                if retries >= cfg.max_retries {
                    return Err(format!("{e} (after {retries} retries)"));
                }
                retries += 1;
                let pause = backoff(retries, jitter_seed);
                slept += pause;
                std::thread::sleep(pause);
            }
        }
    }
}

/// Splice a root trace context into a request line: the request becomes
/// the root of a distributed trace, and every hop that serves it links
/// its spans to this id. Kept local (16-hex splice before the closing
/// brace) so the bench crate needs no serve dependency.
fn inject_trace(line: &str, id: u64) -> String {
    match line.strip_suffix('}') {
        Some(body) => format!("{body},\"trace\":\"{id:016x}\"}}"),
        None => line.to_string(),
    }
}

/// What one response was, for the report's outcome columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok { cached: bool },
    Shed,
    Timeout,
    Error,
}

/// Classify a structured response. Shed (`overloaded`, `unavailable`)
/// and `timeout` are the server's overload-control verdicts; everything
/// else that is not `ok` is a plain error.
fn classify(v: &Value) -> Outcome {
    if v.get("ok") == Some(&Value::Bool(true)) {
        return Outcome::Ok {
            cached: v.get("cached") == Some(&Value::Bool(true)),
        };
    }
    match v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str().ok())
    {
        Some("overloaded") | Some("unavailable") => Outcome::Shed,
        Some("timeout") => Outcome::Timeout,
        _ => Outcome::Error,
    }
}

/// Per-connection tallies.
#[derive(Debug, Default)]
struct ConnStats {
    latencies: Vec<f64>,
    ok: usize,
    cached: usize,
    shed: usize,
    timeouts: usize,
    errors: usize,
    traced: usize,
    retries: usize,
    backoff_seconds: f64,
    loop_seconds: f64,
}

/// Run the load loop (closed or paced) and aggregate the report.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.addrs.is_empty() {
        return Err("loadgen needs at least one address".into());
    }
    let lines = request_lines(cfg.instances, cfg.seed);
    let depth = cfg.pipeline_depth.max(1);
    // Paced: this connection's share of the request schedule, in
    // seconds between consecutive requests.
    let interval = if cfg.rate > 0.0 {
        Some(cfg.connections.max(1) as f64 / cfg.rate)
    } else {
        None
    };
    let started = Instant::now();
    let per_conn: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|conn| {
                let lines = &lines;
                scope.spawn(move || -> Result<ConnStats, String> {
                    let addr = &cfg.addrs[conn % cfg.addrs.len()];
                    let loop_started = Instant::now();
                    let mut open: Option<Conn> = Some(connect(cfg, addr)?);
                    let mut stats = ConnStats::default();
                    let mut retries = 0usize;
                    let mut slept = Duration::ZERO;
                    // With tracing on, every request instance gets its
                    // own root trace id — unique across connections —
                    // so merged traces never alias two requests.
                    let owned: Vec<String> = (0..cfg.requests_per_conn)
                        .map(|i| {
                            let line = &lines[(conn + i) % lines.len()];
                            if cfg.trace {
                                let id = mix(cfg.seed ^ ((conn as u64) << 40) ^ i as u64) | 1;
                                inject_trace(line, id)
                            } else {
                                line.clone()
                            }
                        })
                        .collect();
                    let sequence: Vec<&str> = owned.iter().map(String::as_str).collect();
                    for (b, batch) in sequence.chunks(depth).enumerate() {
                        let jitter_seed = mix(cfg.seed ^ ((conn as u64) << 32) ^ b as u64);
                        // Paced: wait for the batch's scheduled slot
                        // (never hurry a late one), and measure each
                        // request from its *schedule* — a backlogged
                        // server pays the wait in recorded latency.
                        let scheduled: Option<Vec<Instant>> = interval.map(|dt| {
                            (0..batch.len())
                                .map(|i| {
                                    loop_started
                                        + Duration::from_secs_f64((b * depth + i) as f64 * dt)
                                })
                                .collect()
                        });
                        if let Some(first) = scheduled.as_ref().and_then(|s| s.first()) {
                            let now = Instant::now();
                            if *first > now {
                                std::thread::sleep(*first - now);
                            }
                        }
                        let t0 = Instant::now();
                        let (vs, r, s) =
                            batch_with_retry(cfg, addr, &mut open, batch, jitter_seed)?;
                        let done = Instant::now();
                        // Closed loop: amortized per-request latency (the
                        // batch round trip shared evenly across it).
                        let per_request = (done - t0).as_secs_f64() * 1e3 / batch.len() as f64;
                        retries += r;
                        slept += s;
                        for (i, v) in vs.iter().enumerate() {
                            let ms = match &scheduled {
                                Some(s) => (done - s[i].min(done)).as_secs_f64() * 1e3,
                                None => per_request,
                            };
                            stats.latencies.push(ms);
                            match classify(v) {
                                Outcome::Ok { cached } => {
                                    stats.ok += 1;
                                    stats.cached += usize::from(cached);
                                }
                                Outcome::Shed => stats.shed += 1,
                                Outcome::Timeout => stats.timeouts += 1,
                                Outcome::Error => stats.errors += 1,
                            }
                            if v.get("span").and_then(|s| s.as_str().ok()).is_some() {
                                stats.traced += 1;
                            }
                        }
                    }
                    stats.retries = retries;
                    stats.backoff_seconds = slept.as_secs_f64();
                    stats.loop_seconds = loop_started.elapsed().as_secs_f64();
                    Ok(stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut report = LoadgenReport {
        elapsed_seconds,
        ..LoadgenReport::default()
    };
    for outcome in per_conn {
        let stats = outcome?;
        report.total += stats.latencies.len();
        latencies.extend(stats.latencies);
        report.ok += stats.ok;
        report.cached += stats.cached;
        report.shed += stats.shed;
        report.timeouts += stats.timeouts;
        report.errors += stats.errors;
        report.traced += stats.traced;
        report.retries += stats.retries;
        report.backoff_seconds += stats.backoff_seconds;
        // The run is as long as its busiest connection's sleep-free loop.
        report.request_seconds = report
            .request_seconds
            .max(stats.loop_seconds - stats.backoff_seconds);
    }
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    report.p50_ms = pct(0.50);
    report.p95_ms = pct(0.95);
    report.p99_ms = pct(0.99);
    Ok(report)
}

/// Committed serve-throughput baseline — the `BENCH_serve_speed.json`
/// file CI gates on. The floor a run must clear is
/// `max(abs_grace_rps, rps * rel_factor)`: relative to the committed
/// measurement so real regressions trip it, with an absolute grace so a
/// slow shared CI runner doesn't.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpeedBaseline {
    /// Committed throughput of the reference run, requests per second.
    pub rps: f64,
    /// Fraction of `rps` a run must reach (e.g. 0.05 = 5%).
    pub rel_factor: f64,
    /// Absolute floor that always applies, requests per second.
    pub abs_grace_rps: f64,
}

impl ServeSpeedBaseline {
    /// Parse the committed JSON, e.g.
    /// `{"rps": 9000.0, "rel_factor": 0.05, "abs_grace_rps": 150.0}`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Value::parse(text.trim()).map_err(|e| format!("baseline JSON: {e}"))?;
        let field = |name: &str| -> Result<f64, String> {
            let x = v
                .field(name)
                .and_then(Value::as_f64)
                .map_err(|e| format!("baseline field {name}: {e}"))?;
            if x.is_finite() && x >= 0.0 {
                Ok(x)
            } else {
                Err(format!(
                    "baseline field {name}: not a finite non-negative number"
                ))
            }
        };
        Ok(Self {
            rps: field("rps")?,
            rel_factor: field("rel_factor")?,
            abs_grace_rps: field("abs_grace_rps")?,
        })
    }

    /// Load and parse the committed baseline file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Self::parse(&text)
    }

    /// The throughput a run must reach, requests per second.
    pub fn floor(&self) -> f64 {
        (self.rps * self.rel_factor).max(self.abs_grace_rps)
    }

    /// Gate a report against the floor. `Ok` carries a human-readable
    /// verdict line; `Err` the failure message. Both record the run's
    /// outcome breakdown, so a floor pass that leaned on shed or
    /// timed-out responses is visible in the gate's own output.
    pub fn check(&self, report: &LoadgenReport) -> Result<String, String> {
        let got = report.throughput();
        let floor = self.floor();
        let split = format!(
            "[ok {} | cache_hit {} | shed {} | timeout {} | error {}]",
            report.ok, report.cached, report.shed, report.timeouts, report.errors
        );
        if got >= floor {
            Ok(format!(
                "throughput floor ok: {got:.1} req/s >= {floor:.1} req/s \
                 (baseline {:.1} x {:.2}, grace {:.1}) {split}",
                self.rps, self.rel_factor, self.abs_grace_rps
            ))
        } else {
            Err(format!(
                "throughput {got:.1} req/s below the floor {floor:.1} req/s \
                 (baseline {:.1} x {:.2}, grace {:.1}) {split}",
                self.rps, self.rel_factor, self.abs_grace_rps
            ))
        }
    }
}

/// Fetch the server's Prometheus dump via the `metrics` command.
pub fn fetch_metrics(addr: &str, timeout: Duration) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let v = exchange(&mut stream, &mut reader, r#"{"cmd":"metrics"}"#)?;
    v.field("metrics")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .map_err(|e| format!("metrics response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_pool_is_deterministic_and_parseable() {
        let a = request_lines(3, 7);
        let b = request_lines(3, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_ne!(a[0], a[1], "instances differ");
        for line in &a {
            let v = Value::parse(line).unwrap();
            assert_eq!(v.field("cmd").unwrap().as_str(), Ok("plan"));
            assert!(v.get("chain").is_some() && v.get("platform").is_some());
        }
    }

    #[test]
    fn report_rates() {
        // 10 requests over 2.5 s wall, of which 0.5 s was backoff sleep:
        // throughput uses the 2 s request-loop denominator, not the wall.
        let r = LoadgenReport {
            total: 10,
            ok: 6,
            errors: 1,
            shed: 2,
            timeouts: 1,
            cached: 3,
            traced: 10,
            retries: 3,
            p50_ms: 1.0,
            p95_ms: 1.5,
            p99_ms: 2.0,
            elapsed_seconds: 2.5,
            backoff_seconds: 0.5,
            request_seconds: 2.0,
        };
        assert_eq!(r.hit_rate(), 0.5);
        assert_eq!(r.throughput(), 5.0);
        let text = r.to_string();
        assert!(text.contains("p50 1.00 ms"), "{text}");
        assert!(text.contains("p95 1.50 ms"), "{text}");
        assert!(text.contains("50% hit rate"), "{text}");
        assert!(text.contains("shed 2"), "{text}");
        assert!(text.contains("timeout 1"), "{text}");
        assert!(text.contains("error 1"), "{text}");
        assert!(text.contains("retries 3"), "{text}");
        assert!(text.contains("0.50 s retry backoff"), "{text}");
        assert!(text.contains("2.50 s wall"), "{text}");
        assert!(text.contains("10 responses echoed a span"), "{text}");
        let untraced = LoadgenReport::default().to_string();
        assert!(
            !untraced.contains("tracing"),
            "no tracing line without traced responses: {untraced}"
        );
    }

    #[test]
    fn responses_classify_into_outcome_columns() {
        let case = |text: &str| classify(&Value::parse(text).unwrap());
        assert_eq!(
            case(r#"{"ok":true,"cached":true}"#),
            Outcome::Ok { cached: true }
        );
        assert_eq!(
            case(r#"{"ok":true,"cached":false}"#),
            Outcome::Ok { cached: false }
        );
        assert_eq!(
            case(r#"{"ok":false,"error":{"kind":"overloaded","message":"m"}}"#),
            Outcome::Shed
        );
        assert_eq!(
            case(r#"{"ok":false,"error":{"kind":"unavailable","message":"m"}}"#),
            Outcome::Shed
        );
        assert_eq!(
            case(r#"{"ok":false,"error":{"kind":"timeout","message":"m"}}"#),
            Outcome::Timeout
        );
        assert_eq!(
            case(r#"{"ok":false,"error":{"kind":"internal","message":"m"}}"#),
            Outcome::Error
        );
        assert_eq!(case(r#"{"ok":false}"#), Outcome::Error);
    }

    #[test]
    fn trace_injection_splices_a_valid_hex_root() {
        let line = r#"{"cmd":"ping"}"#;
        let traced = inject_trace(line, 0xabcd);
        let v = Value::parse(&traced).unwrap();
        assert_eq!(v.field("cmd").unwrap().as_str(), Ok("ping"));
        assert_eq!(v.field("trace").unwrap().as_str(), Ok("000000000000abcd"));
        // Every request line in the pool is injectable.
        for line in request_lines(2, 9) {
            assert!(Value::parse(&inject_trace(&line, 7)).is_ok());
        }
    }

    #[test]
    fn throughput_excludes_backoff_sleeps() {
        // Same work, one run with a second of backoff: identical
        // throughput, different wall clock.
        let clean = LoadgenReport {
            total: 100,
            request_seconds: 10.0,
            elapsed_seconds: 10.0,
            ..LoadgenReport::default()
        };
        let faulted = LoadgenReport {
            total: 100,
            retries: 5,
            request_seconds: 10.0,
            elapsed_seconds: 11.0,
            backoff_seconds: 1.0,
            ..LoadgenReport::default()
        };
        assert_eq!(clean.throughput(), faulted.throughput());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        for attempt in 1..=12usize {
            let a = backoff(attempt, 7);
            assert_eq!(a, backoff(attempt, 7), "same seed, same delay");
            // 50–150% of a 10 ms..200 ms exponential window.
            assert!(a >= Duration::from_millis(5), "attempt {attempt}: {a:?}");
            assert!(a <= Duration::from_millis(300), "attempt {attempt}: {a:?}");
        }
        assert_ne!(
            backoff(1, 1),
            backoff(1, 2),
            "different seeds should (here) jitter apart"
        );
    }

    #[test]
    fn transient_eof_is_retried_and_counted() {
        use std::io::BufRead;
        use std::net::TcpListener;

        // A server that kills the first connection mid-request and
        // answers on the second: the loadgen must retry and succeed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            drop(first); // EOF before any response
            let (mut second, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(second.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            second
                .write_all(b"{\"ok\":true,\"cached\":false}\n")
                .unwrap();
        });

        let cfg = LoadgenConfig {
            addrs: vec![addr.to_string()],
            max_retries: 2,
            timeout: Duration::from_secs(5),
            ..LoadgenConfig::default()
        };
        let target = cfg.addrs[0].clone();
        let mut conn = Some(connect(&cfg, &target).unwrap());
        let (vs, retries, slept) =
            batch_with_retry(&cfg, &target, &mut conn, &[r#"{"cmd":"ping"}"#], 3).unwrap();
        assert_eq!(vs[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(retries, 1, "one EOF, one retry");
        assert_eq!(slept, backoff(1, 3), "the one retry's backoff is reported");
        server.join().unwrap();
    }

    #[test]
    fn retries_exhaust_into_an_error() {
        // Nothing listens on this address (bind, learn the port, drop).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = LoadgenConfig {
            addrs: vec![addr.clone()],
            max_retries: 1,
            timeout: Duration::from_secs(1),
            ..LoadgenConfig::default()
        };
        let mut conn = None;
        let err = batch_with_retry(&cfg, &addr, &mut conn, &[r#"{"cmd":"ping"}"#], 3).unwrap_err();
        assert!(err.contains("after 1 retries"), "{err}");
    }

    #[test]
    fn pipelined_batch_keeps_responses_in_order() {
        use std::io::Read;
        use std::net::TcpListener;

        // A server that reads the whole 3-line batch before answering —
        // only a client that really pipelines (writes all lines up
        // front) gets responses at all — then replies tagged by index.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            while buf.iter().filter(|&&b| b == b'\n').count() < 3 {
                let mut chunk = [0u8; 256];
                let n = s.read(&mut chunk).unwrap();
                assert!(n > 0, "client must have pipelined all 3 lines");
                buf.extend_from_slice(&chunk[..n]);
            }
            assert_eq!(std::str::from_utf8(&buf).unwrap().lines().count(), 3);
            for i in 0..3 {
                s.write_all(format!("{{\"ok\":true,\"seq\":{i}}}\n").as_bytes())
                    .unwrap();
            }
        });

        let cfg = LoadgenConfig {
            addrs: vec![addr.to_string()],
            timeout: Duration::from_secs(5),
            ..LoadgenConfig::default()
        };
        let target = cfg.addrs[0].clone();
        let mut conn = Some(connect(&cfg, &target).unwrap());
        let batch = [r#"{"cmd":"a"}"#, r#"{"cmd":"b"}"#, r#"{"cmd":"c"}"#];
        let (vs, retries, _) = batch_with_retry(&cfg, &target, &mut conn, &batch, 3).unwrap();
        assert_eq!(retries, 0);
        let seqs: Vec<_> = vs.iter().map(|v| v.field("seq").unwrap().clone()).collect();
        assert_eq!(
            seqs,
            vec![Value::UInt(0), Value::UInt(1), Value::UInt(2)],
            "responses must come back in request order"
        );
        server.join().unwrap();
    }

    #[test]
    fn open_loop_paces_arrivals_and_charges_backlog_to_latency() {
        use std::io::BufRead;
        use std::net::TcpListener;

        // A server that takes 25 ms per response: a closed loop would
        // record ~25 ms for every request, silently omitting the queue
        // that builds when arrivals outpace service. The open loop fires
        // on schedule (4x faster than the server drains) and measures
        // from the schedule, so the backlog must show up as growing
        // recorded latency.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            for _ in 0..8 {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
                s.write_all(b"{\"ok\":true,\"cached\":false}\n").unwrap();
            }
        });

        let cfg = LoadgenConfig {
            addrs: vec![addr.to_string()],
            connections: 1,
            requests_per_conn: 8,
            rate: 160.0, // schedule: one request every 6.25 ms
            timeout: Duration::from_secs(5),
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).unwrap();
        server.join().unwrap();
        assert_eq!(report.total, 8);
        assert_eq!(report.ok, 8);
        // The last arrival was scheduled at ~44 ms but answered at
        // ~200 ms: far beyond the 25 ms service time. With coordinated
        // omission the p99 would sit at ~25 ms; corrected it must not.
        assert!(
            report.p99_ms > 60.0,
            "open-loop p99 must include queueing delay, got {:.2} ms",
            report.p99_ms
        );
        assert!(
            report.p50_ms > report.p99_ms / 10.0,
            "latencies should grow with the backlog: p50 {:.2} p99 {:.2}",
            report.p50_ms,
            report.p99_ms
        );
    }

    #[test]
    fn speed_baseline_parses_and_gates() {
        let base =
            ServeSpeedBaseline::parse(r#"{"rps": 1000.0, "rel_factor": 0.1, "abs_grace_rps": 50}"#)
                .unwrap();
        assert_eq!(base.floor(), 100.0, "relative term dominates");
        let grace = ServeSpeedBaseline {
            rps: 100.0,
            ..base.clone()
        };
        assert_eq!(
            grace.floor(),
            50.0,
            "absolute grace dominates a tiny baseline"
        );

        let fast = LoadgenReport {
            total: 1000,
            request_seconds: 5.0,
            ..LoadgenReport::default()
        };
        assert!(base.check(&fast).unwrap().contains("floor ok"));
        let slow = LoadgenReport {
            total: 100,
            request_seconds: 5.0,
            ..LoadgenReport::default()
        };
        let err = base.check(&slow).unwrap_err();
        assert!(err.contains("below the floor"), "{err}");

        assert!(ServeSpeedBaseline::parse("{}").is_err(), "missing fields");
        assert!(
            ServeSpeedBaseline::parse(r#"{"rps": -1, "rel_factor": 0.1, "abs_grace_rps": 0}"#)
                .is_err(),
            "negative rps rejected"
        );
    }
}
