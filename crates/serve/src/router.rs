//! The cluster router: consistent hashing over daemon backends, keyed
//! on the canonical instance string.
//!
//! The router speaks the same NDJSON protocol as the daemons. `plan` and
//! `replan` lines are forwarded *verbatim* to the backend that owns the
//! request's canonical key on the hash ring — the daemon re-parses and
//! answers, so a routed response is byte-identical to a direct one. (The
//! one exception is a line carrying a distributed `trace` field: the
//! router rewrites its `parent` to the freshly minted `router.forward`
//! span before forwarding, so the daemon's request span hangs off the
//! router hop in the merged cluster trace — see
//! [`crate::protocol::inject_context`].) The
//! same instance always lands on the same daemon (so its plan is
//! computed once and then served from that daemon's cache), and
//! adding or removing a daemon only remaps the keys the ring assigned to
//! it — the consistent-hashing property, tested on [`Ring`] directly.
//!
//! Failover: every backend sits behind a circuit [`Breaker`]
//! (closed → open → half-open). An exchange failure counts against the
//! backend; at the threshold the breaker trips open and requests skip
//! the backend outright — no dial timeout burned on a corpse — until
//! the open window lapses and a single half-open probe is admitted,
//! whose success closes the breaker (counters `router.backend_errors`,
//! `router.failover`, `router.breaker.*`). Failover retries themselves
//! are metered by a token-bucket retry budget (a deposit per request,
//! a withdrawal per retry, so retries stay a bounded fraction of
//! traffic and a dead cluster cannot trigger a retry storm). Only when
//! every candidate is down, shed, or out of budget does the client see
//! an `unavailable` error.
//!
//! Rollups: `health` fans out to every backend and reports per-daemon
//! status plus an `alive` count; `metrics` sums each daemon's plain
//! Prometheus samples (via [`madpipe_obs::validate::prometheus_samples`])
//! into one cluster-wide dump, appends `madpipe_cluster_*` gauges and
//! the router's own counters. `ping`/`shutdown` are local to the router.
//!
//! Routing is the one cluster protocol: daemons never talk to each
//! other. When a key's home daemon dies, the next ring candidate plans
//! the key once and serves it from its own cache from then on; a daemon
//! restarted with `--journal` replays its cache before it listens.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use madpipe_json::Value;
use madpipe_obs::Registry;

use crate::journal::fnv1a;
use crate::protocol::{
    error_response, inject_context, ok_response, parse_line, Request, ServeError, TraceContext,
};
use crate::server::{lock_unpoisoned, MAX_LINE_BYTES};

/// Poll cadence of the router's accept loop and drain checks.
const POLL: Duration = Duration::from_millis(50);

/// Cap on one backend response line (a rendered plan is well under
/// [`MAX_LINE_BYTES`]; the backend enforces the same bound inbound).
const MAX_RESPONSE_BYTES: usize = 4 << 20;

/// One client connection's persistent backend connections, by backend
/// index, each read through its own buffer.
type Backends = HashMap<usize, BufReader<TcpStream>>;

const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`:0` picks a free port).
    pub addr: String,
    /// Daemon backends, e.g. `["127.0.0.1:4861", …]`. Order is identity:
    /// the ring hashes `addr#vnode` strings.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Per-exchange dial + I/O budget against one backend.
    pub timeout: Duration,
    /// Dial + I/O budget for `health`/`metrics` rollup probes. Much
    /// shorter than `timeout`: a rollup should detect a dead daemon in
    /// probe time, not hang a cluster health check for a full planning
    /// budget.
    pub probe_timeout: Duration,
    /// Consecutive exchange failures that trip a backend's circuit
    /// breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before it admits a single
    /// half-open probe.
    pub breaker_open: Duration,
    /// Where `join()` dumps the flight-recorder ring (JSONL). `None`
    /// skips the dump; the ring records regardless.
    pub flight_dump: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4830".into(),
            backends: Vec::new(),
            vnodes: 64,
            timeout: Duration::from_secs(60),
            probe_timeout: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_open: Duration::from_millis(500),
            flight_dump: None,
        }
    }
}

/// Retry-budget token bucket, accounted in integer *tenths* of a token
/// (exact, no float drift): each forwarded request deposits one tenth,
/// each failover retry withdraws ten. Retries therefore converge to at
/// most ~10% of offered traffic, with a burst allowance of
/// [`RETRY_CAP`] whole tokens — enough to ride out a single backend
/// dying, not enough to amplify a dead cluster into a retry storm.
const RETRY_CAP: u64 = 100;
const TENTHS_PER_RETRY: u64 = 10;

struct RetryBudget {
    tenths: Mutex<u64>,
}

impl RetryBudget {
    /// The bucket starts full so cold-start failovers are never starved.
    fn new() -> RetryBudget {
        RetryBudget {
            tenths: Mutex::new(RETRY_CAP * TENTHS_PER_RETRY),
        }
    }

    fn deposit(&self) {
        let mut tenths = lock_unpoisoned(&self.tenths);
        *tenths = (*tenths + 1).min(RETRY_CAP * TENTHS_PER_RETRY);
    }

    /// Take one retry token; `false` means the budget is exhausted and
    /// the caller must stop failing over.
    fn withdraw(&self) -> bool {
        let mut tenths = lock_unpoisoned(&self.tenths);
        if *tenths >= TENTHS_PER_RETRY {
            *tenths -= TENTHS_PER_RETRY;
            true
        } else {
            false
        }
    }
}

/// Per-backend circuit breaker: closed → open → half-open → closed.
///
/// Closed counts *consecutive* failures; at the threshold the breaker
/// opens for `open_for` and requests shed the backend instantly instead
/// of burning a dial timeout on it. When the window lapses, the next
/// caller is admitted as the single half-open canary: its success
/// closes the breaker, its failure re-opens it, and everyone else keeps
/// shedding until the canary reports.
struct Breaker {
    threshold: u32,
    open_for: Duration,
    state: Mutex<BreakerState>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed { failures: u32 },
    Open { until: Instant },
    HalfOpen { since: Instant },
}

/// What [`Breaker::admit`] tells a request it may do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Breaker closed: exchange normally.
    Yes,
    /// Breaker half-open and this caller drew the single canary slot.
    Probe,
    /// Breaker open (or another canary is in flight): skip the backend.
    No,
}

impl Breaker {
    fn new(threshold: u32, open_for: Duration) -> Breaker {
        Breaker {
            threshold: threshold.max(1),
            open_for,
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
        }
    }

    fn admit(&self) -> Admit {
        let mut st = lock_unpoisoned(&self.state);
        match *st {
            BreakerState::Closed { .. } => Admit::Yes,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *st = BreakerState::HalfOpen {
                        since: Instant::now(),
                    };
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
            BreakerState::HalfOpen { since } => {
                // A canary that never reported (its thread died, its
                // dial hung) must not wedge the breaker half-open
                // forever: after a full open window the next caller
                // becomes the new canary.
                if since.elapsed() > self.open_for {
                    *st = BreakerState::HalfOpen {
                        since: Instant::now(),
                    };
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
        }
    }

    fn on_success(&self) {
        *lock_unpoisoned(&self.state) = BreakerState::Closed { failures: 0 };
    }

    /// Record a failed exchange; `true` when this failure tripped the
    /// breaker open (closed at threshold, or a failed canary).
    fn on_failure(&self) -> bool {
        let mut st = lock_unpoisoned(&self.state);
        match *st {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    *st = BreakerState::Open {
                        until: Instant::now() + self.open_for,
                    };
                    true
                } else {
                    *st = BreakerState::Closed { failures };
                    false
                }
            }
            BreakerState::HalfOpen { .. } => {
                *st = BreakerState::Open {
                    until: Instant::now() + self.open_for,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Stable state name for rollups and `madpipe top`.
    fn state_name(&self) -> &'static str {
        match *lock_unpoisoned(&self.state) {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen { .. } => "half_open",
        }
    }
}

/// A consistent-hash ring: each backend contributes `vnodes` points,
/// a key is owned by the first point clockwise from its hash.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(hash point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    pub fn new(backends: &[String], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points: Vec<(u64, usize)> = backends
            .iter()
            .enumerate()
            .flat_map(|(i, b)| (0..vnodes).map(move |v| (fnv1a(format!("{b}#{v}").as_bytes()), i)))
            .collect();
        points.sort_unstable();
        Ring { points }
    }

    /// Every backend index, in ring order starting from `key`'s owner.
    /// The first entry is the primary; the rest are the failover chain.
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let h = fnv1a(key.as_bytes());
        let start = self.points.partition_point(|(p, _)| *p < h);
        let mut out = Vec::new();
        for k in 0..self.points.len() {
            let idx = self.points[(start + k) % self.points.len()].1;
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
        out
    }
}

struct RouterCtx {
    draining: AtomicBool,
    registry: Registry,
    backends: Vec<String>,
    ring: Ring,
    /// Per-backend circuit breaker.
    breakers: Vec<Breaker>,
    retry_budget: RetryBudget,
    timeout: Duration,
    probe_timeout: Duration,
    flight_dump: Option<String>,
}

impl RouterCtx {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || crate::server::term_requested()
    }

    /// Record a successful/failed exchange or probe against a backend.
    fn mark_alive(&self, idx: usize) {
        self.breakers[idx].on_success();
    }

    fn mark_dead(&self, idx: usize) {
        if self.breakers[idx].on_failure() {
            self.registry.inc("router.breaker.opened");
        }
    }
}

/// A running router. Same lifecycle shape as [`crate::Server`]:
/// `shutdown()` then `join()` to drain. Draining the router does *not*
/// drain the daemons behind it.
pub struct Router {
    local_addr: SocketAddr,
    ctx: Arc<RouterCtx>,
    acceptor: Option<JoinHandle<()>>,
}

impl Router {
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(RouterCtx {
            draining: AtomicBool::new(false),
            registry: Registry::new(),
            ring: Ring::new(&cfg.backends, cfg.vnodes),
            breakers: cfg
                .backends
                .iter()
                .map(|_| Breaker::new(cfg.breaker_threshold, cfg.breaker_open))
                .collect(),
            retry_budget: RetryBudget::new(),
            backends: cfg.backends,
            timeout: cfg.timeout,
            probe_timeout: cfg.probe_timeout,
            flight_dump: cfg.flight_dump,
        });
        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("route-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &ctx))
                .expect("spawn router acceptor")
        };
        Ok(Router {
            local_addr,
            ctx,
            acceptor: Some(acceptor),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router's own metrics registry (counters named `router.*`).
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    pub fn shutdown(&self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.ctx.draining()
    }

    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(path) = &self.ctx.flight_dump {
            let _ = madpipe_obs::flight::write_dump(path);
        }
    }
}

/// Accept with the same transient-error backoff as the daemon reactor.
fn acceptor_loop(listener: &TcpListener, ctx: &Arc<RouterCtx>) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = Duration::ZERO;
    while !ctx.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::ZERO;
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                ctx.registry.inc("router.connections");
                let ctx = Arc::clone(ctx);
                let handle = std::thread::Builder::new()
                    .name("route-conn".into())
                    .spawn(move || connection_loop(&stream, &ctx))
                    .expect("spawn router connection");
                handles.push(handle);
                handles.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                backoff = Duration::ZERO;
                std::thread::sleep(POLL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                ctx.registry.inc("router.accept.errors");
                backoff = if backoff.is_zero() {
                    ACCEPT_BACKOFF_MIN
                } else {
                    (backoff * 2).min(ACCEPT_BACKOFF_MAX)
                };
                std::thread::sleep(backoff);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

fn connection_loop(stream: &TcpStream, ctx: &Arc<RouterCtx>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Persistent backend connections for this client connection: the
    // common case (one client hammering one hot instance) reuses one
    // upstream socket end to end.
    let mut backends = Backends::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut discarding = false;
    loop {
        match (&mut &*stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                let mut data = &chunk[..n];
                if discarding {
                    match data.iter().position(|b| *b == b'\n') {
                        Some(pos) => {
                            discarding = false;
                            data = &data[pos + 1..];
                        }
                        None => continue,
                    }
                }
                buf.extend_from_slice(data);
                while let Some(pos) = buf.iter().position(|b| *b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..pos.min(line.len())]).into_owned();
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let response = handle_line(trimmed, ctx, &mut backends);
                    if write_line(stream, &response).is_err() {
                        return;
                    }
                }
                if buf.len() > MAX_LINE_BYTES {
                    ctx.registry.inc("router.errors.oversized");
                    let err = ServeError::malformed(format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes"
                    ));
                    if write_line(stream, &error_response(&err)).is_err() {
                        return;
                    }
                    buf.clear();
                    buf.shrink_to_fit();
                    discarding = true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if ctx.draining() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn write_line(stream: &TcpStream, line: &str) -> std::io::Result<()> {
    let mut w = stream;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

fn handle_line(line: &str, ctx: &Arc<RouterCtx>, backends: &mut Backends) -> String {
    ctx.registry.inc("router.requests");
    let (req, trace) = match parse_line(line) {
        Ok(parsed) => parsed,
        Err(err) => {
            ctx.registry.inc("router.errors.malformed");
            return error_response(&err);
        }
    };
    match req {
        Request::Ping => ok_response("pong", Value::Bool(true)),
        Request::Shutdown => {
            ctx.draining.store(true, Ordering::SeqCst);
            ok_response("draining", Value::Bool(true))
        }
        Request::Health => health_rollup(ctx),
        Request::Metrics => metrics_rollup(ctx),
        Request::Plan(p) => traced_forward(line, &p.canonical, trace, ctx, backends),
        Request::Replan(r) => traced_forward(line, &r.baseline.canonical, trace, ctx, backends),
    }
}

/// Forward a plan/replan line, stamping the router hop into the flight
/// recorder. An untraced line goes through byte-for-byte; a traced one
/// gets its `parent` rewritten to a fresh `router.forward` span id so
/// the daemon's request span nests under this hop in the merged trace.
fn traced_forward(
    line: &str,
    key: &str,
    trace: Option<TraceContext>,
    ctx: &Arc<RouterCtx>,
    backends: &mut Backends,
) -> String {
    let Some(tc) = trace else {
        return forward(line, key, ctx, backends);
    };
    let span = madpipe_obs::fresh_id();
    let injected = inject_context(line, tc.trace, span);
    let relay = injected.as_deref().unwrap_or(line);
    let started = Instant::now();
    let started_us = madpipe_obs::now_unix_us();
    let response = forward(relay, key, ctx, backends);
    madpipe_obs::flight::record_span(
        "router.forward",
        started_us,
        started.elapsed().as_secs_f64() * 1e6,
        tc.trace,
        span,
        tc.parent,
    );
    response
}

/// Relay the original line to the key's owner, failing over along the
/// ring. The line goes verbatim, so the response is byte-identical to
/// what the daemon would have sent a direct client. Backends with an
/// open breaker are skipped outright; failover retries past the first
/// attempt each spend a retry-budget token.
fn forward(line: &str, key: &str, ctx: &Arc<RouterCtx>, backends: &mut Backends) -> String {
    ctx.retry_budget.deposit();
    let candidates = ctx.ring.candidates(key);
    let primary = candidates.first().copied();
    let mut attempted = 0usize;
    for idx in candidates {
        match ctx.breakers[idx].admit() {
            Admit::No => {
                ctx.registry.inc("router.breaker.shed");
                continue;
            }
            Admit::Probe => ctx.registry.inc("router.breaker.probes"),
            Admit::Yes => {}
        }
        if attempted >= 1 && !ctx.retry_budget.withdraw() {
            ctx.registry.inc("router.retry_budget.exhausted");
            break;
        }
        attempted += 1;
        match exchange(backends, idx, &ctx.backends[idx], line, ctx.timeout) {
            Ok(response) => {
                ctx.mark_alive(idx);
                ctx.registry.inc("router.forwarded");
                if Some(idx) != primary {
                    ctx.registry.inc("router.failover");
                }
                return response;
            }
            Err(_) => {
                ctx.mark_dead(idx);
                ctx.registry.inc("router.backend_errors");
            }
        }
    }
    ctx.registry.inc("router.unavailable");
    error_response(&ServeError {
        kind: "unavailable",
        message: "no backend reachable".into(),
    })
}

/// One line out, one line back on a persistent backend connection. A
/// failed exchange drops the connection, with whatever it had buffered.
fn exchange(
    backends: &mut Backends,
    idx: usize,
    addr: &str,
    line: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let conn = match backends.entry(idx) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(BufReader::new(dial(addr, timeout)?)),
    };
    let response = round_trip(conn, line);
    if response.is_err() {
        backends.remove(&idx);
    }
    response
}

/// Write `line` and its newline, then read one response line.
fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> std::io::Result<String> {
    conn.get_mut().write_all(line.as_bytes())?;
    conn.get_mut().write_all(b"\n")?;
    read_response_line(conn)
}

fn dial(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("backend `{addr}` resolves to nothing"),
        )
    })?;
    let stream = TcpStream::connect_timeout(&sockaddr, timeout.min(Duration::from_secs(2)))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Read one response line, without its newline, through `reader`'s
/// buffer. A line longer than [`MAX_RESPONSE_BYTES`] is `InvalidData`;
/// a connection that closes mid-line is `UnexpectedEof`.
fn read_response_line(reader: &mut impl BufRead) -> std::io::Result<String> {
    let mut out = Vec::new();
    reader
        .take(MAX_RESPONSE_BYTES as u64 + 1)
        .read_until(b'\n', &mut out)?;
    if out.pop_if(|b| *b == b'\n').is_some() {
        Ok(String::from_utf8_lossy(&out).into_owned())
    } else if out.len() > MAX_RESPONSE_BYTES {
        Err(ErrorKind::InvalidData.into())
    } else {
        Err(ErrorKind::UnexpectedEof.into())
    }
}

/// Round-trip one command line against a backend on a fresh connection
/// (rollups are rare; freshness beats plumbing the per-client pools).
fn probe(addr: &str, line: &str, timeout: Duration) -> std::io::Result<Value> {
    let response = round_trip(&mut BufReader::new(dial(addr, timeout)?), line)?;
    Value::parse(&response)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}")))
}

/// Cluster `health`: per-daemon status (with its breaker state) plus
/// the alive count. Probes run on the short `probe_timeout` and feed
/// the breakers, so rollups double as failure detection *and* as the
/// path by which a recovered daemon's breaker closes again.
fn health_rollup(ctx: &Arc<RouterCtx>) -> String {
    let mut daemons = Vec::new();
    let mut alive = 0u64;
    for (idx, addr) in ctx.backends.iter().enumerate() {
        let mut fields = vec![("addr".to_string(), Value::Str(addr.clone()))];
        match probe(addr, r#"{"cmd":"health"}"#, ctx.probe_timeout) {
            Ok(v)
                if v.field("ok")
                    .map(|ok| ok == &Value::Bool(true))
                    .unwrap_or(false) =>
            {
                alive += 1;
                ctx.mark_alive(idx);
                fields.push(("ok".into(), Value::Bool(true)));
                if let Ok(h) = v.field("health") {
                    fields.push(("health".into(), h.clone()));
                }
            }
            _ => {
                ctx.mark_dead(idx);
                fields.push(("ok".into(), Value::Bool(false)));
            }
        }
        fields.push((
            "breaker".into(),
            Value::Str(ctx.breakers[idx].state_name().into()),
        ));
        daemons.push(Value::Object(fields));
    }
    ok_response(
        "health",
        Value::Object(vec![
            ("cluster".into(), Value::Bool(true)),
            ("alive".into(), Value::UInt(alive)),
            ("configured".into(), Value::UInt(ctx.backends.len() as u64)),
            ("draining".into(), Value::Bool(ctx.draining())),
            ("daemons".into(), Value::Array(daemons)),
        ]),
    )
}

/// Cluster `metrics`: the sum of every daemon's plain Prometheus
/// samples, plus `madpipe_cluster_*` gauges and the router's own
/// counters. Summing plain samples is the right aggregation for
/// counters and histogram `_sum`/`_count` lines alike. Histogram
/// `_bucket` series sum too — but per bucket, after differencing each
/// daemon's cumulative counts (see
/// [`madpipe_obs::validate::histogram_buckets`]) — and are re-rendered
/// cumulative, so `madpipe top` can reconstruct cluster-wide quantiles.
/// Per-daemon `{quantile=…}` gauges are deliberately dropped: quantiles
/// do not sum.
fn metrics_rollup(ctx: &Arc<RouterCtx>) -> String {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    // Histogram name → bucket upper-bound bits → summed per-bucket count.
    // Keying on `to_bits()` keeps exact bound identity while staying
    // ordered like the (positive, finite) bounds themselves.
    let mut buckets: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut reporting = 0u64;
    for (idx, addr) in ctx.backends.iter().enumerate() {
        let Ok(v) = probe(addr, r#"{"cmd":"metrics"}"#, ctx.probe_timeout) else {
            ctx.mark_dead(idx);
            continue;
        };
        let Ok(text) = v.field("metrics").and_then(Value::as_str) else {
            continue;
        };
        let Ok(samples) = madpipe_obs::validate::prometheus_samples(text) else {
            continue;
        };
        reporting += 1;
        ctx.mark_alive(idx);
        for (name, value) in samples {
            *sums.entry(name).or_insert(0.0) += value;
        }
        if let Ok(histograms) = madpipe_obs::validate::histogram_buckets(text) {
            for (name, series) in histograms {
                let merged = buckets.entry(name).or_default();
                for (le, n) in series {
                    *merged.entry(le.to_bits()).or_insert(0) += n;
                }
            }
        }
    }
    let mut text = String::new();
    for (name, value) in &sums {
        text.push_str(&format!("{name} {value}\n"));
    }
    for (name, series) in &buckets {
        let mut cumulative = 0u64;
        for (bits, n) in series {
            cumulative += n;
            let le = f64::from_bits(*bits);
            text.push_str(&format!("{name}_bucket{{le=\"{le:e}\"}} {cumulative}\n"));
        }
        text.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    }
    text.push_str(&format!("madpipe_cluster_daemons_reporting {reporting}\n"));
    text.push_str(&format!(
        "madpipe_cluster_daemons_configured {}\n",
        ctx.backends.len()
    ));
    text.push_str(&ctx.registry.snapshot().to_prometheus());
    ok_response("metrics", Value::Str(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:4835")).collect()
    }

    #[test]
    fn ring_spreads_keys_and_lists_every_backend() {
        let ring = Ring::new(&backends(3), 64);
        let mut owned = [0usize; 3];
        for k in 0..3000 {
            let cands = ring.candidates(&format!("canonical-instance-{k}"));
            assert_eq!(cands.len(), 3);
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2]);
            owned[cands[0]] += 1;
        }
        for (i, n) in owned.iter().enumerate() {
            assert!(
                *n > 300,
                "backend {i} owns {n}/3000 keys — vnode spread is broken: {owned:?}"
            );
        }
    }

    #[test]
    fn ring_assignment_is_deterministic_and_consistent() {
        let three = Ring::new(&backends(3), 64);
        let again = Ring::new(&backends(3), 64);
        // Removing one backend only remaps the keys it owned.
        let two = Ring::new(&backends(2), 64);
        let mut moved = 0usize;
        let total = 2000;
        for k in 0..total {
            let key = format!("canonical-instance-{k}");
            let owner = three.candidates(&key)[0];
            assert_eq!(owner, again.candidates(&key)[0], "ring must be stable");
            if owner < 2 {
                assert_eq!(
                    two.candidates(&key)[0],
                    owner,
                    "key {key} moved although its owner survived"
                );
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "backend 2 owned nothing out of {total} keys");
    }

    #[test]
    fn empty_and_single_rings_behave() {
        assert!(Ring::new(&[], 64).candidates("k").is_empty());
        let one = Ring::new(&backends(1), 8);
        assert_eq!(one.candidates("anything"), vec![0]);
    }

    #[test]
    fn breaker_trips_at_threshold_then_recovers_through_a_single_probe() {
        let b = Breaker::new(3, Duration::from_millis(20));
        assert_eq!(b.state_name(), "closed");

        // Two failures stay closed; the third trips the breaker.
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert_eq!(b.admit(), Admit::Yes, "still closed below threshold");
        assert!(b.on_failure(), "threshold failure must report the trip");
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.admit(), Admit::No, "open breakers shed instantly");

        // After the open window: exactly one canary is admitted, the
        // rest keep shedding until it reports.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admit::Probe);
        assert_eq!(b.state_name(), "half_open");
        assert_eq!(b.admit(), Admit::No, "only one canary at a time");

        // A failed canary re-opens; a successful one closes.
        assert!(b.on_failure());
        assert_eq!(b.state_name(), "open");
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(b.admit(), Admit::Probe);
        b.on_success();
        assert_eq!(b.state_name(), "closed");
        assert_eq!(b.admit(), Admit::Yes);

        // Success also resets the consecutive-failure count.
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        b.on_success();
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert_eq!(b.state_name(), "closed");
    }

    #[test]
    fn a_wedged_canary_is_replaced_after_a_full_open_window() {
        let b = Breaker::new(1, Duration::from_millis(10));
        assert!(b.on_failure());
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit(), Admit::Probe);
        // The canary never reports. After another open window the slot
        // is re-issued rather than wedging half-open forever.
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit(), Admit::Probe);
    }

    #[test]
    fn retry_budget_meters_retries_against_traffic() {
        let budget = RetryBudget::new();
        // The bucket starts full: drain it.
        let mut drained = 0;
        while budget.withdraw() {
            drained += 1;
            assert!(drained <= RETRY_CAP as usize, "bucket must be bounded");
        }
        assert_eq!(drained, RETRY_CAP as usize);
        assert!(!budget.withdraw(), "empty bucket refuses retries");

        // Ten deposits (ten forwarded requests) buy back one retry.
        for _ in 0..9 {
            budget.deposit();
        }
        assert!(!budget.withdraw(), "0.9 tokens is not a retry");
        budget.deposit();
        assert!(budget.withdraw());
        assert!(!budget.withdraw());

        // The cap holds no matter how much traffic flows.
        for _ in 0..10_000 {
            budget.deposit();
        }
        let mut again = 0;
        while budget.withdraw() {
            again += 1;
        }
        assert_eq!(again, RETRY_CAP as usize);
    }

    /// A loopback backend: it answers the `i`-th request line it reads
    /// with `replies[i]`, each in one `write_all`, and reads on until the
    /// client hangs up.
    fn fake_backend(replies: Vec<Vec<u8>>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let backend = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(&stream);
            let mut replies = replies.into_iter();
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(reply) = replies.next() {
                    (&stream).write_all(&reply).unwrap();
                }
                line.clear();
            }
        });
        (addr, backend)
    }

    #[test]
    fn two_lines_in_one_write_answer_two_exchanges_in_order() {
        let (addr, backend) = fake_backend(vec![b"first\nsecond\n".to_vec()]);
        let mut backends = Backends::new();
        let timeout = Duration::from_secs(10);
        let mut ask = |line| exchange(&mut backends, 0, &addr, line, timeout).unwrap();
        assert_eq!(ask("one"), "first");
        assert_eq!(ask("two"), "second");
        drop(backends);
        backend.join().unwrap();
    }

    #[test]
    fn a_response_over_the_cap_is_an_error_and_drops_the_connection() {
        let (addr, backend) = fake_backend(vec![vec![b'x'; MAX_RESPONSE_BYTES + 1]]);
        let mut backends = Backends::new();
        let timeout = Duration::from_secs(10);
        let err = exchange(&mut backends, 0, &addr, "one", timeout).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(backends.is_empty(), "the connection is dropped");
        backend.join().unwrap();
    }
}
