//! The event-driven connection reactor.
//!
//! One thread owns the listener and every client socket. Sockets are
//! nonblocking; the reactor parks in `poll(2)` (declared raw, like the
//! daemon's `signal(2)` — no libc crate) until a socket is readable or
//! writable, a worker rings the self-pipe [`Waker`], or a timeout needs
//! noticing. On hosts without `poll` it degrades to a bounded-sleep
//! loop. Either way the reactor never busy-spins while connections are
//! idle.
//!
//! Pipelining: a connection may have many newline-delimited requests in
//! flight at once. Each parsed line becomes a [`Slot`] in the
//! connection's in-flight queue — instant commands (`ping`, `metrics`,
//! `health`, `shutdown`, cache hits, structured errors) are
//! born answered; planning misses hold the receiver half of the worker
//! reply channel. Only the *front* slot may retire, so responses leave
//! in request order no matter how the worker pool reorders completions.
//!
//! Flow control, per connection: at most [`MAX_INFLIGHT`] queued slots
//! and roughly [`MAX_LINE_BYTES`] of unparsed input — past either bound
//! the reactor simply stops reading that socket until slots retire
//! (TCP backpressure does the rest). A single line crossing
//! [`MAX_LINE_BYTES`] is rejected with a structured `malformed` error
//! *while it streams in* and discarded up to the next newline; the
//! connection, and every other pipelined request on it, survives.
//!
//! Accepting: transient `accept(2)` failures (`EMFILE`, `ENFILE`,
//! `ECONNABORTED`, …) put the listener on exponential backoff
//! (1 ms → 200 ms, counters `serve.accept.errors` and
//! `serve.accept.backoff_ms`, both surfaced in `health`) instead of
//! tight-looping; `EINTR` retries immediately and `WouldBlock` resets
//! the backoff.
//!
//! Overload: a plan miss that finds the worker queue non-empty is
//! refused with a structured `overloaded` error (`serve.shed.overload`)
//! when the jobs ahead of it, at the daemon's mean measured plan time,
//! would carry it past its deadline (see [`crate::server::admit`]); a
//! full queue is still an immediate reject (`serve.rejects`).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use madpipe_json::Value;
use madpipe_model::{Platform, PlatformFault};

use crate::protocol::{
    attach_trace, error_response, ok_response, parse_line, plan_response, replan_response,
    PlanRequest, Request, ServeError,
};
use crate::server::{admit, health_value, Ctx, Job, JobQueue, PlanOutcome, MAX_LINE_BYTES};

/// Per-connection cap on queued (unanswered) pipelined requests; past
/// it the reactor stops reading the socket until slots retire.
pub const MAX_INFLIGHT: usize = 256;

/// Read granularity per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Poll timeout with nothing in flight: bounds how stale the drain flag
/// (e.g. a SIGTERM) can get, nothing else — real events cut it short.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Poll timeout with planning replies outstanding. The waker normally
/// ends the wait in microseconds; this is the safety net that also
/// bounds deadline-detection lag.
const PENDING_WAIT: Duration = Duration::from_millis(20);

const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

// --- self-pipe waker (raw syscalls, Linux) --------------------------------

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    pub const O_NONBLOCK: i32 = 0o4000;
    pub const O_CLOEXEC: i32 = 0o2000000;
}

/// Wakes the reactor out of its poll. Workers ring it after sending a
/// reply so a finished plan is written back within microseconds, not at
/// the next poll timeout. Cheap, async-signal-safe, clone-free.
#[cfg(target_os = "linux")]
pub(crate) struct Waker {
    fd: i32,
}

#[cfg(target_os = "linux")]
impl Waker {
    pub(crate) fn wake(&self) {
        // A full pipe means a wake is already pending — exactly as good.
        let byte = 1u8;
        unsafe { sys::write(self.fd, &byte, 1) };
    }
}

#[cfg(target_os = "linux")]
impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// The reactor's end of the self-pipe.
#[cfg(target_os = "linux")]
pub(crate) struct WakeRx {
    fd: i32,
}

#[cfg(target_os = "linux")]
impl WakeRx {
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while unsafe { sys::read(self.fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

#[cfg(target_os = "linux")]
impl Drop for WakeRx {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

#[cfg(target_os = "linux")]
pub(crate) fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
    let mut fds = [0i32; 2];
    if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((Waker { fd: fds[1] }, WakeRx { fd: fds[0] }))
}

/// Fallback waker on hosts without the raw-syscall path: the reactor
/// sleeps in bounded steps instead of parking in `poll`, so wakes are
/// observed within [`PENDING_WAIT`] anyway.
#[cfg(not(target_os = "linux"))]
pub(crate) struct Waker;

#[cfg(not(target_os = "linux"))]
impl Waker {
    pub(crate) fn wake(&self) {}
}

#[cfg(not(target_os = "linux"))]
pub(crate) struct WakeRx;

#[cfg(not(target_os = "linux"))]
pub(crate) fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
    Ok((Waker, WakeRx))
}

// --- connection state machine ---------------------------------------------

/// A planning request somewhere between submission and response.
enum PlanWait {
    /// Waiting on a worker; the deadline turns into a `timeout` error.
    Pending {
        rx: Receiver<PlanOutcome>,
        deadline: Instant,
    },
    Done(PlanOutcome),
}

/// A `replan`'s two concurrent planning waits plus what the response
/// renderer needs.
struct ReplanSlot {
    fault: PlatformFault,
    degraded_platform: Platform,
    baseline: PlanWait,
    degraded: PlanWait,
}

/// One pipelined request awaiting its turn to be written back.
enum Slot {
    /// Response already rendered (instant commands, cache hits, errors).
    Ready(String),
    Plan(PlanWait),
    Replan(Box<ReplanSlot>),
}

/// A [`Slot`] plus its per-request trace state. Every request gets a
/// request span in the flight recorder (ids are 0-cost to mint); only
/// requests whose line carried a `trace` context echo `trace`/`span`
/// fields on their response — untraced traffic is answered
/// byte-identically to a build without tracing.
struct InFlight {
    slot: Slot,
    /// Inbound distributed trace id (0 = untraced).
    trace: u64,
    /// Inbound parent span id (the router's forward span).
    parent: u64,
    /// This request's span id: parent of queue/worker/DP spans, echoed
    /// on traced responses.
    span: u64,
    /// The line carried a trace context → echo it back.
    echo: bool,
    /// Wall-clock pair for the retire-time request span.
    started: Instant,
    started_us: f64,
}

impl InFlight {
    fn untraced(slot: Slot) -> Self {
        InFlight {
            slot,
            trace: 0,
            parent: 0,
            span: madpipe_obs::fresh_id(),
            echo: false,
            started: Instant::now(),
            started_us: madpipe_obs::now_unix_us(),
        }
    }
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already on the wire.
    write_pos: usize,
    inflight: VecDeque<InFlight>,
    /// Skipping the rest of an already-rejected oversized line.
    discarding: bool,
    peer_eof: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: VecDeque::new(),
            discarding: false,
            peer_eof: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// Reading is pointless: EOF seen, or flow control says wait.
    fn read_blocked(&self) -> bool {
        self.peer_eof || self.inflight.len() >= MAX_INFLIGHT || self.read_buf.len() > MAX_LINE_BYTES
    }

    /// Nothing left this connection can ever do.
    fn finished(&self, draining: bool) -> bool {
        if self.dead {
            return true;
        }
        if !self.inflight.is_empty() || !self.flushed() {
            return false;
        }
        // A trailing partial line can never complete after EOF.
        (self.peer_eof && !self.read_buf.contains(&b'\n')) || draining
    }
}

// --- the reactor loop ------------------------------------------------------

/// Run the reactor until drain completes. Closing the job queue on
/// exit is what lets the workers finish the remaining jobs and leave.
pub(crate) fn reactor_loop(
    listener: TcpListener,
    ctx: Arc<Ctx>,
    jobs: Arc<JobQueue>,
    wake: WakeRx,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = Duration::ZERO;
    let mut retry_at: Option<Instant> = None;
    loop {
        let mut progress = false;
        if !ctx.draining() && retry_at.is_none_or(|t| Instant::now() >= t) {
            progress |= accept_burst(&listener, &ctx, &mut conns, &mut backoff, &mut retry_at);
        }
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            progress |= read_some(conn);
            progress |= extract_lines(conn, &ctx, &jobs);
            progress |= retire_slots(conn, &ctx);
            progress |= flush_writes(conn);
        }
        let draining = ctx.draining();
        conns.retain_mut(|c| {
            if c.finished(draining) {
                abandon_inflight(c, &ctx);
                false
            } else {
                true
            }
        });
        if draining && conns.is_empty() {
            break;
        }
        if !progress {
            let pending = conns.iter().any(|c| !c.inflight.is_empty());
            let mut timeout = if pending { PENDING_WAIT } else { IDLE_WAIT };
            if let Some(t) = retry_at {
                timeout = timeout
                    .min(t.saturating_duration_since(Instant::now()))
                    .max(Duration::from_millis(1));
            }
            let accepting = !draining && retry_at.is_none();
            wait_for_events(&listener, &conns, &wake, timeout, accepting);
        }
    }
    jobs.close();
}

/// Accept until `WouldBlock`. Transient failures arm the exponential
/// backoff window; `EINTR` just retries.
fn accept_burst(
    listener: &TcpListener,
    ctx: &Arc<Ctx>,
    conns: &mut Vec<Conn>,
    backoff: &mut Duration,
    retry_at: &mut Option<Instant>,
) -> bool {
    let mut progress = false;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                *backoff = Duration::ZERO;
                *retry_at = None;
                // One-line responses must not sit in Nagle's buffer.
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                ctx.registry.inc("serve.connections");
                conns.push(Conn::new(stream));
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                *backoff = Duration::ZERO;
                *retry_at = None;
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // EMFILE/ENFILE/ECONNABORTED and friends: back off so a
                // fd-exhausted process doesn't turn the reactor into a
                // hot error loop.
                ctx.registry.inc("serve.accept.errors");
                *backoff = if backoff.is_zero() {
                    ACCEPT_BACKOFF_MIN
                } else {
                    (*backoff * 2).min(ACCEPT_BACKOFF_MAX)
                };
                // Total backoff armed, in ms — lets a monitor tell "one
                // blip" from "the listener has been throttled for
                // minutes" without scraping logs.
                ctx.registry
                    .add("serve.accept.backoff_ms", backoff.as_millis() as u64);
                *retry_at = Some(Instant::now() + *backoff);
                break;
            }
        }
    }
    progress
}

fn read_some(conn: &mut Conn) -> bool {
    let mut progress = false;
    let mut chunk = [0u8; READ_CHUNK];
    while !conn.read_blocked() {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                progress = true;
                let mut data = &chunk[..n];
                if conn.discarding {
                    match data.iter().position(|b| *b == b'\n') {
                        Some(pos) => {
                            conn.discarding = false;
                            data = &data[pos + 1..];
                        }
                        None => continue,
                    }
                }
                conn.read_buf.extend_from_slice(data);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progress
}

/// Turn buffered complete lines into in-flight slots, and reject an
/// over-bound line (complete or still streaming) in pipeline position.
fn extract_lines(conn: &mut Conn, ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>) -> bool {
    let mut progress = false;
    while conn.inflight.len() < MAX_INFLIGHT {
        let Some(pos) = conn.read_buf.iter().position(|b| *b == b'\n') else {
            break;
        };
        if pos > MAX_LINE_BYTES {
            conn.inflight
                .push_back(InFlight::untraced(oversized_slot(ctx)));
            conn.read_buf.drain(..=pos);
            progress = true;
            continue;
        }
        let line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..pos]).into_owned();
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        conn.inflight.push_back(slot_for_line(trimmed, ctx, jobs));
        progress = true;
    }
    // A partial line past the bound is rejected the moment it crosses
    // it — the buffer never grows on — and the rest is discarded.
    if conn.read_buf.len() > MAX_LINE_BYTES && !conn.read_buf.contains(&b'\n') {
        conn.inflight
            .push_back(InFlight::untraced(oversized_slot(ctx)));
        conn.read_buf.clear();
        conn.read_buf.shrink_to_fit();
        conn.discarding = true;
        progress = true;
    }
    progress
}

fn oversized_slot(ctx: &Arc<Ctx>) -> Slot {
    ctx.registry.inc("serve.errors.oversized");
    let err = ServeError::malformed(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    Slot::Ready(error_response(&err))
}

/// Parse one request line into its in-flight entry. Everything except a
/// planning cache miss is answered on the spot.
fn slot_for_line(line: &str, ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>) -> InFlight {
    let started = Instant::now();
    let started_us = madpipe_obs::now_unix_us();
    ctx.registry.inc("serve.requests");
    let (req, tctx) = match parse_line(line) {
        Ok(parsed) => parsed,
        Err(err) => {
            ctx.registry.inc(match err.kind {
                "invalid" => "serve.errors.invalid",
                _ => "serve.errors.malformed",
            });
            return InFlight::untraced(Slot::Ready(error_response(&err)));
        }
    };
    // The request span: root of this hop's flight spans, child of the
    // inbound context (the router's forward span) when one arrived.
    let span_id = madpipe_obs::fresh_id();
    let (trace, parent, echo) = match tctx {
        Some(c) => (c.trace, c.parent, true),
        None => (0, 0, false),
    };
    let slot = match req {
        Request::Ping => Slot::Ready(ok_response("pong", Value::Bool(true))),
        Request::Metrics => {
            sync_events_dropped(ctx);
            let text = ctx.registry.snapshot().to_prometheus();
            Slot::Ready(ok_response("metrics", Value::Str(text)))
        }
        Request::Health => {
            sync_events_dropped(ctx);
            Slot::Ready(ok_response("health", health_value(ctx)))
        }
        Request::Shutdown => {
            ctx.draining.store(true, Ordering::SeqCst);
            Slot::Ready(ok_response("draining", Value::Bool(true)))
        }
        Request::Plan(plan) => {
            ctx.registry.inc("serve.requests.plan");
            let deadline = Instant::now() + ctx.timeout;
            Slot::Plan(submit_plan(*plan, deadline, ctx, jobs, trace, span_id))
        }
        Request::Replan(replan) => {
            ctx.registry.inc("serve.requests.replan");
            ctx.registry
                .inc(&format!("replan.fault.{}", replan.fault.kind()));
            let deadline = Instant::now() + ctx.timeout;
            let degraded_platform = replan.degraded.platform.clone();
            Slot::Replan(Box::new(ReplanSlot {
                fault: replan.fault,
                degraded_platform,
                baseline: submit_plan(replan.baseline, deadline, ctx, jobs, trace, span_id),
                degraded: submit_plan(replan.degraded, deadline, ctx, jobs, trace, span_id),
            }))
        }
    };
    InFlight {
        slot,
        trace,
        parent,
        span: span_id,
        echo,
        started,
        started_us,
    }
}

/// Fold the flight recorder's loss count into the registry as the
/// monotone `serve.events.dropped` counter, so metrics dumps (and the
/// router's cluster rollup, which sums them) surface ring overwrites.
fn sync_events_dropped(ctx: &Arc<Ctx>) {
    let dropped = madpipe_obs::flight::dropped();
    let seen = ctx.registry.counter("serve.events.dropped");
    if dropped > seen {
        ctx.registry.add("serve.events.dropped", dropped - seen);
    }
}

/// One instance through the cache, then (on a miss) onto the worker
/// queue — without waiting: the wait lives in the slot.
fn submit_plan(
    req: PlanRequest,
    deadline: Instant,
    ctx: &Arc<Ctx>,
    jobs: &Arc<JobQueue>,
    trace: u64,
    span: u64,
) -> PlanWait {
    if let Some(plan) = ctx.cache.get(&req.canonical) {
        ctx.registry.inc("serve.cache.hits");
        madpipe_obs::flight::record_instant(
            "serve.cache.hit",
            madpipe_obs::now_unix_us(),
            trace,
            span,
        );
        return PlanWait::Done(Ok((plan, true)));
    }
    ctx.registry.inc("serve.cache.misses");
    madpipe_obs::flight::record_instant(
        "serve.cache.miss",
        madpipe_obs::now_unix_us(),
        trace,
        span,
    );
    if ctx.draining() {
        return PlanWait::Done(Err(ServeError::unavailable()));
    }
    // Refuse a miss the queue ahead of it would carry past its deadline,
    // so the requests that *are* admitted still meet theirs.
    let depth = ctx.queue_depth.load(Ordering::SeqCst);
    if !admit(depth, ctx.threads, ctx.mean_plan(), ctx.timeout) {
        ctx.registry.inc("serve.shed.overload");
        return PlanWait::Done(Err(ServeError::overloaded()));
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel::<PlanOutcome>(1);
    let job = Job {
        req: Box::new(req),
        deadline,
        reply: reply_tx,
        trace,
        span,
        enqueued: Instant::now(),
    };
    match jobs.try_push(job) {
        Ok(()) => {
            ctx.queue_depth.fetch_add(1, Ordering::SeqCst);
            PlanWait::Pending {
                rx: reply_rx,
                deadline,
            }
        }
        Err(_) if ctx.draining() => PlanWait::Done(Err(ServeError::unavailable())),
        Err(_) => {
            ctx.registry.inc("serve.rejects");
            PlanWait::Done(Err(ServeError::overloaded()))
        }
    }
}

/// Advance one wait without blocking; true once it holds an outcome.
fn poll_wait(w: &mut PlanWait, ctx: &Arc<Ctx>) -> bool {
    if let PlanWait::Pending { rx, deadline } = w {
        match rx.try_recv() {
            Ok(outcome) => *w = PlanWait::Done(outcome),
            Err(TryRecvError::Empty) => {
                if Instant::now() >= *deadline {
                    // The worker result (if any) still lands in the
                    // cache; a retry will hit.
                    ctx.registry.inc("serve.timeouts");
                    *w = PlanWait::Done(Err(ServeError::timeout()));
                } else {
                    return false;
                }
            }
            Err(TryRecvError::Disconnected) => {
                *w = PlanWait::Done(Err(ServeError::unavailable()));
            }
        }
    }
    true
}

fn outcome_response(outcome: &PlanOutcome) -> String {
    match outcome {
        Ok((plan, cached)) => plan_response(plan, *cached),
        Err(err) => error_response(err),
    }
}

/// Retire completed slots from the front of the queue into the write
/// buffer — front-only, so pipelined responses keep request order. A
/// retiring request stamps its `serve.request` span (traced or not) and
/// the `serve.request.seconds` latency histogram; traced requests also
/// get the `trace`/`span` echo spliced onto their response line.
fn retire_slots(conn: &mut Conn, ctx: &Arc<Ctx>) -> bool {
    let mut progress = false;
    while let Some(front) = conn.inflight.front_mut() {
        let response = match &mut front.slot {
            Slot::Ready(s) => std::mem::take(s),
            Slot::Plan(w) => {
                if !poll_wait(w, ctx) {
                    break;
                }
                let PlanWait::Done(outcome) = w else {
                    unreachable!()
                };
                outcome_response(outcome)
            }
            Slot::Replan(r) => {
                // Poll both sides so neither stalls the other; the slot
                // retires once both are in.
                let base_done = poll_wait(&mut r.baseline, ctx);
                let deg_done = poll_wait(&mut r.degraded, ctx);
                if !(base_done && deg_done) {
                    break;
                }
                let (PlanWait::Done(base), PlanWait::Done(deg)) = (&r.baseline, &r.degraded) else {
                    unreachable!()
                };
                match (base, deg) {
                    (Ok((base_plan, base_cached)), Ok((deg_plan, deg_cached))) => {
                        ctx.registry.inc("replan.completed");
                        replan_response(
                            &r.fault,
                            &r.degraded_platform,
                            base_plan,
                            *base_cached,
                            deg_plan,
                            *deg_cached,
                        )
                    }
                    // Baseline failure takes precedence, as in the
                    // sequential protocol.
                    (Err(err), _) | (Ok(_), Err(err)) => error_response(err),
                }
            }
        };
        let done = conn.inflight.pop_front().expect("front just matched");
        let mut response = response;
        ctx.registry.observe(
            "serve.request.seconds",
            done.started.elapsed().as_secs_f64(),
        );
        madpipe_obs::flight::record_span(
            "serve.request",
            done.started_us,
            done.started.elapsed().as_secs_f64() * 1e6,
            done.trace,
            done.span,
            done.parent,
        );
        if done.echo {
            attach_trace(&mut response, done.trace, done.span);
        }
        conn.write_buf.extend_from_slice(response.as_bytes());
        conn.write_buf.push(b'\n');
        progress = true;
    }
    progress
}

/// Close out the request spans of a connection dropped with work still
/// in flight (peer hung up, write error): nobody will read the
/// responses, but the flight recorder still gets a complete span per
/// request — a worker span recorded later must never reference a
/// request span that was silently discarded.
fn abandon_inflight(conn: &mut Conn, ctx: &Arc<Ctx>) {
    for dropped in conn.inflight.drain(..) {
        ctx.registry.inc("serve.abandoned");
        madpipe_obs::flight::record_span(
            "serve.request",
            dropped.started_us,
            dropped.started.elapsed().as_secs_f64() * 1e6,
            dropped.trace,
            dropped.span,
            dropped.parent,
        );
    }
}

fn flush_writes(conn: &mut Conn) -> bool {
    let mut progress = false;
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.write_pos == conn.write_buf.len() && conn.write_pos > 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    progress
}

// --- parking ---------------------------------------------------------------

/// Park until a socket is ready, the waker rings, or `timeout` passes.
#[cfg(target_os = "linux")]
fn wait_for_events(
    listener: &TcpListener,
    conns: &[Conn],
    wake: &WakeRx,
    timeout: Duration,
    accepting: bool,
) {
    use std::os::unix::io::AsRawFd;
    let mut fds: Vec<sys::PollFd> = Vec::with_capacity(conns.len() + 2);
    fds.push(sys::PollFd {
        fd: wake.fd,
        events: sys::POLLIN,
        revents: 0,
    });
    if accepting {
        fds.push(sys::PollFd {
            fd: listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    for c in conns {
        let mut events = 0i16;
        if !c.read_blocked() {
            events |= sys::POLLIN;
        }
        if !c.flushed() {
            events |= sys::POLLOUT;
        }
        if events != 0 {
            fds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
    }
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // The next loop iteration retries every socket regardless of which
    // fd fired, so revents (and EINTR) need no decoding here.
    unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    wake.drain();
}

/// Portable fallback: bounded sleep. Wakes are observed on the next
/// iteration, at worst `timeout` later (the callers cap it at
/// [`PENDING_WAIT`] whenever replies are outstanding).
#[cfg(not(target_os = "linux"))]
fn wait_for_events(
    _listener: &TcpListener,
    _conns: &[Conn],
    _wake: &WakeRx,
    timeout: Duration,
    _accepting: bool,
) {
    std::thread::sleep(timeout.max(Duration::from_millis(1)));
}
