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
//! Readiness: the reactor makes a system call only where `poll` said
//! one would find something. It calls `accept` when the listener was
//! readable (or its backoff window has just ended), reads a connection
//! when it was readable (`POLLIN`, `POLLHUP` or `POLLERR`) or newly
//! accepted — one chunk per pass, until a read comes up short — writes a
//! connection until a short write and then waits for `POLLOUT`, and
//! drains the waker only when it rang. `poll` is level-triggered, so
//! whatever is left unread is reported again by the next call and
//! nothing stalls. A failed `poll` (`EINTR`) and the sleep fallback
//! report everything ready. The loop parks in `poll` after a pass that
//! did nothing; after one that did something it runs the next pass at
//! once, and when that pass has work no event will announce (a read that
//! filled its chunk, lines left waiting for in-flight room) it first
//! polls with a zero timeout, so the other sockets and the listener are
//! looked at between any two passes and one client streaming input
//! cannot shut them out. A sequential cache hit thus costs three calls:
//! the `poll` that reports its line, the short `read` of it and the
//! `write` of the answer. The reactor
//! counts its calls by kind in plain fields of its thread and folds them
//! into the registry as `serve.reactor.{polls,accepts,reads,writes}`
//! (a waker drain counts as a read) whenever a `metrics` or `health`
//! request arrives.
//!
//! Pipelining: a connection may have many newline-delimited requests in
//! flight at once. Each complete line is parsed where it was read, in
//! the connection's read buffer (`String::from_utf8_lossy` borrows a
//! valid UTF-8 line), and the consumed prefix is dropped once per pass.
//! Each parsed line becomes a [`Slot`] in the
//! connection's in-flight queue — instant commands (`ping`, `metrics`,
//! `health`, `shutdown`, cache hits, structured errors) are
//! born answered; planning misses hold the receiver half of the worker
//! reply channel. Only the *front* slot may retire, so responses leave
//! in request order no matter how the worker pool reorders completions.
//! A cache hit's answer is the response envelope around the plan's
//! stored JSON, appended straight to the connection's write buffer.
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
    attach_trace, error_response, ok_response, parse_line, replan_response, write_plan_response,
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

/// The reactor's system calls by kind, counted on its own thread and
/// folded into the registry as `serve.reactor.*` by [`sync_counters`].
#[derive(Default)]
struct Syscalls {
    polls: u64,
    accepts: u64,
    /// Socket reads and waker drains.
    reads: u64,
    writes: u64,
}

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
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

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
    /// Empty the pipe, up to the first short read.
    fn drain(&self, calls: &mut Syscalls) {
        let mut buf = [0u8; 64];
        loop {
            calls.reads += 1;
            let n = unsafe { sys::read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                break;
            }
        }
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

impl PlanWait {
    /// The outcome of a wait [`poll_wait`] found answered.
    fn outcome(&self) -> &PlanOutcome {
        match self {
            PlanWait::Done(outcome) => outcome,
            PlanWait::Pending { .. } => unreachable!("only answered slots retire"),
        }
    }
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
    write_buf: String,
    /// Bytes of `write_buf` already on the wire.
    write_pos: usize,
    inflight: VecDeque<InFlight>,
    /// `poll` reported input (or the connection is new) and no read has
    /// come up short since.
    readable: bool,
    /// The last [`extract_lines`] stopped at [`MAX_INFLIGHT`] with a
    /// complete line still in `read_buf`.
    lines_waiting: bool,
    /// No write has come up short since `poll` last reported `POLLOUT`.
    writable: bool,
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
            write_buf: String::new(),
            write_pos: 0,
            inflight: VecDeque::new(),
            readable: true,
            lines_waiting: false,
            writable: true,
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

    /// The next pass has work here that no event will announce: input
    /// left in the socket, or complete lines left for in-flight room that
    /// retiring has since made.
    fn busy(&self) -> bool {
        (self.readable && !self.read_blocked())
            || (self.lines_waiting && self.inflight.len() < MAX_INFLIGHT)
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
    let mut poller = Poller::new(wake);
    let mut calls = Syscalls::default();
    // One read buffer for every socket, allocated once.
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = Duration::ZERO;
    let mut retry_at: Option<Instant> = None;
    let mut listener_ready = false;
    loop {
        let mut progress = false;
        let retry_due = retry_at.is_some_and(|t| Instant::now() >= t);
        if !ctx.draining() && (listener_ready || retry_due) {
            listener_ready = false;
            progress |= accept_burst(
                &listener,
                &ctx,
                &mut conns,
                &mut backoff,
                &mut retry_at,
                &mut calls,
            );
        }
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            progress |= read_some(conn, &mut chunk, &mut calls);
            progress |= extract_lines(conn, &ctx, &jobs, &calls);
            progress |= retire_slots(conn, &ctx);
            progress |= flush_writes(conn, &mut calls);
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
        // Park after a pass that did nothing. After one that did
        // something the next pass runs at once, but when it will work on
        // without an event (a socket that filled its read, lines waiting
        // for room), poll without waiting first: what arrived on the
        // other sockets and the listener meanwhile gets its turn.
        let busy = conns.iter().any(Conn::busy);
        if !progress || busy {
            let pending = conns.iter().any(|c| !c.inflight.is_empty());
            let mut timeout = if pending { PENDING_WAIT } else { IDLE_WAIT };
            if let Some(t) = retry_at {
                timeout = timeout
                    .min(t.saturating_duration_since(Instant::now()))
                    .max(Duration::from_millis(1));
            }
            if busy {
                timeout = Duration::ZERO;
            }
            let accepting = !draining && retry_at.is_none();
            listener_ready |= poller.wait(&listener, &mut conns, timeout, accepting, &mut calls);
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
    calls: &mut Syscalls,
) -> bool {
    let mut progress = false;
    loop {
        calls.accepts += 1;
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

/// Read one chunk if `poll` reported input and flow control allows. A
/// read that does not fill `chunk` emptied the socket; one that fills it
/// leaves `readable` set, and the next pass reads on once every other
/// connection has had its turn.
fn read_some(conn: &mut Conn, chunk: &mut [u8], calls: &mut Syscalls) -> bool {
    if !conn.readable || conn.read_blocked() {
        return false;
    }
    calls.reads += 1;
    match (&conn.stream).read(chunk) {
        Ok(0) => conn.peer_eof = true,
        Ok(n) => {
            conn.readable = n == chunk.len();
            let mut data = &chunk[..n];
            if conn.discarding {
                match data.iter().position(|b| *b == b'\n') {
                    Some(pos) => {
                        conn.discarding = false;
                        data = &data[pos + 1..];
                    }
                    None => data = &[],
                }
            }
            conn.read_buf.extend_from_slice(data);
            return true;
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock => conn.readable = false,
        // `readable` stays set: the next pass reads again.
        Err(e) if e.kind() == ErrorKind::Interrupted => {}
        Err(_) => conn.dead = true,
    }
    false
}

/// Turn buffered complete lines into in-flight slots, and reject an
/// over-bound line (complete or still streaming) in pipeline position.
/// Each line is parsed where it lies in the read buffer; the consumed
/// prefix is dropped once, after the last.
fn extract_lines(conn: &mut Conn, ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>, calls: &Syscalls) -> bool {
    let mut progress = false;
    let mut start = 0;
    loop {
        let rest = &conn.read_buf[start..];
        let Some(pos) = rest.iter().position(|b| *b == b'\n') else {
            conn.lines_waiting = false;
            break;
        };
        if conn.inflight.len() >= MAX_INFLIGHT {
            conn.lines_waiting = true;
            break;
        }
        start += pos + 1;
        if pos > MAX_LINE_BYTES {
            conn.inflight
                .push_back(InFlight::untraced(oversized_slot(ctx)));
            progress = true;
            continue;
        }
        let line = String::from_utf8_lossy(&rest[..pos]);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        conn.inflight
            .push_back(slot_for_line(trimmed, ctx, jobs, calls));
        progress = true;
    }
    conn.read_buf.drain(..start);
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
fn slot_for_line(line: &str, ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>, calls: &Syscalls) -> InFlight {
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
            sync_counters(ctx, calls);
            let text = ctx.registry.snapshot().to_prometheus();
            Slot::Ready(ok_response("metrics", Value::Str(text)))
        }
        Request::Health => {
            sync_counters(ctx, calls);
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

/// Fold the counts kept outside the registry into its monotone
/// counters: the flight recorder's loss count as `serve.events.dropped`,
/// so metrics dumps (and the router's cluster rollup, which sums them)
/// surface ring overwrites, and the reactor's system calls as
/// `serve.reactor.*`.
fn sync_counters(ctx: &Arc<Ctx>, calls: &Syscalls) {
    for (name, count) in [
        ("serve.events.dropped", madpipe_obs::flight::dropped()),
        ("serve.reactor.polls", calls.polls),
        ("serve.reactor.accepts", calls.accepts),
        ("serve.reactor.reads", calls.reads),
        ("serve.reactor.writes", calls.writes),
    ] {
        let seen = ctx.registry.counter(name);
        if count > seen {
            ctx.registry.add(name, count - seen);
        }
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
    if let Some(plan) = ctx.cache.lookup(&req.canonical) {
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

/// Advance a slot's waits without blocking; true once it can be answered.
fn slot_done(slot: &mut Slot, ctx: &Arc<Ctx>) -> bool {
    match slot {
        Slot::Ready(_) => true,
        Slot::Plan(w) => poll_wait(w, ctx),
        Slot::Replan(r) => {
            // Poll both sides so neither stalls the other; the slot
            // retires once both are in.
            let base_done = poll_wait(&mut r.baseline, ctx);
            let deg_done = poll_wait(&mut r.degraded, ctx);
            base_done && deg_done
        }
    }
}

/// Append an answered slot's response line (without its newline) to
/// `out`. A plan is written as its stored JSON, rendered nothing anew.
fn write_response(slot: &Slot, ctx: &Arc<Ctx>, out: &mut String) {
    match slot {
        Slot::Ready(s) => out.push_str(s),
        Slot::Plan(w) => match w.outcome() {
            Ok((plan, cached)) => write_plan_response(out, &plan.json, *cached),
            Err(err) => out.push_str(&error_response(err)),
        },
        Slot::Replan(r) => match (r.baseline.outcome(), r.degraded.outcome()) {
            (Ok((base, base_cached)), Ok((deg, deg_cached))) => {
                ctx.registry.inc("replan.completed");
                out.push_str(&replan_response(
                    &r.fault,
                    &r.degraded_platform,
                    &base.value,
                    *base_cached,
                    &deg.value,
                    *deg_cached,
                ));
            }
            // Baseline failure takes precedence, as in the sequential
            // protocol.
            (Err(err), _) | (Ok(_), Err(err)) => out.push_str(&error_response(err)),
        },
    }
}

/// Retire completed slots from the front of the queue into the write
/// buffer — front-only, so pipelined responses keep request order. A
/// retiring request stamps its `serve.request` span (traced or not) and
/// the `serve.request.seconds` latency histogram; traced requests also
/// get the `trace`/`span` echo spliced onto their response line, which
/// is the write buffer's tail.
fn retire_slots(conn: &mut Conn, ctx: &Arc<Ctx>) -> bool {
    let mut progress = false;
    while let Some(front) = conn.inflight.front_mut() {
        if !slot_done(&mut front.slot, ctx) {
            break;
        }
        let done = conn.inflight.pop_front().expect("front just matched");
        write_response(&done.slot, ctx, &mut conn.write_buf);
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
            attach_trace(&mut conn.write_buf, done.trace, done.span);
        }
        conn.write_buf.push('\n');
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

/// Write while the socket takes it, up to the first short write: then
/// the socket's buffer is full and the rest waits for `POLLOUT`.
fn flush_writes(conn: &mut Conn, calls: &mut Syscalls) -> bool {
    let mut progress = false;
    while conn.writable && !conn.flushed() {
        calls.writes += 1;
        match (&conn.stream).write(&conn.write_buf.as_bytes()[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                conn.writable = conn.flushed();
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => conn.writable = false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.flushed() && conn.write_pos > 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    progress
}

// --- parking ---------------------------------------------------------------

/// Parks the reactor in `poll(2)` and hands out what it reported.
#[cfg(target_os = "linux")]
struct Poller {
    wake: WakeRx,
    /// The poll set, rebuilt on every wait without reallocating.
    fds: Vec<sys::PollFd>,
}

#[cfg(target_os = "linux")]
impl Poller {
    fn new(wake: WakeRx) -> Self {
        Poller {
            wake,
            fds: Vec::new(),
        }
    }

    /// Park until a socket is ready, the waker rings, or `timeout`
    /// passes. Marks the connections `poll` reported readable or
    /// writable, drains the waker if it rang, and returns whether the
    /// listener has a connection waiting. A failed `poll` (`EINTR`)
    /// reports everything ready.
    fn wait(
        &mut self,
        listener: &TcpListener,
        conns: &mut [Conn],
        timeout: Duration,
        accepting: bool,
        calls: &mut Syscalls,
    ) -> bool {
        use std::os::unix::io::AsRawFd;
        let fds = &mut self.fds;
        fds.clear();
        fds.push(sys::PollFd {
            fd: self.wake.fd,
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
        for c in conns.iter() {
            let events = interest(c);
            if events != 0 {
                fds.push(sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        calls.polls += 1;
        if unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, ms) } < 0 {
            for c in conns.iter_mut() {
                c.readable = true;
                c.writable = true;
            }
            self.wake.drain(calls);
            return accepting;
        }
        if fds[0].revents != 0 {
            self.wake.drain(calls);
        }
        let listener_ready = accepting && fds[1].revents != 0;
        // The connections come in the order they were pushed, skipping
        // the ones polled for nothing.
        let mut next = if accepting { 2 } else { 1 };
        for c in conns.iter_mut() {
            if interest(c) == 0 {
                continue;
            }
            let revents = fds[next].revents;
            next += 1;
            let failed = revents & (sys::POLLHUP | sys::POLLERR) != 0;
            c.readable |= failed || revents & sys::POLLIN != 0;
            c.writable |= failed || revents & sys::POLLOUT != 0;
        }
        listener_ready
    }
}

/// What a connection waits for: input unless flow control holds it,
/// output while its write buffer has bytes left.
#[cfg(target_os = "linux")]
fn interest(c: &Conn) -> i16 {
    let mut events = 0;
    if !c.read_blocked() {
        events |= sys::POLLIN;
    }
    if !c.flushed() {
        events |= sys::POLLOUT;
    }
    events
}

/// Portable fallback: a bounded sleep (none for a zero timeout), after
/// which everything counts as ready. Wakes are observed on the next
/// iteration, at worst `timeout` later (the callers cap it at
/// [`PENDING_WAIT`] whenever replies are outstanding).
#[cfg(not(target_os = "linux"))]
struct Poller;

#[cfg(not(target_os = "linux"))]
impl Poller {
    fn new(_wake: WakeRx) -> Self {
        Poller
    }

    fn wait(
        &mut self,
        _listener: &TcpListener,
        conns: &mut [Conn],
        timeout: Duration,
        accepting: bool,
        _calls: &mut Syscalls,
    ) -> bool {
        if !timeout.is_zero() {
            std::thread::sleep(timeout);
        }
        for c in conns.iter_mut() {
            c.readable = true;
            c.writable = true;
        }
        accepting
    }
}
