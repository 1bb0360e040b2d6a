//! The planning daemon: an event-driven connection reactor (one thread,
//! nonblocking sockets, readiness polling — see [`crate::reactor`]), a
//! bounded worker pool that owns the DP sessions, a supervisor that
//! respawns workers that die, and an optional gossip thread that warms
//! peer caches in cluster mode.
//!
//! Life of a `plan` request:
//!
//! 1. The reactor parses and validates the line; anything unusable is
//!    answered with a structured error and the connection stays open.
//!    Lines are bounded at [`MAX_LINE_BYTES`]; an oversized line is
//!    rejected *while it streams in* (the buffer never grows past the
//!    bound) and the rest of it is discarded up to the next newline.
//!    Many requests may be pipelined on one connection; responses come
//!    back in request order.
//! 2. The canonical key probes the [`PlanCache`]; a hit is answered
//!    immediately (`cached:true`).
//! 3. A miss becomes a [`Job`] on the bounded queue, ordered
//!    earliest-deadline-first — under pressure the work most likely to
//!    still matter runs first. A full queue is an immediate
//!    `overloaded` reject, and a CoDel-style admission gate
//!    ([`OverloadGate`]) starts shedding probabilistically
//!    (`serve.shed.overload`) when queue sojourn has exceeded its
//!    target for a sustained window — the server sheds load instead of
//!    building a backlog whose every entry will miss its deadline.
//! 4. A worker picks the job up — dropping it unrun with a structured
//!    `timeout` (`serve.shed.expired`) if its deadline already passed
//!    while queued — builds (or reuses) a [`ProbeSession`]
//!    for the instance and plans. Consecutive same-instance jobs are
//!    served through the same warm session, which is both faster and —
//!    because probes are pure functions of (chain, platform, T̂) —
//!    bit-identical to a cold `madpipe plan`. Finished replies ring the
//!    reactor's waker so the response leaves immediately.
//! 5. The slot waits in the connection's pipeline with the request
//!    deadline; if the worker misses it, the client gets a `timeout`
//!    error and the worker result (if any) still lands in the cache.
//!
//! A `replan` request runs the same pipeline twice — once for the
//! healthy instance, once for the fault's survivor — and reports the
//! throughput delta; both plans land in (or come from) the same cache.
//!
//! Cluster mode: [`ServeConfig::peers`] (or [`Server::add_peer`]) names
//! sibling daemons; a gossip thread periodically ships this daemon's
//! hottest canonical keys + plans to each peer (see [`crate::gossip`]),
//! so a plan computed anywhere in the cluster soon serves as a cache
//! hit everywhere. Peers apply entries with `{"cmd":"gossip",…}` —
//! plans gossip verbatim as rendered, so a warmed hit stays
//! f64-bit-identical to the origin daemon's (and thus to offline)
//! planning.
//!
//! Supervision: a planner panic is caught per job. The poisoned request
//! is answered with a structured `internal` error (counter
//! `serve.panics`), then the panic is *resumed* so the worker thread
//! tears down its possibly-corrupt session state; the supervisor thread
//! observes the death and respawns a fresh worker
//! (`serve.workers.respawned`). One poisoned request can therefore never
//! take the pool down, and `{"cmd":"health"}` reports live worker count
//! and queue depth for external monitors.
//!
//! Draining: `shutdown()` (or a `{"cmd":"shutdown"}` request, or
//! SIGTERM/SIGINT via [`install_signal_handlers`]) flips one flag. The
//! reactor stops accepting, retires every in-flight slot, flushes and
//! closes its connections; closing the job queue lets the workers
//! drain it and exit, and the supervisor and gossip threads follow them
//! out. `join()` then returns — no request is abandoned mid-write.
//!
//! Crash recovery: with [`ServeConfig::journal`] set, every freshly
//! computed plan is appended to a checksummed journal
//! ([`crate::journal`]) and replayed into the cache on the next start,
//! so even a `SIGKILL`ed daemon comes back warm, serving byte-identical
//! plans. A clean drain compacts the journal down to the live cache.

use std::collections::BinaryHeap;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use madpipe_core::{madpipe_plan_with_session, ProbeSession};
use madpipe_json::Value;
use madpipe_obs::Registry;

use crate::cache::PlanCache;
use crate::protocol::{plan_to_json, PlanRequest, ServeError};
use crate::reactor::{reactor_loop, wake_pair, Waker};

/// Daemon configuration (the CLI's `--addr/--threads/--cache-entries/
/// --timeout-ms` flags map 1:1 onto these fields).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4835` (`:0` picks a free port).
    pub addr: String,
    /// Planner worker threads.
    pub threads: usize,
    /// Total plan-cache capacity (0 disables the cache).
    pub cache_entries: usize,
    /// Per-request deadline, from parse to response.
    pub timeout: Duration,
    /// Worker queue depth; 0 means `max(4 × threads, 64)` — at least
    /// two connections' worth of deep pipelining (the reactor allows
    /// 256 requests in flight per connection), so a single pipelined
    /// client's cold burst is queued, not rejected as overloaded.
    pub queue_depth: usize,
    /// Chaos hook for the test harness: when set, a plan whose chain
    /// name contains this marker makes the worker panic *inside* the
    /// planning path, exercising panic isolation and supervised respawn.
    /// `None` (the default, and the CLI's only setting) disables it.
    pub panic_marker: Option<String>,
    /// Sibling daemon addresses to gossip hot cache entries to
    /// (cluster mode). Empty disables gossip; [`Server::add_peer`]
    /// extends the set at runtime.
    pub peers: Vec<String>,
    /// How often the gossip thread ships its hottest entries.
    pub gossip_interval: Duration,
    /// How many of the hottest cache entries each gossip round ships.
    pub gossip_entries: usize,
    /// Where to dump the flight recorder (JSONL) when the daemon drains
    /// or a worker panics. `None` disables post-mortem dumps; the ring
    /// still records (it is always on), it just never reaches disk.
    pub flight_dump: Option<String>,
    /// Durable plan journal path (`--journal`). Every freshly computed
    /// plan is appended; on startup the journal is replayed into the
    /// cache so a crashed daemon restarts warm. `None` disables.
    pub journal: Option<String>,
    /// Approximate plan-cache byte budget on top of the entry bound
    /// (0 = entries only). A plan larger than the whole budget is
    /// served uncached rather than admitted.
    pub cache_bytes: usize,
    /// Overload-gate queue-sojourn target: once the *minimum* queue
    /// wait over a [`shed_window`](ServeConfig::shed_window) stays
    /// above this, new work is shed probabilistically until the queue
    /// recovers. Zero (the default) derives `min(timeout / 4, 1 s)`.
    pub shed_target: Duration,
    /// How long sojourn must stay above target before shedding starts
    /// (and the cadence at which the gate re-evaluates).
    pub shed_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4835".into(),
            threads: 2,
            cache_entries: 256,
            timeout: Duration::from_secs(30),
            queue_depth: 0,
            panic_marker: None,
            peers: Vec::new(),
            gossip_interval: Duration::from_millis(500),
            gossip_entries: 8,
            flight_dump: None,
            journal: None,
            cache_bytes: 0,
            shed_target: Duration::ZERO,
            shed_window: Duration::from_millis(100),
        }
    }
}

/// Hard bound on one request line. A hostile client streaming an endless
/// line is rejected as soon as the buffer crosses this, long before an
/// allocation worth worrying about; 1 MiB comfortably fits any real
/// instance (a 64k-layer chain is itself rejected by the planner).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// How often idle loops re-check the drain flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);

pub(crate) type PlanOutcome = Result<(Arc<Value>, bool), ServeError>;

pub(crate) struct Job {
    pub(crate) req: Box<PlanRequest>,
    pub(crate) deadline: Instant,
    pub(crate) reply: SyncSender<PlanOutcome>,
    /// Distributed trace id (0 = untraced request).
    pub(crate) trace: u64,
    /// The request span's id — parent of the worker/DP spans.
    pub(crate) span: u64,
    /// When the reactor queued the job, for the queue-wait span.
    pub(crate) enqueued: Instant,
}

/// The bounded job queue, ordered earliest-deadline-first (FIFO within
/// a deadline via a monotone sequence number, so equal-deadline bursts
/// keep arrival order). Replaces the old FIFO channel: under overload a
/// FIFO burns worker time on the *oldest* work — exactly the requests
/// whose deadlines expire first — while EDF runs what can still make it.
///
/// Closing the queue (reactor exit) wakes every blocked worker; they
/// drain the remaining jobs and return, preserving the old
/// disconnect-on-drain semantics.
pub(crate) struct DeadlineQueue {
    inner: Mutex<QueueInner>,
    avail: Condvar,
    capacity: usize,
}

struct QueueInner {
    heap: BinaryHeap<QueuedJob>,
    closed: bool,
    seq: u64,
}

struct QueuedJob {
    job: Job,
    seq: u64,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    /// `BinaryHeap` is a max-heap: reverse both fields so the earliest
    /// deadline (then the earliest arrival) surfaces first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .job
            .deadline
            .cmp(&self.job.deadline)
            .then(other.seq.cmp(&self.seq))
    }
}

impl DeadlineQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                heap: BinaryHeap::new(),
                closed: false,
                seq: 0,
            }),
            avail: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue unless the queue is full or closed (the job comes back
    /// so the caller can answer its client).
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = lock_unpoisoned(&self.inner);
        if q.closed || q.heap.len() >= self.capacity {
            return Err(job);
        }
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(QueuedJob { job, seq });
        drop(q);
        self.avail.notify_one();
        Ok(())
    }

    /// Block for the earliest-deadline job; `None` once the queue is
    /// closed *and* empty — the worker-drain signal.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut q = lock_unpoisoned(&self.inner);
        loop {
            if let Some(next) = q.heap.pop() {
                return Some(next.job);
            }
            if q.closed {
                return None;
            }
            q = self.avail.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking pop — the worker lookahead.
    pub(crate) fn try_pop(&self) -> Option<Job> {
        lock_unpoisoned(&self.inner).heap.pop().map(|q| q.job)
    }

    /// Stop admitting and wake every blocked worker.
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.avail.notify_all();
    }
}

/// CoDel-style sojourn-time admission gate. Workers report every job's
/// queue wait at dequeue ([`OverloadGate::observe`]); when the *minimum*
/// wait over a whole window exceeds the target — i.e. even the luckiest
/// job waited too long, so the queue is persistently, not transiently,
/// full — the gate flips to shedding and the reactor drops a growing
/// fraction of new plan misses with a structured `overloaded` error
/// (`serve.shed.overload`) instead of queueing work that would expire.
/// The min-over-window statistic is CoDel's: it ignores bursts that
/// drain, reacts only to standing queues.
pub(crate) struct OverloadGate {
    target: Duration,
    window: Duration,
    /// Reactor fast path: one relaxed load while healthy.
    shedding: AtomicBool,
    state: Mutex<GateState>,
}

struct GateState {
    window_start: Option<Instant>,
    min_sojourn: Duration,
    /// Consecutive windows above target — drives the shed ramp.
    bad_windows: u32,
    /// xorshift64 state for the probabilistic drop.
    rng: u64,
}

impl OverloadGate {
    pub(crate) fn new(target: Duration, window: Duration) -> Self {
        Self {
            target,
            window,
            shedding: AtomicBool::new(false),
            state: Mutex::new(GateState {
                window_start: None,
                min_sojourn: Duration::MAX,
                bad_windows: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// Record one job's queue sojourn (called by workers at dequeue).
    pub(crate) fn observe(&self, sojourn: Duration) {
        let now = Instant::now();
        let mut s = lock_unpoisoned(&self.state);
        match s.window_start {
            None => {
                s.window_start = Some(now);
                s.min_sojourn = sojourn;
            }
            Some(t0) => {
                s.min_sojourn = s.min_sojourn.min(sojourn);
                if now.duration_since(t0) >= self.window {
                    let above = s.min_sojourn > self.target;
                    if above {
                        s.bad_windows += 1;
                    } else {
                        s.bad_windows = 0;
                    }
                    self.shedding.store(above, Ordering::Relaxed);
                    s.window_start = Some(now);
                    s.min_sojourn = sojourn;
                }
            }
        }
    }

    /// Admission check for a new plan miss. `false` = shed it now.
    pub(crate) fn admit(&self, queue_depth: usize) -> bool {
        if queue_depth == 0 {
            // An empty queue cannot be overloaded, whatever the last
            // window said — clears stale shedding after a storm ends.
            self.shedding.store(false, Ordering::Relaxed);
            return true;
        }
        if !self.shedding.load(Ordering::Relaxed) {
            return true;
        }
        let mut s = lock_unpoisoned(&self.state);
        // Ramp the drop probability with how long the queue has been
        // standing: 25% after one bad window, up to 90% — admitted
        // traffic keeps probing whether the queue recovered.
        let p = (0.25 * f64::from(s.bad_windows)).min(0.9);
        s.rng ^= s.rng << 13;
        s.rng ^= s.rng >> 7;
        s.rng ^= s.rng << 17;
        let draw = (s.rng >> 11) as f64 / (1u64 << 53) as f64;
        draw >= p
    }
}

pub(crate) struct Ctx {
    pub(crate) draining: AtomicBool,
    pub(crate) registry: Registry,
    pub(crate) cache: PlanCache,
    pub(crate) timeout: Duration,
    /// Configured worker count (the supervisor keeps this many alive).
    pub(crate) threads: usize,
    pub(crate) queue_capacity: usize,
    /// Jobs accepted onto the queue and not yet picked up by a worker.
    pub(crate) queue_depth: AtomicUsize,
    /// Workers currently inside their loop (RAII-tracked, so a panicking
    /// worker decrements on unwind).
    pub(crate) workers_alive: AtomicUsize,
    pub(crate) panic_marker: Option<String>,
    /// Rings the reactor out of its poll when a worker reply lands.
    pub(crate) waker: Waker,
    /// Gossip targets (cluster peers); extendable at runtime.
    pub(crate) peers: Mutex<Vec<String>>,
    pub(crate) gossip_interval: Duration,
    pub(crate) gossip_entries: usize,
    /// Post-mortem flight-recorder dump path (panic and drain).
    pub(crate) flight_dump: Option<String>,
    /// Overload admission gate (always present; inert until sojourn
    /// observations cross its target).
    pub(crate) gate: OverloadGate,
    /// Durable plan journal (crash recovery); `None` when not configured.
    pub(crate) journal: Option<crate::journal::Journal>,
}

impl Ctx {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || term_requested()
    }
}

/// Lock that shrugs off poisoning: a worker that panicked while holding
/// a supervised lock must not cascade the panic into every other thread
/// touching it. All guarded state here stays consistent across unwinds
/// (counters, maps with no partial multi-step updates).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon. Dropping it without `join()` leaves the threads
/// running; call [`Server::shutdown`] then [`Server::join`] to drain.
pub struct Server {
    local_addr: SocketAddr,
    ctx: Arc<Ctx>,
    reactor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    gossip: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live and
    /// every worker counts as alive — a client may connect, and `health`
    /// reports the full pool, as soon as this returns.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (waker, wake_rx) = wake_pair()?;
        let threads = cfg.threads.max(1);
        let depth = if cfg.queue_depth == 0 {
            (threads * 4).max(64)
        } else {
            cfg.queue_depth
        };
        let registry = Registry::new();
        let cache = PlanCache::with_byte_budget(cfg.cache_entries, cfg.cache_bytes);

        // Warm restart: replay the journal into the cache before the
        // listener goes live, so the very first request after a crash
        // can already hit. Records are exactly as rendered, so warmed
        // hits are byte-identical to what the dead daemon served.
        let journal = match &cfg.journal {
            Some(path) => {
                let j = crate::journal::Journal::open(path)?;
                let (entries, stats) = j.replay();
                let mut applied = 0u64;
                for (key, plan) in entries {
                    let (inserted, evicted) = cache.warm(key, plan);
                    applied += u64::from(inserted);
                    registry.add("serve.cache.evictions", evicted);
                }
                registry.add("serve.journal.recovered", stats.recovered as u64);
                registry.add("serve.journal.torn", stats.torn as u64);
                registry.add("serve.journal.applied", applied);
                Some(j)
            }
            None => None,
        };

        let shed_target = if cfg.shed_target.is_zero() {
            (cfg.timeout / 4).min(Duration::from_secs(1))
        } else {
            cfg.shed_target
        };
        let ctx = Arc::new(Ctx {
            draining: AtomicBool::new(false),
            registry,
            cache,
            timeout: cfg.timeout,
            threads,
            queue_capacity: depth,
            queue_depth: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
            panic_marker: cfg.panic_marker.clone(),
            waker,
            peers: Mutex::new(cfg.peers.clone()),
            gossip_interval: cfg.gossip_interval,
            gossip_entries: cfg.gossip_entries,
            flight_dump: cfg.flight_dump.clone(),
            gate: OverloadGate::new(shed_target, cfg.shed_window),
            journal,
        });

        let jobs = Arc::new(DeadlineQueue::new(depth));
        let workers: Vec<JoinHandle<()>> =
            (0..threads).map(|i| spawn_worker(i, &ctx, &jobs)).collect();

        let supervisor = {
            let ctx = Arc::clone(&ctx);
            let jobs = Arc::clone(&jobs);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor_loop(&ctx, &jobs, workers))
                .expect("spawn supervisor")
        };

        let reactor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("serve-reactor".into())
                .spawn(move || reactor_loop(listener, ctx, jobs, wake_rx))
                .expect("spawn reactor")
        };

        let gossip = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("serve-gossip".into())
                .spawn(move || crate::gossip::gossip_loop(&ctx))
                .expect("spawn gossip")
        };

        Ok(Server {
            local_addr,
            ctx,
            reactor: Some(reactor),
            supervisor: Some(supervisor),
            gossip: Some(gossip),
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's metrics registry (counters named `serve.*`).
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    /// Number of workers currently alive (the supervisor restores this
    /// to the configured count after a worker death).
    pub fn workers_alive(&self) -> usize {
        self.ctx.workers_alive.load(Ordering::SeqCst)
    }

    /// Add a gossip peer at runtime (cluster membership is often only
    /// known after every daemon has bound its port).
    pub fn add_peer(&self, addr: impl Into<String>) {
        lock_unpoisoned(&self.ctx.peers).push(addr.into());
    }

    /// Ask the server to drain: stop accepting, finish in-flight
    /// requests, let the workers empty the queue.
    pub fn shutdown(&self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.ctx.waker.wake();
    }

    /// True once a drain was requested (by [`Server::shutdown`], a
    /// `shutdown` request, or a signal).
    pub fn is_draining(&self) -> bool {
        self.ctx.draining()
    }

    /// Block until the reactor (and with it every connection), every
    /// worker, the supervisor and the gossip thread have exited. Call
    /// [`Server::shutdown`] first (or send `shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.gossip.take() {
            let _ = h.join();
        }
        // Drain compaction: rewrite the journal down to what the cache
        // actually holds — replay on the next start then costs one
        // cache-full, not one append-history-full.
        if let Some(j) = &self.ctx.journal {
            let live = self.ctx.cache.hottest(usize::MAX);
            if j.compact(&live).is_ok() {
                self.ctx.registry.inc("serve.journal.compactions");
            }
        }
        // Post-mortem artifact: whatever the ring still holds when the
        // daemon exits (SIGTERM drain, chaos kill) lands on disk. Worker
        // panics dump earlier, at the panic site; this drain of the ring
        // then appends nothing new for those events.
        if let Some(path) = &self.ctx.flight_dump {
            let _ = madpipe_obs::flight::write_dump(path);
        }
    }
}

/// Decrements the live-worker gauge however the worker exits — return
/// or unwind.
struct AliveGuard<'a>(&'a AtomicUsize);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawn worker `id`. It counts as alive from before `spawn` returns, so
/// a `health` call right after [`Server::start`] sees every worker; the
/// guard inside the thread takes the count back down however it exits.
fn spawn_worker(id: usize, ctx: &Arc<Ctx>, jobs: &Arc<DeadlineQueue>) -> JoinHandle<()> {
    let ctx = Arc::clone(ctx);
    let jobs = Arc::clone(jobs);
    ctx.workers_alive.fetch_add(1, Ordering::SeqCst);
    std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || {
            let _alive = AliveGuard(&ctx.workers_alive);
            worker_loop(&ctx, &jobs);
        })
        .expect("spawn worker")
}

/// Keep the pool at full strength: join workers as they finish; a panic
/// death (join `Err`) is replaced with a fresh worker unless the server
/// is draining. Exits once every worker has left cleanly (the job queue
/// closed and drained).
fn supervisor_loop(ctx: &Arc<Ctx>, jobs: &Arc<DeadlineQueue>, mut workers: Vec<JoinHandle<()>>) {
    let mut next_id = workers.len();
    while !workers.is_empty() {
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let crashed = workers.remove(i).join().is_err();
                if crashed {
                    ctx.registry.inc("serve.workers.respawned");
                    if !ctx.draining() {
                        workers.push(spawn_worker(next_id, ctx, jobs));
                        next_id += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        std::thread::sleep(POLL);
    }
}

/// The `health` payload: supervision state an external monitor needs to
/// decide whether the daemon is healthy, degraded or draining.
pub(crate) fn health_value(ctx: &Arc<Ctx>) -> Value {
    let mut fields = vec![
        ("draining".into(), Value::Bool(ctx.draining())),
        (
            "workers_alive".into(),
            Value::UInt(ctx.workers_alive.load(Ordering::SeqCst) as u64),
        ),
        ("workers_configured".into(), Value::UInt(ctx.threads as u64)),
        (
            "queue_depth".into(),
            Value::UInt(ctx.queue_depth.load(Ordering::SeqCst) as u64),
        ),
        (
            "queue_capacity".into(),
            Value::UInt(ctx.queue_capacity as u64),
        ),
        ("cached_plans".into(), Value::UInt(ctx.cache.len() as u64)),
        (
            "panics".into(),
            Value::UInt(ctx.registry.counter("serve.panics")),
        ),
        (
            "respawns".into(),
            Value::UInt(ctx.registry.counter("serve.workers.respawned")),
        ),
        // Flight-recorder loss plus the request/cache counters `madpipe
        // top` turns into per-daemon req/s and hit-ratio columns.
        (
            "events_dropped".into(),
            Value::UInt(madpipe_obs::flight::dropped()),
        ),
        (
            "requests".into(),
            Value::UInt(ctx.registry.counter("serve.requests")),
        ),
        (
            "cache_hits".into(),
            Value::UInt(ctx.registry.counter("serve.cache.hits")),
        ),
        (
            "cache_misses".into(),
            Value::UInt(ctx.registry.counter("serve.cache.misses")),
        ),
        // Overload accounting: what the daemon refused to do, and why.
        (
            "shed_expired".into(),
            Value::UInt(ctx.registry.counter("serve.shed.expired")),
        ),
        (
            "shed_overload".into(),
            Value::UInt(ctx.registry.counter("serve.shed.overload")),
        ),
        (
            "rejects".into(),
            Value::UInt(ctx.registry.counter("serve.rejects")),
        ),
        // Accept-loop distress: error count and total backoff slept.
        (
            "accept_errors".into(),
            Value::UInt(ctx.registry.counter("serve.accept.errors")),
        ),
        (
            "accept_backoff_ms".into(),
            Value::UInt(ctx.registry.counter("serve.accept.backoff_ms")),
        ),
    ];
    if let Some(j) = &ctx.journal {
        fields.push((
            "journal".into(),
            Value::Object(vec![
                ("path".into(), Value::Str(j.path().to_string())),
                (
                    "recovered".into(),
                    Value::UInt(ctx.registry.counter("serve.journal.recovered")),
                ),
                (
                    "applied".into(),
                    Value::UInt(ctx.registry.counter("serve.journal.applied")),
                ),
                (
                    "torn".into(),
                    Value::UInt(ctx.registry.counter("serve.journal.torn")),
                ),
                (
                    "appended".into(),
                    Value::UInt(ctx.registry.counter("serve.journal.appended")),
                ),
                (
                    "errors".into(),
                    Value::UInt(ctx.registry.counter("serve.journal.errors")),
                ),
            ]),
        ));
    }
    Value::Object(fields)
}

fn worker_loop(ctx: &Arc<Ctx>, jobs: &Arc<DeadlineQueue>) {
    let mut pending: Option<Job> = None;
    loop {
        let job = match pending.take() {
            Some(j) => j,
            None => match jobs.pop() {
                Some(j) => {
                    ctx.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    j
                }
                // Queue closed and drained: exit.
                None => return,
            },
        };
        serve_instance(ctx, jobs, job, &mut pending);
    }
}

/// Stamp how long a job sat on the queue before a worker picked it up:
/// the `serve.queue.seconds` histogram plus a `serve.queue.wait` flight
/// span parented under the request span. The sojourn also feeds the
/// overload gate — this is the measurement CoDel-style shedding runs on.
fn record_queue_wait(ctx: &Arc<Ctx>, job: &Job) {
    let sojourn = job.enqueued.elapsed();
    ctx.gate.observe(sojourn);
    let wait = sojourn.as_secs_f64();
    ctx.registry.observe("serve.queue.seconds", wait);
    madpipe_obs::flight::record_span(
        "serve.queue.wait",
        madpipe_obs::now_unix_us() - wait * 1e6,
        wait * 1e6,
        job.trace,
        madpipe_obs::fresh_id(),
        job.span,
    );
}

/// Render a human-readable panic message from a caught payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Plan `job`'s instance, then keep serving consecutive jobs for the
/// *same* canonical instance through the same warm [`ProbeSession`]:
/// repeated probes cost a memo lookup, and the result is bit-identical
/// to a cold run because every probe is a pure function of
/// (chain, platform, T̂). A job for a different instance is handed back
/// via `pending`.
///
/// A panic inside the planner is caught here: the waiting client gets a
/// structured `internal` error, `serve.panics` is bumped, and the panic
/// is resumed so this worker (and its possibly-poisoned session) tears
/// down — the supervisor spawns a replacement.
fn serve_instance(ctx: &Arc<Ctx>, jobs: &Arc<DeadlineQueue>, job: Job, pending: &mut Option<Job>) {
    record_queue_wait(ctx, &job);
    if Instant::now() >= job.deadline {
        // Sat in the queue past its deadline; the client already gave
        // up — shed it without burning DP time on a dead request.
        ctx.registry.inc("serve.shed.expired");
        let _ = job.reply.try_send(Err(ServeError::timeout()));
        ctx.waker.wake();
        return;
    }
    let PlanRequest {
        chain,
        platform,
        cfg,
        canonical,
    } = *job.req;
    let mut reply = job.reply;
    let (mut trace, mut parent) = (job.trace, job.span);
    // The session must solve under the request's policy spec — a
    // default-built session would (correctly) refuse any non-default
    // request with `PlanError::PolicyMismatch`.
    let mut session = ProbeSession::new_with_policy(
        &chain,
        &platform,
        &cfg.algorithm1.discretization,
        cfg.policy,
    );
    loop {
        let worker_t0 = Instant::now();
        let worker_ts = madpipe_obs::now_unix_us();
        let worker_span = madpipe_obs::fresh_id();
        // Re-probe the cache: another worker may have finished the same
        // instance while this job sat in the queue.
        let outcome: PlanOutcome = match ctx.cache.get(&canonical) {
            Some(plan) => Ok((plan, true)),
            None => {
                let t0 = Instant::now();
                let planned = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(marker) = &ctx.panic_marker {
                        if chain.name().contains(marker.as_str()) {
                            panic!("chaos marker `{marker}` in chain name");
                        }
                    }
                    let dp_t0 = Instant::now();
                    let dp_ts = madpipe_obs::now_unix_us();
                    let out = madpipe_plan_with_session(&mut session, &cfg);
                    madpipe_obs::flight::record_span(
                        "serve.dp",
                        dp_ts,
                        dp_t0.elapsed().as_secs_f64() * 1e6,
                        trace,
                        madpipe_obs::fresh_id(),
                        worker_span,
                    );
                    out
                }));
                let (result, _stats) = match planned {
                    Ok(r) => r,
                    Err(payload) => {
                        ctx.registry.inc("serve.panics");
                        let _ = reply.try_send(Err(ServeError::internal(format!(
                            "planner worker panicked: {}",
                            panic_message(payload.as_ref())
                        ))));
                        ctx.waker.wake();
                        // Post-mortem: the panic instant joins the request's
                        // trace, and the ring reaches disk *now* — this
                        // thread is about to die and take no dump with it.
                        madpipe_obs::flight::record_instant(
                            "serve.panic",
                            madpipe_obs::now_unix_us(),
                            trace,
                            worker_span,
                        );
                        madpipe_obs::flight::record_span(
                            "serve.worker",
                            worker_ts,
                            worker_t0.elapsed().as_secs_f64() * 1e6,
                            trace,
                            worker_span,
                            parent,
                        );
                        if let Some(path) = &ctx.flight_dump {
                            let _ = madpipe_obs::flight::write_dump(path);
                        }
                        // The session may be mid-update; never reuse it.
                        // Resuming lets the thread die and the supervisor
                        // replace it with a clean one.
                        std::panic::resume_unwind(payload);
                    }
                };
                ctx.registry
                    .observe("serve.plan.seconds", t0.elapsed().as_secs_f64());
                ctx.registry.inc("serve.plans");
                match result {
                    Ok(plan) => {
                        let rendered = Arc::new(plan_to_json(&plan));
                        let evicted = ctx.cache.insert(canonical.clone(), Arc::clone(&rendered));
                        ctx.registry.add("serve.cache.evictions", evicted);
                        // Durability: the journal gets the plan exactly
                        // as rendered, so replay warms byte-identical
                        // responses. A failed append degrades recovery,
                        // never this response.
                        if let Some(j) = &ctx.journal {
                            match j.append(&canonical, &rendered) {
                                Ok(()) => ctx.registry.inc("serve.journal.appended"),
                                Err(_) => ctx.registry.inc("serve.journal.errors"),
                            }
                        }
                        Ok((rendered, false))
                    }
                    Err(e) => Err(ServeError::plan(e.to_string())),
                }
            }
        };
        madpipe_obs::flight::record_span(
            "serve.worker",
            worker_ts,
            worker_t0.elapsed().as_secs_f64() * 1e6,
            trace,
            worker_span,
            parent,
        );
        // The reactor may have timed the slot out and dropped the
        // receiver; the plan still went into the cache, so the retry
        // will hit. The wake gets the response on the wire without
        // waiting out the reactor's poll timeout.
        let _ = reply.try_send(outcome);
        ctx.waker.wake();

        // Lookahead: pull the next queued job without blocking; keep it
        // only if it is the same instance, otherwise hand it back.
        loop {
            match jobs.try_pop() {
                Some(j) => {
                    ctx.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    if j.req.canonical == canonical {
                        record_queue_wait(ctx, &j);
                        if Instant::now() >= j.deadline {
                            ctx.registry.inc("serve.shed.expired");
                            let _ = j.reply.try_send(Err(ServeError::timeout()));
                            ctx.waker.wake();
                            continue;
                        }
                        reply = j.reply;
                        (trace, parent) = (j.trace, j.span);
                        break; // serve it through the warm session
                    }
                    *pending = Some(j);
                    return;
                }
                None => return, // queue empty (or closed)
            }
        }
    }
}

// --- signal handling (no libc dependency) --------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // `signal(2)` via a raw declaration — the only libc symbol the
        // daemon needs, not worth a dependency. The handler just flips
        // an atomic, which is async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_term);
            signal(SIGTERM, on_term);
        }
    }
}

/// Install SIGTERM/SIGINT handlers that request a graceful drain of
/// every running [`Server`] in this process. No-op on non-Unix hosts.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sig::install();
}

/// True once SIGTERM/SIGINT was received (always false when
/// [`install_signal_handlers`] was never called).
pub fn term_requested() -> bool {
    #[cfg(unix)]
    {
        sig::TERM.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}
