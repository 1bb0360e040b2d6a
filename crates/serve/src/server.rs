//! The planning daemon: an event-driven connection reactor (one thread,
//! nonblocking sockets, readiness polling — see [`crate::reactor`]), a
//! bounded worker pool that owns the DP sessions, and a supervisor that
//! respawns workers that die.
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
//!    immediately (`cached:true`) around the plan's stored JSON.
//! 3. A miss becomes a [`Job`] on the bounded FIFO [`JobQueue`]. Every
//!    deadline is the same timeout after parse, so arrival order is
//!    deadline order. First, [`admit`] refuses the miss with a
//!    structured `overloaded` error (`serve.shed.overload`) when the
//!    queue ahead of it, at the mean plan time measured so far, cannot
//!    finish before its deadline — the server sheds load instead of
//!    building a backlog whose every entry will miss its deadline. A
//!    full queue is an immediate `overloaded` reject (`serve.rejects`).
//! 4. A worker pops the job — dropping it unrun with a structured
//!    `timeout` (`serve.shed.expired`) if its deadline already passed
//!    while queued — and re-probes the cache, since another worker may
//!    have planned the same instance meanwhile. On a miss it plans with
//!    [`madpipe_plan_with_stats`], exactly as `madpipe plan` does, so
//!    the plan is bit-identical to an offline one, and renders it once:
//!    the cache entry, the journal record and the response carry those
//!    bytes. Finished replies ring the reactor's waker so the response
//!    leaves immediately.
//! 5. The slot waits in the connection's pipeline with the request
//!    deadline; if the worker misses it, the client gets a `timeout`
//!    error and the worker result (if any) still lands in the cache.
//!
//! A `replan` request runs the same pipeline twice — once for the
//! healthy instance, once for the fault's survivor — and reports the
//! throughput delta; both plans land in (or come from) the same cache.
//!
//! Cluster mode needs nothing from the daemon: N ordinary daemons sit
//! behind the consistent-hash [`crate::router`], which sends each key to
//! its home daemon. The only way a plan enters the cache is this
//! daemon's own worker (or its own journal), so every hit is what
//! offline planning computes for the key.
//!
//! Supervision: a planner panic is caught per job. The poisoned request
//! is answered with a structured `internal` error (counter
//! `serve.panics`), then the panic is *resumed* so the worker thread
//! dies; the supervisor thread observes the death and respawns a fresh
//! worker (`serve.workers.respawned`). One poisoned request can
//! therefore never take the pool down, and `{"cmd":"health"}` reports
//! live worker count and queue depth for external monitors.
//!
//! Draining: `shutdown()` (or a `{"cmd":"shutdown"}` request, or
//! SIGTERM/SIGINT via [`install_signal_handlers`]) flips one flag. The
//! reactor stops accepting, retires every in-flight slot, flushes and
//! closes its connections; closing the job queue lets the workers
//! drain it and exit, and the supervisor follows them out. `join()`
//! then returns — no request is abandoned mid-write.
//!
//! Crash recovery: with [`ServeConfig::journal`] set, every freshly
//! computed plan is appended to a checksummed journal
//! ([`crate::journal`]) and replayed into the cache on the next start,
//! so even a `SIGKILL`ed daemon comes back warm, serving byte-identical
//! plans. A clean drain compacts the journal down to the live cache.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use madpipe_core::madpipe_plan_with_stats;
use madpipe_json::Value;
use madpipe_obs::Registry;

use crate::cache::{CachedPlan, PlanCache};
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
            flight_dump: None,
            journal: None,
            cache_bytes: 0,
        }
    }
}

/// Hard bound on one request line. A hostile client streaming an endless
/// line is rejected as soon as the buffer crosses this, long before an
/// allocation worth worrying about; 1 MiB comfortably fits any real
/// instance (a 64k-layer chain is itself rejected by the planner).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// How often idle loops re-check the drain flag.
const POLL: Duration = Duration::from_millis(50);

pub(crate) type PlanOutcome = Result<(Arc<CachedPlan>, bool), ServeError>;

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

/// The bounded job queue, first in, first out. Every deadline is
/// `Instant::now() + timeout`, stamped on the one reactor thread that
/// also does every push, and `Instant` never goes backwards — so push
/// order is deadline order, and the front job is always the one whose
/// deadline comes first.
///
/// Closing the queue (reactor exit) wakes every blocked worker; they
/// drain the remaining jobs and return, preserving the old
/// disconnect-on-drain semantics.
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    avail: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            avail: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue unless the queue is full or closed (the job comes back
    /// so the caller can answer its client).
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = lock_unpoisoned(&self.inner);
        if q.closed || q.jobs.len() >= self.capacity {
            return Err(job);
        }
        q.jobs.push_back(job);
        drop(q);
        self.avail.notify_one();
        Ok(())
    }

    /// Block for the oldest job; `None` once the queue is closed *and*
    /// empty — the worker-drain signal.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut q = lock_unpoisoned(&self.inner);
        loop {
            if let Some(next) = q.jobs.pop_front() {
                return Some(next);
            }
            if q.closed {
                return None;
            }
            q = self.avail.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop admitting and wake every blocked worker.
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.avail.notify_all();
    }
}

/// Admission for a new plan miss: with `depth` jobs queued ahead of it
/// and `threads` workers each taking `mean_plan` per job, the miss would
/// finish after `(depth / threads + 1) × mean_plan`. Refuse it when that
/// falls after `timeout`. An empty queue always admits, and so does a
/// daemon that has not timed a plan yet (`mean_plan` is then zero).
pub(crate) fn admit(depth: usize, threads: usize, mean_plan: Duration, timeout: Duration) -> bool {
    let expected = (depth as f64 / threads as f64 + 1.0) * mean_plan.as_secs_f64();
    depth == 0 || expected <= timeout.as_secs_f64()
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
    /// Post-mortem flight-recorder dump path (panic and drain).
    pub(crate) flight_dump: Option<String>,
    /// Sum and count of every plan time measured (`serve.plan.seconds`),
    /// the mean that [`admit`] charges each queued job.
    pub(crate) plan_nanos: AtomicU64,
    pub(crate) plans_timed: AtomicU64,
    /// Durable plan journal (crash recovery); `None` when not configured.
    pub(crate) journal: Option<crate::journal::Journal>,
}

impl Ctx {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || term_requested()
    }

    /// Mean measured plan time; zero before the first plan.
    pub(crate) fn mean_plan(&self) -> Duration {
        let plans = self.plans_timed.load(Ordering::Relaxed);
        if plans == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.plan_nanos.load(Ordering::Relaxed) / plans)
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
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live and
    /// every worker counts as alive — a client may connect, and `health`
    /// reports the full pool, as soon as this returns.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        // Before the listener is live: no request's deadline pays for
        // the ring.
        madpipe_obs::flight::init();
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
        // can already hit. Records are exactly as rendered, and `warm`
        // renders each plan back once, so warmed hits are byte-identical
        // to what the dead daemon served.
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
            flight_dump: cfg.flight_dump.clone(),
            plan_nanos: AtomicU64::new(0),
            plans_timed: AtomicU64::new(0),
            journal,
        });

        let jobs = Arc::new(JobQueue::new(depth));
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

        Ok(Server {
            local_addr,
            ctx,
            reactor: Some(reactor),
            supervisor: Some(supervisor),
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
    /// worker and the supervisor have exited. Call
    /// [`Server::shutdown`] first (or send `shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        // Drain compaction: rewrite the journal down to what the cache
        // actually holds — replay on the next start then costs one
        // cache-full, not one append-history-full.
        if let Some(j) = &self.ctx.journal {
            let live = self.ctx.cache.entries();
            if j.compact(
                live.iter()
                    .map(|(key, plan)| (key.as_str(), plan.json.as_str())),
            )
            .is_ok()
            {
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
fn spawn_worker(id: usize, ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>) -> JoinHandle<()> {
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
fn supervisor_loop(ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>, mut workers: Vec<JoinHandle<()>>) {
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

fn worker_loop(ctx: &Arc<Ctx>, jobs: &Arc<JobQueue>) {
    // `None`: the queue is closed and drained.
    while let Some(job) = jobs.pop() {
        ctx.queue_depth.fetch_sub(1, Ordering::SeqCst);
        serve_job(ctx, job);
    }
}

/// Stamp how long a job sat on the queue before a worker picked it up:
/// the `serve.queue.seconds` histogram plus a `serve.queue.wait` flight
/// span parented under the request span.
fn record_queue_wait(ctx: &Arc<Ctx>, job: &Job) {
    let wait = job.enqueued.elapsed().as_secs_f64();
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

/// Answer one job: from the cache if another worker planned the same
/// instance while this job sat in the queue, otherwise with a fresh plan.
///
/// A panic inside the planner is caught here: the waiting client gets a
/// structured `internal` error, `serve.panics` is bumped, and the panic
/// is resumed so this worker tears down — the supervisor spawns a
/// replacement.
fn serve_job(ctx: &Arc<Ctx>, job: Job) {
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
    let (trace, parent) = (job.trace, job.span);
    let worker_t0 = Instant::now();
    let worker_ts = madpipe_obs::now_unix_us();
    let worker_span = madpipe_obs::fresh_id();
    let outcome: PlanOutcome = match ctx.cache.lookup(&canonical) {
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
                let out = madpipe_plan_with_stats(&chain, &platform, &cfg);
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
                    let _ = job.reply.try_send(Err(ServeError::internal(format!(
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
                    // No session outlives its job, and one that unwinds
                    // drops its DP buffers instead of leaving them to the
                    // thread, so nothing can reuse the state this panic
                    // left half-updated. Resuming lets the thread die and
                    // the supervisor replace it with a clean one.
                    std::panic::resume_unwind(payload);
                }
            };
            let plan_time = t0.elapsed();
            ctx.registry
                .observe("serve.plan.seconds", plan_time.as_secs_f64());
            ctx.plan_nanos
                .fetch_add(plan_time.as_nanos() as u64, Ordering::Relaxed);
            ctx.plans_timed.fetch_add(1, Ordering::Relaxed);
            ctx.registry.inc("serve.plans");
            match result {
                Ok(plan) => {
                    let rendered = Arc::new(CachedPlan::new(Arc::new(plan_to_json(&plan))));
                    let evicted = ctx
                        .cache
                        .insert_rendered(canonical.clone(), Arc::clone(&rendered));
                    ctx.registry.add("serve.cache.evictions", evicted);
                    // Durability: the journal gets the plan exactly as
                    // rendered, so replay warms byte-identical responses.
                    // A failed append degrades recovery, never this
                    // response.
                    if let Some(j) = &ctx.journal {
                        match j.append(&canonical, &rendered.json) {
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
    // The reactor may have timed the slot out and dropped the receiver;
    // the plan still went into the cache, so the retry will hit. The wake
    // gets the response on the wire without waiting out the reactor's
    // poll timeout.
    let _ = job.reply.try_send(outcome);
    ctx.waker.wake();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    #[test]
    fn admission_refuses_a_miss_that_cannot_finish_by_its_deadline() {
        let (mean, timeout) = (Duration::from_millis(250), Duration::from_secs(4));
        // One worker: 15 ahead + itself = 16 × 0.25 s = 4 s, just in time.
        assert!(admit(15, 1, mean, timeout));
        assert!(!admit(16, 1, mean, timeout));
        // Two workers halve the wait ahead.
        assert!(admit(30, 2, mean, timeout));
        assert!(!admit(31, 2, mean, timeout));
        // An empty queue always admits, even a plan slower than the
        // deadline; a daemon that has timed no plan admits at any depth.
        assert!(admit(0, 1, Duration::from_secs(5), timeout));
        assert!(admit(usize::MAX, 1, Duration::ZERO, timeout));
    }

    fn job(id: u64) -> Job {
        let line = concat!(
            r#"{"cmd":"plan","chain":{"name":"q","input_bytes":1024,"layers":["#,
            r#"{"name":"l0","forward_time":0.001,"backward_time":0.002,"weight_bytes":1000,"activation_bytes":2000}"#,
            r#"]},"platform":{"n_gpus":1,"memory_gb":1,"bandwidth_gb":12.0}}"#
        );
        let Ok(Request::Plan(req)) = parse_request(line) else {
            panic!("test line parses as a plan");
        };
        let (reply, _) = std::sync::mpsc::sync_channel(1);
        let now = Instant::now();
        Job {
            req,
            deadline: now + Duration::from_secs(30),
            reply,
            trace: id,
            span: 0,
            enqueued: now,
        }
    }

    #[test]
    fn the_job_queue_pops_in_push_order_and_drains_after_close() {
        let q = JobQueue::new(3);
        for id in 0..3 {
            assert!(q.try_push(job(id)).is_ok());
        }
        assert!(q.try_push(job(3)).is_err(), "full queue refuses");
        assert_eq!(q.pop().map(|j| j.trace), Some(0));
        assert!(q.try_push(job(4)).is_ok());
        q.close();
        assert!(q.try_push(job(5)).is_err(), "closed queue refuses");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.trace)).collect();
        assert_eq!(rest, [1, 2, 4]);
        assert!(q.pop().is_none(), "closed and empty ends the worker");
    }
}
