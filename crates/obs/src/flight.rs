//! Always-on flight recorder: a fixed-size, lock-free ring of recent
//! span/counter events, dumped post-mortem (panic, SIGTERM, chaos
//! daemon-kill) as a JSONL artifact that `madpipe trace-merge` and
//! `validate-trace` consume.
//!
//! Unlike the [`crate::span`](mod@crate::span) tracer — opt-in, unbounded, drained by the
//! process that enabled it — the flight recorder is always recording and
//! never allocates after construction. Each slot is a per-slot seqlock:
//! a writer claims a sequence number with one `fetch_add`, claims the
//! slot by CAS-ing its stamp odd (`2·seq+1`), stores the event as plain
//! atomic words, and stamps it even (`2·seq+2`). A reader copies the
//! words between two stamp loads and discards the copy if the stamps
//! disagree — so a reader can never observe a torn event. Writers never
//! wait for readers or each other: a writer that loses the claim CAS
//! (a same-slot race, only possible when another writer is a full lap
//! of the ring away) sheds its own event rather than tear the winner's.
//! Every shed event — lost claim race, or lapping an event no reader
//! consumed — increments `dropped` exactly once, so
//! `drained + dropped == recorded` holds at rest: the recorder sheds
//! history, never throughput, and never miscounts the loss.
//!
//! Events carry wall-clock timestamps ([`crate::context::now_unix_us`])
//! and the distributed trace/span/parent ids (0 = absent), so dumps
//! from different daemons merge onto one cluster timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use madpipe_json::Value;

use crate::context::hex_id;

/// What one flight event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A completed span (`ph:"X"`): `ts_us` + `dur_us`.
    Span,
    /// A point event (`ph:"i"`): cache hit/miss, panic marker.
    Instant,
    /// A counter sample (`ph:"C"`): `value`.
    Counter,
}

impl FlightKind {
    fn code(self) -> u64 {
        match self {
            FlightKind::Span => 0,
            FlightKind::Instant => 1,
            FlightKind::Counter => 2,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(FlightKind::Span),
            1 => Some(FlightKind::Instant),
            2 => Some(FlightKind::Counter),
            _ => None,
        }
    }
}

/// One event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    pub kind: FlightKind,
    pub name: &'static str,
    /// Wall-clock µs since the UNIX epoch.
    pub ts_us: f64,
    /// Span duration in µs (0 for instants/counters).
    pub dur_us: f64,
    /// Distributed trace id (0 = untraced).
    pub trace: u64,
    /// This event's span id (0 = none).
    pub span: u64,
    /// Parent span id (0 = root or untraced).
    pub parent: u64,
    /// Counter value (0 for spans/instants).
    pub value: f64,
    /// Dense thread id, shared with the span tracer.
    pub tid: u64,
    /// Ring sequence number: globally ordered, strictly increasing.
    pub seq: u64,
}

/// Payload word count per slot: name (ptr, len), ts, dur, trace, span,
/// parent, value, kind|tid.
const WORDS: usize = 9;

struct Slot {
    /// 0 = never written; `2·seq+1` = seq's writer mid-store;
    /// `2·seq+2` = seq's event complete.
    stamp: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity lock-free event ring. The process-global instance
/// behind [`record_span`] & co. is what the daemons dump; standalone
/// rings exist for tests.
pub struct FlightRing {
    slots: Vec<Slot>,
    /// Next sequence number to claim.
    next: AtomicU64,
    /// First sequence number not yet consumed by [`FlightRing::drain`].
    read_cursor: AtomicU64,
    /// Events overwritten before any reader consumed them.
    dropped: AtomicU64,
    /// Held for a whole drain: two drains that read the same cursor
    /// would both yield every event past it.
    draining: Mutex<()>,
}

impl FlightRing {
    /// A ring holding at least `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        FlightRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            next: AtomicU64::new(0),
            read_cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            draining: Mutex::new(()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events lost: overwritten before a drain consumed them, or shed
    /// in a same-slot claim race. `drained + dropped == recorded` at
    /// rest.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::SeqCst)
    }

    pub fn record_span(
        &self,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        trace: u64,
        span: u64,
        parent: u64,
    ) {
        self.record(
            FlightKind::Span,
            name,
            ts_us,
            dur_us,
            trace,
            span,
            parent,
            0.0,
        );
    }

    pub fn record_instant(&self, name: &'static str, ts_us: f64, trace: u64, parent: u64) {
        self.record(FlightKind::Instant, name, ts_us, 0.0, trace, 0, parent, 0.0);
    }

    pub fn record_counter(&self, name: &'static str, ts_us: f64, value: f64) {
        self.record(FlightKind::Counter, name, ts_us, 0.0, 0, 0, 0, value);
    }

    /// Everything is `SeqCst`: the single total order makes the seqlock
    /// argument direct (a reader whose two stamp loads agree read every
    /// payload word from that stamp's writer), and a few sequentially
    /// consistent stores per event is still far below one clock read.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: FlightKind,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        trace: u64,
        span: u64,
        parent: u64,
        value: f64,
    ) {
        let cap = self.slots.len() as u64;
        let seq = self.next.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(seq % cap) as usize];
        // Claim the slot by CAS so word stores are exclusive: a writer
        // whose claim fails is racing another writer a full lap away —
        // shed our event (counted) rather than tear theirs.
        let prev = slot.stamp.load(Ordering::SeqCst);
        if prev % 2 == 1
            || slot
                .stamp
                .compare_exchange(prev, 2 * seq + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return;
        }
        // The claim displaced whatever complete event the slot held
        // (stamp 2·s+2, i.e. displaced seq = prev/2 − 1); if no drain
        // consumed it, that history is lost — count it.
        if prev != 0 && prev / 2 > self.read_cursor.load(Ordering::SeqCst) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
        let w = &slot.words;
        w[0].store(name.as_ptr() as u64, Ordering::SeqCst);
        w[1].store(name.len() as u64, Ordering::SeqCst);
        w[2].store(ts_us.to_bits(), Ordering::SeqCst);
        w[3].store(dur_us.to_bits(), Ordering::SeqCst);
        w[4].store(trace, Ordering::SeqCst);
        w[5].store(span, Ordering::SeqCst);
        w[6].store(parent, Ordering::SeqCst);
        w[7].store(value.to_bits(), Ordering::SeqCst);
        w[8].store(
            kind.code() | (crate::span::current_tid() << 8),
            Ordering::SeqCst,
        );
        slot.stamp.store(2 * seq + 2, Ordering::SeqCst);
    }

    /// Snapshot every consistent, not-yet-consumed event, oldest first,
    /// and advance the read cursor past them. Slots mid-write are
    /// skipped (their loss, if lapped, is already in `dropped`). Drains
    /// run one at a time, so each event is yielded at most once;
    /// writers never wait for them.
    pub fn drain(&self) -> Vec<FlightEvent> {
        // The lock guards no data, so a poisoned one is still sound.
        let _one_at_a_time = self.draining.lock().unwrap_or_else(PoisonError::into_inner);
        let cursor = self.read_cursor.load(Ordering::SeqCst);
        let mut events: Vec<FlightEvent> = Vec::new();
        for slot in &self.slots {
            let s1 = slot.stamp.load(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let words: [u64; WORDS] = std::array::from_fn(|i| slot.words[i].load(Ordering::SeqCst));
            if slot.stamp.load(Ordering::SeqCst) != s1 {
                continue; // overwritten mid-copy; the lap counted it dropped
            }
            let seq = s1 / 2 - 1;
            if seq < cursor {
                continue; // already consumed by an earlier drain
            }
            let Some(kind) = FlightKind::from_code(words[8] & 0xff) else {
                continue;
            };
            // SAFETY: the matching stamp pair proves every word is from
            // one completed `record` call, whose (ptr, len) came from a
            // live `&'static str`.
            let name: &'static str = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    words[0] as *const u8,
                    words[1] as usize,
                ))
            };
            events.push(FlightEvent {
                kind,
                name,
                ts_us: f64::from_bits(words[2]),
                dur_us: f64::from_bits(words[3]),
                trace: words[4],
                span: words[5],
                parent: words[6],
                value: f64::from_bits(words[7]),
                tid: words[8] >> 8,
                seq,
            });
        }
        events.sort_by_key(|e| e.seq);
        if let Some(last) = events.last() {
            self.read_cursor.fetch_max(last.seq + 1, Ordering::SeqCst);
        }
        events
    }
}

/// The process-global ring behind the free functions below (16Ki
/// events ≈ the last few seconds of a saturated daemon).
fn ring() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| FlightRing::with_capacity(1 << 14))
}

/// Record a completed span into the global ring.
pub fn record_span(
    name: &'static str,
    ts_us: f64,
    dur_us: f64,
    trace: u64,
    span: u64,
    parent: u64,
) {
    ring().record_span(name, ts_us, dur_us, trace, span, parent);
}

/// Record a point event into the global ring.
pub fn record_instant(name: &'static str, ts_us: f64, trace: u64, parent: u64) {
    ring().record_instant(name, ts_us, trace, parent);
}

/// Record a counter sample into the global ring.
pub fn record_counter(name: &'static str, ts_us: f64, value: f64) {
    ring().record_counter(name, ts_us, value);
}

/// Events the global ring overwrote before any dump consumed them
/// (surfaced as the daemon's `serve.events.dropped` counter).
pub fn dropped() -> u64 {
    ring().dropped()
}

/// Drain the global ring (see [`FlightRing::drain`]).
pub fn drain() -> Vec<FlightEvent> {
    ring().drain()
}

/// Render events as flight-dump JSONL: one Chrome-vocabulary event
/// object per line (`ph` X/i/C), with the distributed ids as hex
/// strings under `args` — the format `trace-merge` stitches and
/// `validate-trace` accepts directly.
pub fn render_jsonl(events: &[FlightEvent]) -> String {
    let pid = u64::from(std::process::id());
    let mut out = String::new();
    for e in events {
        let mut args: Vec<(String, Value)> = Vec::new();
        if e.trace != 0 {
            args.push(("trace".into(), Value::Str(hex_id(e.trace))));
        }
        if e.span != 0 {
            args.push(("span".into(), Value::Str(hex_id(e.span))));
        }
        if e.parent != 0 {
            args.push(("parent".into(), Value::Str(hex_id(e.parent))));
        }
        if e.kind == FlightKind::Counter {
            args.push(("value".into(), Value::Float(e.value)));
        }
        args.push(("seq".into(), Value::UInt(e.seq)));
        let ph = match e.kind {
            FlightKind::Span => "X",
            FlightKind::Instant => "i",
            FlightKind::Counter => "C",
        };
        let mut fields = vec![
            ("name".to_string(), Value::Str(e.name.to_string())),
            ("ph".into(), Value::Str(ph.into())),
            ("pid".into(), Value::UInt(pid)),
            ("tid".into(), Value::UInt(e.tid)),
            ("ts".into(), Value::Float(e.ts_us)),
        ];
        if e.kind == FlightKind::Span {
            fields.push(("dur".into(), Value::Float(e.dur_us)));
        }
        fields.push(("cat".into(), Value::Str("flight".into())));
        fields.push(("args".into(), Value::Object(args)));
        out.push_str(&Value::Object(fields).to_string_compact());
        out.push('\n');
    }
    out
}

/// Drain the global ring and *append* it as JSONL to `path`; returns
/// how many events this drain added. Appending means repeated dumps
/// (a worker-panic dump followed by the exit dump) accumulate into one
/// artifact whose union is link-complete — a span recorded after an
/// earlier dump still lands in the same file as the children that
/// reference it. An empty drain still creates the (empty) file so
/// supervisors can distinguish "dumped nothing" from "never dumped".
pub fn write_dump(path: &str) -> std::io::Result<usize> {
    use std::io::Write as _;
    let events = drain();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(render_jsonl(&events).as_bytes())?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_round_trips_events_in_order() {
        let ring = FlightRing::with_capacity(64);
        ring.record_span("serve.request", 100.0, 5.0, 0xabc, 0xdef, 0x123);
        ring.record_instant("serve.cache.hit", 101.0, 0xabc, 0xdef);
        ring.record_counter("serve.queue.depth", 102.0, 7.0);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "serve.request");
        assert_eq!(events[0].kind, FlightKind::Span);
        assert_eq!(events[0].trace, 0xabc);
        assert_eq!(events[0].span, 0xdef);
        assert_eq!(events[0].parent, 0x123);
        assert_eq!(events[0].dur_us, 5.0);
        assert_eq!(events[1].kind, FlightKind::Instant);
        assert_eq!(events[2].kind, FlightKind::Counter);
        assert_eq!(events[2].value, 7.0);
        assert_eq!(ring.dropped(), 0);
        // A second drain returns nothing new.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn lapping_unread_events_counts_drops() {
        let ring = FlightRing::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.record_counter("c", i as f64, i as f64);
        }
        assert_eq!(ring.dropped(), 12, "20 written into 8 slots drops 12");
        let events = ring.drain();
        assert_eq!(events.len(), 8, "the newest capacity-many survive");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        // Drained events don't count as dropped when lapped later.
        for i in 0..8 {
            ring.record_counter("c", i as f64, 0.0);
        }
        assert_eq!(ring.dropped(), 12, "lapping consumed slots is free");
    }

    #[test]
    fn jsonl_rendering_is_chrome_compatible() {
        let ring = FlightRing::with_capacity(8);
        ring.record_span("serve.request", 1.7e15, 42.0, 1, 2, 3);
        ring.record_instant("serve.panic", 1.7e15, 0, 0);
        let text = render_jsonl(&ring.drain());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let span = Value::parse(lines[0]).unwrap();
        assert_eq!(span.field("ph").unwrap().as_str(), Ok("X"));
        assert_eq!(
            span.field("args").unwrap().field("span").unwrap().as_str(),
            Ok("0000000000000002")
        );
        assert_eq!(
            span.field("args")
                .unwrap()
                .field("parent")
                .unwrap()
                .as_str(),
            Ok("0000000000000003")
        );
        let instant = Value::parse(lines[1]).unwrap();
        assert_eq!(instant.field("ph").unwrap().as_str(), Ok("i"));
        assert!(instant.field("args").unwrap().get("trace").is_none());
    }
}
