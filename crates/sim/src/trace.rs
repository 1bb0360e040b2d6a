//! Schedule trace export: dump a periodic pattern's execution through
//! the shared [`madpipe_obs`] event model for `chrome://tracing` /
//! Perfetto inspection.
//!
//! Three track families, all on the same timeline as the fault-free
//! [`crate::replay()`] (`max_shift + 1` warm-up periods, fill-phase
//! batches skipped):
//!
//! * one trace "thread" per GPU and link, each executed operation a
//!   complete event (`ph:"X"`) labelled with unit, direction and
//!   mini-batch index;
//! * one **memory counter track** per GPU (`ph:"C"`, exact bytes),
//!   sampled by [`crate::replay_with`] at every stage-op completion —
//!   its running maximum is `gpu_peak_bytes` bit for bit;
//! * one **utilization counter track** per link: the busy fraction of
//!   each period, so communication-bound cuts are visible at a glance.

use madpipe_json::Value;
use madpipe_model::{Allocation, Chain, Platform, Resource, UnitKind, UnitSequence};
use madpipe_obs::{Trace, SCHEDULE_PID};
use madpipe_schedule::{Dir, Pattern};

use crate::replay::{replay_with, FaultSpec};

/// Build the schedule trace of `periods` steady-state periods of
/// `pattern` (plus warm-up, like [`crate::replay()`]).
pub fn schedule_trace(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    pattern: &Pattern,
    periods: usize,
) -> Trace {
    let seq = UnitSequence::from_allocation(chain, platform, alloc);
    let t_period = pattern.period;
    let warmup = pattern.max_shift() as usize + 1;
    let total = warmup + periods.max(2);

    // Stable thread ids: GPUs first, then links, ordered.
    let mut resources: Vec<Resource> = pattern.ops.iter().map(|o| o.resource).collect();
    resources.sort();
    resources.dedup();
    let tid = |r: Resource| -> u64 {
        resources
            .iter()
            .position(|&x| x == r)
            .expect("known resource") as u64
            + 1
    };

    let mut trace = Trace::new();
    trace.process_name(SCHEDULE_PID, "schedule");
    for &r in &resources {
        let name = match r {
            Resource::Gpu(g) => format!("GPU {g}"),
            Resource::Link(a, b) => format!("link {a}-{b}"),
        };
        trace.thread_name(SCHEDULE_PID, tid(r), &name);
    }

    // Operation events.
    for k in 0..total {
        for op in &pattern.ops {
            let batch = k as i64 - op.shift as i64;
            if batch < 0 {
                continue; // fill phase: the op idles in a real execution
            }
            let unit = &seq.units()[op.unit];
            let kind = match (&unit.kind, op.dir) {
                (UnitKind::Stage { stage, .. }, Dir::Forward) => format!("F s{stage}"),
                (UnitKind::Stage { stage, .. }, Dir::Backward) => format!("B s{stage}"),
                (UnitKind::Comm { .. }, Dir::Forward) => format!("send u{}", op.unit),
                (UnitKind::Comm { .. }, Dir::Backward) => format!("recv u{}", op.unit),
            };
            trace.complete(
                SCHEDULE_PID,
                tid(op.resource),
                format!("{kind} b{batch}"),
                "op",
                (k as f64 * t_period + op.start) * 1e6,
                op.duration * 1e6,
                vec![
                    ("batch".into(), Value::UInt(batch as u64)),
                    ("shift".into(), Value::UInt(op.shift)),
                ],
            );
        }
    }

    // Memory counter tracks, sampled by the replay itself so the values
    // (and their maximum) are exactly the measured ones.
    replay_with(
        chain,
        platform,
        alloc,
        pattern,
        periods,
        &FaultSpec::zero(),
        |t, g, bytes| {
            trace.counter(
                SCHEDULE_PID,
                format!("memory GPU {g}"),
                "memory",
                t * 1e6,
                "bytes",
                Value::UInt(bytes),
            );
        },
    );

    // Link utilization: busy fraction of every period, per link.
    for &r in &resources {
        let Resource::Link(a, b) = r else { continue };
        for k in 0..total {
            let busy: f64 = pattern
                .ops
                .iter()
                .filter(|op| op.resource == r && k as i64 - op.shift as i64 >= 0)
                .map(|op| op.duration)
                .sum();
            trace.counter(
                SCHEDULE_PID,
                format!("util link {a}-{b}"),
                "link",
                k as f64 * t_period * 1e6,
                "busy_frac",
                Value::Float(busy / t_period),
            );
        }
    }

    trace
}

/// [`schedule_trace`] rendered as Chrome-trace JSON text.
pub fn chrome_trace(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    pattern: &Pattern,
    periods: usize,
) -> String {
    schedule_trace(chain, platform, alloc, pattern, periods).render_chrome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use madpipe_model::{Layer, Partition};
    use madpipe_obs::validate::validate_chrome;
    use madpipe_schedule::{best_contiguous_period, one_f1b_star};

    fn setup() -> (Chain, Platform, Allocation) {
        let chain = Chain::new(
            "t",
            1000,
            vec![
                Layer::new("a", 1.0, 2.0, 64, 1000),
                Layer::new("b", 2.0, 1.0, 64, 500),
                Layer::new("c", 1.5, 1.5, 64, 250),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 20, 1000.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        (chain, platform, alloc)
    }

    #[test]
    fn emits_valid_json_with_gpu_link_and_counter_tracks() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let json = chrome_trace(&chain, &platform, &alloc, &best.pattern, 3);
        let summary = validate_chrome(&json).unwrap();
        assert!(summary.spans > 0);
        assert!(json.contains("GPU 0"));
        assert!(json.contains("link 0-1"));
        assert!(json.contains("\"F s0 b0\""));
        // One memory track per GPU, one utilization track per link.
        for g in 0..3 {
            assert!(summary.counter_tracks.contains(&format!("memory GPU {g}")));
        }
        assert!(summary.counter_tracks.contains("util link 0-1"));
        assert!(summary.counter_tracks.contains("util link 1-2"));
    }

    #[test]
    fn round_trip_memory_peaks_match_replay_bit_for_bit() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let t = seq.max_unit_load() * 1.1;
        let pattern = one_f1b_star(&seq, t);
        let periods = 50;
        let json = chrome_trace(&chain, &platform, &alloc, &pattern, periods);
        let summary = validate_chrome(&json).unwrap();
        let report = replay(
            &chain,
            &platform,
            &alloc,
            &pattern,
            periods,
            &FaultSpec::zero(),
        );
        for (g, &peak) in report.gpu_peak_bytes.iter().enumerate() {
            assert_eq!(
                summary.counter_peaks.get(&format!("memory GPU {g}")),
                Some(&peak),
                "GPU {g} counter-track peak must equal the replayed peak exactly"
            );
        }
        // Every event fits in the replayed horizon.
        let total = pattern.max_shift() as usize + 1 + periods;
        let horizon_us = (total as f64 + 2.0) * pattern.period * 1e6;
        assert!(summary.max_ts_us <= horizon_us);
    }

    #[test]
    fn fill_phase_batches_are_skipped() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let mut pattern = one_f1b_star(&seq, seq.total_load());
        // Make the backward of unit 0 carry shift 2: its first two
        // firings process negative batches and must not appear.
        for op in &mut pattern.ops {
            if op.unit == 0 && op.dir == Dir::Backward {
                op.shift = 2;
            }
        }
        let json = chrome_trace(&chain, &platform, &alloc, &pattern, 2);
        assert!(!json.contains("b-1"));
        assert!(!json.contains("b-2"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let pattern = one_f1b_star(&seq, seq.total_load());
        let json = chrome_trace(&chain, &platform, &alloc, &pattern, 2);
        let parsed = Value::parse(&json).unwrap();
        let durs: Vec<f64> = parsed
            .field("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str().ok()) == Some("X"))
            .map(|e| e.field("dur").unwrap().as_f64().unwrap())
            .collect();
        // Layer "a" forward takes 1 second → 1e6 µs.
        assert!(durs.iter().any(|&d| (d - 1e6).abs() < 1.0));
    }
}
