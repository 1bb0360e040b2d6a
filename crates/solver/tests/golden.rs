//! Golden digest of `best_period` on seeded memory-tight instances.
//!
//! Phase 2's placer is a budgeted depth-first search, so its answer
//! depends on exactly which nodes it visits and what each leaf check
//! returns. Making a node cheaper must change neither. This test pins an
//! FNV-1a digest of everything `best_period` returns (period bits, every
//! op's unit, direction, start bits and shift, and the checker's report)
//! on instances whose memory sits just above the sequential 1F1B* peak:
//! there the search exhausts its node budget, and memory compaction
//! turns failing leaves into valid patterns. The digest changes only
//! when phase 2's results change on purpose.
//!
//! `exact_optimum`, the oracle of `certify`'s exact cross-check and of
//! the test suites, is pinned the same way on tiny instances: period
//! bits and allocation, so a faster exhaustive search must still find
//! the same optimum.

use madpipe_model::{Allocation, Chain, Layer, Platform, Stage, UnitSequence};
use madpipe_schedule::{check_pattern, one_f1b_star, Dir, ScheduleError};
use madpipe_solver::{best_period, exact_optimum, PlaceConfig, PlaceStats, SolvedSchedule};

/// SplitMix64: a tiny, fixed generator so the instances never depend on
/// a library's sampling.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform float in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A 3–7-layer chain on 2–4 GPUs, stages mapped to GPUs at random (every
/// GPU used), with each GPU's memory set to the relaxed 1F1B* peak
/// times `1 + k/8`, `k ∈ 0..6`.
fn instance(seed: u64) -> (Chain, Platform, Allocation) {
    let mut rng = SplitMix(seed);
    let n_layers = 3 + rng.below(5) as usize;
    let n_gpus = (2 + rng.below(3) as usize).min(n_layers);
    let layers = (0..n_layers)
        .map(|i| {
            let f = rng.uniform(0.1, 5.0);
            let b = rng.uniform(0.1, 5.0);
            let w = rng.below(1_000);
            let a = 1 + rng.below(20_000);
            Layer::new(format!("l{i}"), f, b, w, a)
        })
        .collect();
    let chain = Chain::new("golden", 2_000, layers).expect("well-formed");

    let n_stages = n_gpus + rng.below((n_layers - n_gpus + 1) as u64) as usize;
    let mut cuts: Vec<usize> = (1..n_layers).collect();
    for i in (1..cuts.len()).rev() {
        cuts.swap(i, rng.below(i as u64 + 1) as usize);
    }
    cuts.truncate(n_stages - 1);
    cuts.sort_unstable();
    let bounds: Vec<usize> = std::iter::once(0)
        .chain(cuts)
        .chain(std::iter::once(n_layers))
        .collect();
    let stages = bounds
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let gpu = if i < n_gpus {
                i
            } else {
                rng.below(n_gpus as u64) as usize
            };
            Stage::new(w[0]..w[1], gpu)
        })
        .collect();
    let alloc = Allocation::new(stages, n_layers, n_gpus).expect("valid allocation");

    let roomy = Platform::new(n_gpus, u64::MAX / 4, 500.0).unwrap();
    let seq = UnitSequence::from_allocation(&chain, &roomy, &alloc);
    let relaxed = one_f1b_star(&seq, seq.total_load());
    let peak = check_pattern(&chain, &roomy, &alloc, &seq, &relaxed)
        .expect("the sequential pattern is valid")
        .gpu_peak_bytes
        .into_iter()
        .max()
        .expect("at least one GPU");
    let k = rng.below(6);
    let platform = Platform::new(n_gpus, peak + peak * k / 8, 500.0).unwrap();
    (chain, platform, alloc)
}

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn feed(h: &mut Fnv, result: &Result<SolvedSchedule, ScheduleError>) {
    match result {
        Ok(solved) => {
            h.u64(1);
            h.u64(solved.period.to_bits());
            h.u64(solved.pattern.ops.len() as u64);
            for op in &solved.pattern.ops {
                h.u64(op.unit as u64);
                h.u64(matches!(op.dir, Dir::Backward) as u64);
                h.u64(op.start.to_bits());
                h.u64(op.shift);
            }
            let r = &solved.report;
            h.u64(r.period.to_bits());
            for v in [&r.gpu_peak_bytes, &r.gpu_static_bytes, &r.unit_live_batches] {
                h.u64(v.len() as u64);
                v.iter().for_each(|&x| h.u64(x));
            }
            h.u64(r.max_shift);
        }
        Err(e) => {
            h.u64(2);
            h.bytes(format!("{e:?}").as_bytes());
        }
    }
}

/// Seeds on which compaction's success path decides the answer: with
/// compaction off, `best_period` ships a longer period.
const COMPACTION_DECIDES: [u64; 6] = [22, 99, 130, 147, 242, 285];

/// The pinned instances: the first 48 seeds plus the later ones above.
fn seeds() -> impl Iterator<Item = u64> {
    (0..48).chain(COMPACTION_DECIDES.into_iter().filter(|&s| s >= 48))
}

const GOLDEN: u64 = 0xd46b_9e15_6fa4_b1d1;

#[test]
fn best_period_digest_is_pinned() {
    let cfg = PlaceConfig::default();
    let mut h = Fnv::new();
    for seed in seeds() {
        let (chain, platform, alloc) = instance(seed);
        let solved = best_period(
            &chain,
            &platform,
            &alloc,
            &cfg,
            None,
            &mut PlaceStats::default(),
        )
        .map(|s| s.expect("no cutoff"));
        feed(&mut h, &solved);
    }
    assert_eq!(h.0, GOLDEN, "digest {:#018x}", h.0);
}

/// The digest of every pinned seed's `PlaceStats` from `best_period`
/// (calls, exhausted and floored calls, nodes, leaves), recorded before
/// leaves had a memory floor: a change that makes a node or a leaf
/// cheaper must visit the same nodes and leaves.
const COUNTERS: u64 = 0x4871_d0b4_0749_b414;

#[test]
fn placement_counters_are_pinned() {
    let cfg = PlaceConfig::default();
    let mut h = Fnv::new();
    for seed in seeds() {
        let (chain, platform, alloc) = instance(seed);
        let mut stats = PlaceStats::default();
        let _ = best_period(&chain, &platform, &alloc, &cfg, None, &mut stats);
        for count in [
            stats.calls,
            stats.exhausted,
            stats.floored,
            stats.nodes,
            stats.leaves,
        ] {
            h.u64(count);
        }
    }
    assert_eq!(h.0, COUNTERS, "digest {:#018x}", h.0);
}

/// The digest of every pinned seed's result and `PlaceStats` (calls,
/// exhausted and floored calls, nodes, leaves) from `best_period` under
/// node budgets small enough to run out between the sibling leaves of
/// one node, recorded before a node counted its floored leaves in one
/// step: the count must stop exactly where the search would.
const SMALL_BUDGETS: u64 = 0x5c52_8f69_e760_6c7d;

#[test]
fn small_budget_counters_are_pinned() {
    let mut h = Fnv::new();
    for node_budget in [5, 17, 100, 1000] {
        let cfg = PlaceConfig {
            node_budget,
            ..PlaceConfig::default()
        };
        for seed in seeds() {
            let (chain, platform, alloc) = instance(seed);
            let mut stats = PlaceStats::default();
            let solved = best_period(&chain, &platform, &alloc, &cfg, None, &mut stats)
                .map(|s| s.expect("no cutoff"));
            feed(&mut h, &solved);
            for count in [
                stats.calls,
                stats.exhausted,
                stats.floored,
                stats.nodes,
                stats.leaves,
            ] {
                h.u64(count);
            }
        }
    }
    assert_eq!(h.0, SMALL_BUDGETS, "digest {:#018x}", h.0);
}

#[test]
fn compaction_decides_the_pinned_rescues() {
    let on = PlaceConfig::default();
    let off = PlaceConfig {
        compaction: false,
        ..on
    };
    for seed in COMPACTION_DECIDES {
        let (chain, platform, alloc) = instance(seed);
        let mut stats = PlaceStats::default();
        let mut solve = |cfg| {
            best_period(&chain, &platform, &alloc, cfg, None, &mut stats)
                .expect("solves")
                .expect("no cutoff")
        };
        let with = solve(&on);
        let without = solve(&off);
        assert!(
            with.period < without.period,
            "seed {seed}: {} with compaction, {} without",
            with.period,
            without.period
        );
    }
}

/// A 3–5-layer chain on 2–3 GPUs, each GPU's memory the sequential
/// 1F1B* peak of the whole chain on one GPU times `1 + k/8`, `k ∈ 0..6`.
fn tiny_instance(seed: u64) -> (Chain, Platform) {
    let mut rng = SplitMix(seed);
    let n_layers = 3 + rng.below(3) as usize;
    let n_gpus = 2 + rng.below(2) as usize;
    let layers = (0..n_layers)
        .map(|i| {
            let f = rng.uniform(0.1, 5.0);
            let b = rng.uniform(0.1, 5.0);
            let w = rng.below(1_000);
            let a = 1 + rng.below(20_000);
            Layer::new(format!("l{i}"), f, b, w, a)
        })
        .collect();
    let chain = Chain::new("exact", 2_000, layers).expect("well-formed");
    let whole = Allocation::new(vec![Stage::new(0..n_layers, 0)], n_layers, n_gpus).unwrap();
    let roomy = Platform::new(n_gpus, u64::MAX / 4, 500.0).unwrap();
    let seq = UnitSequence::from_allocation(&chain, &roomy, &whole);
    let relaxed = one_f1b_star(&seq, seq.total_load());
    let peak = check_pattern(&chain, &roomy, &whole, &seq, &relaxed)
        .expect("the sequential pattern is valid")
        .gpu_peak_bytes[0];
    let k = rng.below(6);
    (
        chain,
        Platform::new(n_gpus, peak + peak * k / 8, 500.0).unwrap(),
    )
}

/// `exact_optimum` on the seeds in 0..24 whose exhaustive search takes
/// at most a few seconds unoptimized: seed, period bits, and the
/// allocation as `layers@gpu` stages.
const EXACT: [(u64, u64, &str); 16] = [
    (0, 4622991524980270298, "0..2@0 2..4@1"),
    (2, 4627454829391191080, "0..4@0"),
    (3, 4625133844476622274, "0..2@0 2..3@0"),
    (5, 4627763376525828374, "0..1@0 1..2@0 2..5@0"),
    (6, 4624351162212667717, "0..5@0"),
    (7, 4625473073242085756, "0..3@0"),
    (8, 4628050264751787019, "0..1@0 1..4@0"),
    (11, 4623261332418212647, "0..3@0"),
    (12, 4625884400696615188, "0..3@0"),
    (13, 4627285531595553201, "0..4@0"),
    (15, 4625081563206700788, "0..2@0 2..3@0 3..5@1"),
    (17, 4617763725066720584, "0..1@0 1..3@1"),
    (18, 4625523569101835976, "0..1@0 1..2@0 2..4@1"),
    (19, 4625445590815989142, "0..3@0"),
    (20, 4623839601681041002, "0..3@0"),
    (21, 4626729012739701148, "0..3@0 3..4@0"),
];

#[test]
fn exact_optimum_is_pinned() {
    for (seed, bits, stages) in EXACT {
        let (chain, platform) = tiny_instance(seed);
        let opt = exact_optimum(&chain, &platform).expect("the sequential schedule fits");
        let got: Vec<String> = opt
            .allocation
            .stages()
            .iter()
            .map(|s| format!("{}..{}@{}", s.layers.start, s.layers.end, s.gpu))
            .collect();
        assert_eq!(
            (opt.schedule.period.to_bits(), got.join(" ").as_str()),
            (bits, stages),
            "seed {seed}"
        );
    }
}
