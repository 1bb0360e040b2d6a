//! MadPipe-DP (§4.2.2): the dynamic program that builds a non-contiguous
//! allocation with one special processor.
//!
//! `T(l, p, t_P, m_P, V)` is the smallest period of an allocation of the
//! first `l` layers on `p` *normal* processors (one stage each) and the
//! single *special* processor (any number of stages), where
//!
//! * `V` lower-bounds the delay between the end of `F_l` and the start of
//!   the matching `B_l` (propagated with the `⊕` operator as stages and
//!   communications are peeled off the back of the chain),
//! * the special processor has already been assigned stages amounting to
//!   compute load `t_P` and (under-estimated) memory `m_P`,
//! * a stage `[k, l)` placed on a *normal* processor must satisfy the
//!   exact 1F1B* memory bound `M(k, l, g)` with
//!   `g = ⌈(V + U(k,l)) / T̂⌉` live activations,
//! * the same stage placed on the *special* processor contributes
//!   `M(k, l, g−1)` (at least `g−1` copies are pinned at all times,
//!   Figure 5) — an intentional under-estimate corrected in phase 2.
//!
//! The three continuous coordinates are discretized (rounded up) on the
//! grids of [`crate::discrete`]; the recursion is memoized on grid
//! indices and the chosen split points are kept for reconstruction.
//!
//! # Dense memo
//!
//! The state space is a small rectangular grid, so the memo is a **dense
//! array indexed arithmetically** from `(l, p, t_idx, m_idx, v_idx)` —
//! no hashing on the hot path. The layout is cache-blocked along the
//! innermost recurrence axis: one contiguous `v`-row per reachable
//! `(l, p, t_idx, m_idx)` coordinate, allocated lazily on first touch
//! (the reachable set is sparse — a fully dense box would be hundreds of
//! megabytes per solve, while the rows actually touched are a few).
//! A *normal*-processor transition keeps `(t_idx, m_idx)` fixed, so the
//! whole `k` scan of a state reads rows of the same `(t, m)` column —
//! the blocking order that makes the scan cache-friendly. After a solve
//! the memo is compacted into a [`Slab`] (packed key + value + choice
//! per reachable state, ~20 B/state like the old hash shards) which the
//! session retains for replan seeding.
//!
//! # Branch-and-bound pruning
//!
//! Before recursing on a candidate stage, the solver computes an
//! optimistic period for the whole subtree from the 1F1B* load lower
//! bound — `max(remaining compute / remaining processors, largest
//! remaining layer, accumulated special load)`, see [`Dp::subtree_bound`]
//! — and skips the recursion when even that optimum cannot beat the best
//! candidate already found at this state. The bound is a true lower
//! bound on the subproblem value and the incumbent update uses a strict
//! `<`, so pruning never changes the chosen value or allocation: results
//! stay f64-bit-identical to the unpruned solver (only `memo`/state
//! counts of *untouched* subtrees differ — and those states are simply
//! never created).
//!
//! # Cross-probe reuse
//!
//! Algorithm 1 and the planner probe the DP at many target periods `T̂`
//! over the *same* chain and platform. [`ProbeSession`] owns everything
//! those probes can share:
//!
//! * the `t_P`/`m_P` axes, the per-cut communication times and the
//!   per-`(k, l)` stage cost/memory tables ([`StageTables`]), which do
//!   not depend on `T̂` at all;
//! * an **outcome cache** keyed by `(T̂, use_special)` — the bisection,
//!   the refinement grid and the contiguous fallback regularly revisit
//!   the same target, and a revisit costs one hash lookup instead of a
//!   full solve;
//! * per-probe **dense slabs** — each solve's compacted memo is retained
//!   whole, which keeps every per-`T̂` state addressable for replan
//!   seeding and makes the outcome (incl. the reconstructed allocation)
//!   of a revisited probe free;
//! * the **monotone infeasibility bound**: `MadPipe-DP(T̂)` is
//!   non-increasing in `T̂` (the same fact Algorithm 1's bisection relies
//!   on — see `crate::algorithm1`), so a target proven infeasible makes
//!   every smaller target infeasible without solving. The bound is kept
//!   per `use_special` flag because the two DP variants explore
//!   different feasible sets.
//!
//! # Incremental replans
//!
//! [`ProbeSession::derive`] builds a session for the *same chain* on a
//! platform that survives a fault. When the fault only shrinks the
//! platform (fewer GPUs, same memory and bandwidth), every DP state of
//! the healthy platform with `p` below the survivor's processor count is
//! *also* a state of the degraded DP with the identical value — the
//! recursion never reads the root processor count, only the per-state
//! `p` — so the parent's slabs seed the derived session's solves: a
//! degraded probe at a revisited `T̂` starts with the surviving prefix of
//! the `p` axis already filled in. Faults that change memory or
//! bandwidth reshape the axes/cut times and get a fresh session.
//!
//! [`ProbeSession::probe_many`] evaluates independent targets on a
//! scoped thread pool; results are merged in submission order, so the
//! session state (and therefore every downstream decision) is identical
//! whatever the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use madpipe_model::util::ceil_div;
use madpipe_model::{
    ActivationPolicy, Allocation, Chain, Layer, Platform, PolicySpec, RecomputeMode, Stage,
    StagePolicy,
};
use madpipe_obs::Registry;

use crate::discrete::{Axis, Discretization};
use crate::fxhash::FxHashMap;
use crate::oplus::oplus;
use crate::stats::{counters, DpStats, ProbeRecord, ProbeSource};

/// Result of one MadPipe-DP run at a fixed target period `T̂`.
#[derive(Debug, Clone)]
pub struct DpOutcome {
    /// The period of the produced allocation (`∞` when the memory
    /// constraints cannot be met at this `T̂`).
    pub period: f64,
    /// The reconstructed allocation: the special processor is GPU 0,
    /// normal stages occupy GPUs `1..P`. Each stage carries the policy
    /// the DP chose for it (all-default under the default
    /// [`PolicySpec`]). `None` iff `period` is infinite.
    pub allocation: Option<Allocation>,
    /// Number of distinct memoized states (including states seeded from
    /// a parent session's slab on derived sessions).
    pub states: usize,
}

impl DpOutcome {
    fn infeasible() -> Self {
        Self {
            period: f64::INFINITY,
            allocation: None,
            states: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    /// No feasible decomposition from this state.
    Infeasible,
    /// `l == 0`: nothing left to place.
    Done,
    /// Stage `[k, l)` on a normal processor.
    Normal { k: u16, recompute: bool },
    /// Stage `[k, l)` on the special processor.
    Special { k: u16, recompute: bool },
}

/// [`Choice`] packed into 32 bits: tag in bits 16–17, the recompute flag
/// in bit 18, split point `k` in the low 16 (the memo stores value and
/// choice side by side per state). A clear recompute bit reproduces the
/// pre-policy encoding verbatim.
#[inline]
fn encode_choice(c: Choice) -> u32 {
    let pack = |tag: u32, k: u16, rec: bool| tag << 16 | (rec as u32) << 18 | k as u32;
    match c {
        Choice::Infeasible => 0,
        Choice::Done => 1 << 16,
        Choice::Normal { k, recompute } => pack(2, k, recompute),
        Choice::Special { k, recompute } => pack(3, k, recompute),
    }
}

#[inline]
fn decode_choice(bits: u32) -> Choice {
    let k = (bits & 0xffff) as u16;
    let recompute = bits & (1 << 18) != 0;
    match (bits >> 16) & 0x3 {
        0 => Choice::Infeasible,
        1 => Choice::Done,
        2 => Choice::Normal { k, recompute },
        _ => Choice::Special { k, recompute },
    }
}

/// Packed state key: `l` (16b) | `p` (8b) | `it` (16b) | `im` (8b) | `iv` (16b).
///
/// The planner's `validate` keeps every coordinate inside these widths,
/// which is also the proof that the coordinates fit dense indexing.
/// Keys only appear in compacted [`Slab`]s now — the live memo indexes
/// arithmetically — but they keep slab entries self-describing.
type Key = u64;

#[inline]
fn pack(l: usize, p: usize, it: u16, im: u16, iv: u16) -> Key {
    debug_assert!(l < 1 << 16, "chain length overflows the 16-bit key field");
    debug_assert!(p < 256, "processor count overflows the 8-bit key field");
    debug_assert!(im < 256, "memory index overflows the 8-bit key field");
    (l as u64) << 48 | (p as u64) << 40 | (it as u64) << 24 | (im as u64) << 16 | iv as u64
}

#[inline]
fn unpack(key: Key) -> (usize, usize, u16, u16, u16) {
    (
        (key >> 48) as usize,
        ((key >> 40) & 0xff) as usize,
        ((key >> 24) & 0xffff) as u16,
        ((key >> 16) & 0xff) as u16,
        (key & 0xffff) as u16,
    )
}

/// One memo slot: the state's value plus its encoded [`Choice`]. `value`
/// is `NaN` while unset — real DP values are finite or `+∞`, never `NaN`
/// (the planner rejects NaN inputs up front), so the sentinel is
/// unambiguous and presence needs no separate bitmap.
#[derive(Clone, Copy)]
struct MemoEntry {
    value: f64,
    choice: u32,
}

const UNSET: MemoEntry = MemoEntry {
    value: f64::NAN,
    choice: 0,
};

/// The per-solve dense memo — see the module docs for the layout.
struct DenseMemo {
    l_len: usize,
    p_len: usize,
    t_len: usize,
    m_len: usize,
    v_len: usize,
    /// `rows[((l·p_len + p)·t_len + it)·m_len + im]` is the arena row id
    /// (+1; `0` = not yet touched) of that coordinate's `v`-row.
    rows: Vec<u32>,
    /// Bump arena backing every `v`-row: row id `r` occupies
    /// `arena[r·v_len .. (r+1)·v_len]`. One contiguous allocation in
    /// touch order instead of a boxed slice per row — the row table is
    /// half the size (u32 vs pointer) and successive rows share cache
    /// lines, which is where the solve loop spends its time.
    arena: Vec<MemoEntry>,
    /// Indices of rows that have been allocated, in touch order —
    /// `compact` sorts and walks these instead of scanning the whole
    /// (mostly empty, on memory-tight instances) row table.
    touched: Vec<u32>,
    /// Number of set entries across all rows.
    filled: usize,
}

impl DenseMemo {
    fn new(l_len: usize, p_len: usize, t_len: usize, m_len: usize, v_len: usize) -> Self {
        Self {
            l_len,
            p_len,
            t_len,
            m_len,
            v_len,
            rows: vec![0; l_len * p_len * t_len * m_len],
            arena: Vec::new(),
            touched: Vec::new(),
            filled: 0,
        }
    }

    /// The `v`-row at flat index `idx`, allocated from the arena (and
    /// recorded in the touched list) on first access.
    #[inline]
    fn row_mut(&mut self, idx: usize) -> &mut [MemoEntry] {
        let mut r = self.rows[idx];
        if r == 0 {
            self.arena.resize(self.arena.len() + self.v_len, UNSET);
            self.touched.push(idx as u32);
            r = (self.arena.len() / self.v_len) as u32;
            self.rows[idx] = r;
        }
        let start = (r as usize - 1) * self.v_len;
        &mut self.arena[start..start + self.v_len]
    }

    #[inline]
    fn row_index(&self, l: usize, p: usize, it: u16, im: u16) -> usize {
        debug_assert!(
            l < self.l_len
                && p < self.p_len
                && (it as usize) < self.t_len
                && (im as usize) < self.m_len
        );
        ((l * self.p_len + p) * self.t_len + it as usize) * self.m_len + im as usize
    }

    #[inline]
    fn get(&self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> Option<(f64, Choice)> {
        let r = self.rows[self.row_index(l, p, it, im)];
        if r == 0 {
            return None;
        }
        let e = self.arena[(r as usize - 1) * self.v_len + iv as usize];
        if e.value.is_nan() {
            None
        } else {
            Some((e.value, decode_choice(e.choice)))
        }
    }

    /// Value-only probe for the solve loop's child lookups, which never
    /// need the choice (and so skip decoding it).
    #[inline]
    fn get_value(&self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> Option<f64> {
        let r = self.rows[self.row_index(l, p, it, im)];
        if r == 0 {
            return None;
        }
        let v = self.arena[(r as usize - 1) * self.v_len + iv as usize].value;
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // the five grid coordinates plus the entry
    fn insert(
        &mut self,
        l: usize,
        p: usize,
        it: u16,
        im: u16,
        iv: u16,
        value: f64,
        choice: Choice,
    ) {
        debug_assert!(!value.is_nan(), "NaN is the unset sentinel");
        let idx = self.row_index(l, p, it, im);
        let was_unset = {
            let slot = &mut self.row_mut(idx)[iv as usize];
            let was_unset = slot.value.is_nan();
            *slot = MemoEntry {
                value,
                choice: encode_choice(choice),
            };
            was_unset
        };
        if was_unset {
            self.filled += 1;
        }
    }

    fn len(&self) -> usize {
        self.filled
    }

    /// Pre-fill from a parent session's slab (replan seeding): every
    /// entry whose `p` coordinate survives on the shrunken platform is
    /// valid verbatim — the DP value of a state does not depend on the
    /// root processor count. Returns how many states were seeded.
    fn seed_from(&mut self, slab: &Slab) -> usize {
        debug_assert_eq!(
            (self.t_len, self.m_len, self.v_len),
            (slab.t_len, slab.m_len, slab.v_len),
            "seeding requires identical discretization axes"
        );
        let mut seeded = 0;
        for e in &slab.entries {
            let (l, p, it, im, iv) = unpack(e.key);
            if p >= self.p_len {
                continue;
            }
            let idx = self.row_index(l, p, it, im);
            {
                let slot = &mut self.row_mut(idx)[iv as usize];
                debug_assert!(slot.value.is_nan(), "slab entries are distinct states");
                *slot = MemoEntry {
                    value: e.value,
                    choice: e.choice,
                };
            }
            self.filled += 1;
            seeded += 1;
        }
        seeded
    }

    /// Compact to the retained slab form (row-major order — deterministic).
    fn compact(&self) -> Slab {
        let mut entries = Vec::with_capacity(self.filled);
        let mut touched = self.touched.clone();
        touched.sort_unstable();
        for ri in touched {
            let ri = ri as usize;
            let r = self.rows[ri] as usize;
            debug_assert!(r > 0, "touched rows are allocated");
            let row = &self.arena[(r - 1) * self.v_len..r * self.v_len];
            let im = (ri % self.m_len) as u16;
            let it = ((ri / self.m_len) % self.t_len) as u16;
            let lp = ri / (self.m_len * self.t_len);
            let (l, p) = (lp / self.p_len, lp % self.p_len);
            for (iv, e) in row.iter().enumerate() {
                if !e.value.is_nan() {
                    entries.push(SlabEntry {
                        key: pack(l, p, it, im, iv as u16),
                        value: e.value,
                        choice: e.choice,
                    });
                }
            }
        }
        Slab {
            t_len: self.t_len,
            m_len: self.m_len,
            v_len: self.v_len,
            entries,
        }
    }
}

/// One compacted state of a retained [`Slab`].
struct SlabEntry {
    key: Key,
    value: f64,
    choice: u32,
}

/// The compacted memo of one solve, retained by the session: compact
/// enough to keep for every probe (~20 B per reachable state, like the
/// old hash shards) while still seeding a derived session's dense memo.
struct Slab {
    t_len: usize,
    m_len: usize,
    v_len: usize,
    entries: Vec<SlabEntry>,
}

impl Slab {
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-`(k, l)` stage costs hoisted out of the DP inner loop, shared by
/// every probe of a session (they do not depend on `T̂`). With these, one
/// candidate evaluation is pure flat-array arithmetic over the `k` axis —
/// no prefix-sum recomputation, no per-candidate calls back into the
/// chain — which is what lets the stage scan vectorize. All values are
/// produced by the exact same expressions the chain accessors use, so
/// results are bit-identical to querying the chain directly.
struct StageTables {
    /// Row stride: tables are indexed `l * stride + k` for `k < l`.
    stride: usize,
    /// `U(k, l)` — total compute time of the stage.
    u: Vec<f64>,
    /// `F(k, l)` — forward time of the stage, the extra backward-path
    /// cost when the stage recomputes.
    fwd: Vec<f64>,
    /// `Σ W_i` over `[k, l)` — *single* weight copy; the DP multiplies
    /// by the session's weight-policy factor (3 or 2), so the default
    /// reproduces the old tripled table exactly.
    weights: Vec<u64>,
    /// `Σ a_{i-1}` over `[k, l)` (per-copy stored activations).
    stored: Vec<u64>,
    /// `a_in(k)` — the boundary input activation of a stage starting at
    /// `k` (the per-batch pin under recompute), indexed by `k` alone.
    a_in: Vec<u64>,
    /// Boundary communication buffers of stage `[k, l)` (counted only at
    /// real cuts, as in [`Chain::stage_memory`]).
    buffers: Vec<u64>,
    /// `max_{i < k} u_F(i) + u_B(i)` — largest single layer among the
    /// *remaining* (not yet placed) layers; 0 at `k = 0`.
    max_layer_prefix: Vec<f64>,
    /// `U(0, k)` — total compute of the remaining layers.
    u_prefix: Vec<f64>,
}

impl StageTables {
    fn new(chain: &Chain) -> Self {
        let n = chain.len();
        let stride = n + 1;
        let mut t = Self {
            stride,
            u: vec![0.0; stride * stride],
            fwd: vec![0.0; stride * stride],
            weights: vec![0; stride * stride],
            stored: vec![0; stride * stride],
            a_in: (0..stride).map(|k| chain.activation_in(k)).collect(),
            buffers: vec![0; stride * stride],
            max_layer_prefix: vec![0.0; stride],
            u_prefix: vec![0.0; stride],
        };
        for l in 1..=n {
            for k in 0..l {
                let i = l * stride + k;
                t.u[i] = chain.compute_time(k..l);
                t.fwd[i] = chain.forward_time(k..l);
                t.weights[i] = chain.weight_bytes(k..l);
                t.stored[i] = chain.stored_activation_bytes(k..l);
                let mut buf = 0;
                if k > 0 {
                    buf += 2 * chain.activation_in(k);
                }
                if l < n {
                    buf += 2 * chain.activation_out(l - 1);
                }
                t.buffers[i] = buf;
            }
        }
        for k in 0..n {
            t.max_layer_prefix[k + 1] =
                t.max_layer_prefix[k].max(Layer::compute_time(chain.layer(k)));
            t.u_prefix[k + 1] = chain.compute_time(0..k + 1);
        }
        t
    }
}

/// One retained probe: the compacted memo of a solve plus its outcome,
/// kept addressable so revisits and replan seeding are free.
struct Shard {
    t_hat: f64,
    use_special: bool,
    slab: Arc<Slab>,
    memo_hits: u64,
    load_prunes: u64,
    memory_prunes: u64,
    branch_prunes: u64,
    states_seeded: u64,
    outcome: DpOutcome,
}

/// How one target of a [`ProbeSession::probe_many`] batch was answered.
enum Resolution {
    /// Served from a shard absorbed before this batch.
    Cached(usize),
    /// Killed by the monotone infeasibility bound.
    Pruned,
    /// Solved in this batch (index into the batch's pending list).
    Solved(usize),
    /// Duplicate of a target solved earlier in this batch.
    Duplicate(usize),
}

/// Shared DP state for a whole planning run — see the module docs for
/// what is reused across probes and why it is sound.
pub struct ProbeSession<'a> {
    chain: &'a Chain,
    platform: &'a Platform,
    disc: Discretization,
    /// The solve-level policy configuration: weight versioning and the
    /// recompute stance every probe of this session solves under. Part
    /// of the session identity — the axes and stage tables depend on it.
    policy: PolicySpec,
    t_axis: Axis,
    m_axis: Axis,
    v_max: f64,
    /// `cut_times[k]` = round-trip communication time of the cut before
    /// layer `k` (`0` at the chain ends), shared by every probe.
    cut_times: Vec<f64>,
    /// Hoisted per-`(k, l)` stage costs, shared by every probe.
    tables: StageTables,
    shards: Vec<Shard>,
    /// `(T̂ bits, use_special)` → shard index.
    index: FxHashMap<(u64, bool), usize>,
    /// Slabs inherited from a parent session ([`ProbeSession::derive`]),
    /// keyed like the shard index; consulted once per solve.
    seeds: FxHashMap<(u64, bool), Arc<Slab>>,
    /// Largest target proven infeasible, per `use_special` flag.
    max_infeasible: [Option<f64>; 2],
    /// The session's metrics: every counter behind [`DpStats`] plus the
    /// per-solve timing/state histograms. Bumped only on the absorbing
    /// (main) thread, so values are bit-identical across thread counts.
    registry: Registry,
    records: Vec<ProbeRecord>,
    /// Largest memo-arena length seen so far (entries), used to
    /// pre-reserve the next solve's arena instead of growing it through
    /// doubling reallocations. Purely an allocation hint — never affects
    /// any computed value. Atomic because solves may run on worker
    /// threads behind `&self`.
    arena_hint: std::sync::atomic::AtomicUsize,
}

impl<'a> ProbeSession<'a> {
    /// Build a session for `chain` on `platform`; every probe of one
    /// planning run should go through the same session. Solves under the
    /// default (paper-exact) policy — see [`ProbeSession::new_with_policy`].
    pub fn new(chain: &'a Chain, platform: &'a Platform, disc: &Discretization) -> Self {
        Self::new_with_policy(chain, platform, disc, PolicySpec::default())
    }

    /// [`ProbeSession::new`] under an explicit [`PolicySpec`]. When the
    /// recompute mode is not `Never`, a stage's effective load can grow
    /// by its forward time, so the `t_P` axis and the delay cap are
    /// widened by the total forward time; under the default spec both
    /// stay exactly the historical values (adding `0.0` is a bitwise
    /// no-op on the non-negative totals involved), which is what keeps
    /// default-policy plans f64-bit-identical.
    pub fn new_with_policy(
        chain: &'a Chain,
        platform: &'a Platform,
        disc: &Discretization,
        policy: PolicySpec,
    ) -> Self {
        let total_u = chain.total_compute_time();
        let extra = match policy.recompute {
            RecomputeMode::Never => 0.0,
            RecomputeMode::Always | RecomputeMode::Auto => chain.forward_time(0..chain.len()),
        };
        let cut_times: Vec<f64> = (0..=chain.len())
            .map(|k| platform.cut_time(chain, k))
            .collect();
        let v_max = total_u + extra + cut_times.iter().sum::<f64>();
        Self {
            chain,
            platform,
            disc: *disc,
            policy,
            t_axis: Axis::new(total_u + extra, disc.t_points),
            m_axis: Axis::new(platform.memory_bytes as f64, disc.m_points),
            v_max,
            cut_times,
            tables: StageTables::new(chain),
            shards: Vec::new(),
            index: FxHashMap::default(),
            seeds: FxHashMap::default(),
            max_infeasible: [None, None],
            registry: Registry::new(),
            records: Vec::new(),
            arena_hint: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Derive a session for the same chain on `platform` — the entry
    /// point for degraded-mode replans ([`crate::degrade`]).
    ///
    /// When `platform` only *shrinks* this session's platform (at most
    /// as many GPUs, identical memory and bandwidth, hence identical
    /// axes and cut times), the derived session inherits every retained
    /// slab as a seed plus the monotone infeasibility bound: a state's
    /// DP value never depends on the root processor count, and dropping
    /// processors can only shrink the feasible set, so both carry over
    /// verbatim and every probe stays bit-identical to a cold session's.
    /// Any other change reshapes the DP state space and yields a plain
    /// fresh session.
    pub fn derive<'b>(&'b self, platform: &'b Platform) -> ProbeSession<'b>
    where
        'a: 'b,
    {
        let mut child =
            ProbeSession::new_with_policy(self.chain, platform, &self.disc, self.policy);
        let shrink_only = platform.n_gpus <= self.platform.n_gpus
            && platform.memory_bytes == self.platform.memory_bytes
            && platform.bandwidth.to_bits() == self.platform.bandwidth.to_bits()
            && child.cut_times == self.cut_times;
        if shrink_only {
            child.max_infeasible = self.max_infeasible;
            for shard in &self.shards {
                child.seeds.insert(
                    (shard.t_hat.to_bits(), shard.use_special),
                    Arc::clone(&shard.slab),
                );
            }
        }
        child
    }

    /// The chain this session was built for. Returns the `'a`-lived
    /// reference, so callers can keep using it alongside `&mut self`
    /// (the planning service plans through a long-lived session).
    pub fn chain(&self) -> &'a Chain {
        self.chain
    }

    /// The platform this session was built for (see [`ProbeSession::chain`]).
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The policy configuration every probe of this session solves under.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Aggregate counters so far (the [`DpStats`] view over the
    /// session's metrics registry).
    pub fn stats(&self) -> DpStats {
        DpStats::from_registry(&self.registry)
    }

    /// The live metrics registry of this session.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The probe timeline so far.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }

    /// Drain the timeline (the counters stay).
    pub fn take_records(&mut self) -> Vec<ProbeRecord> {
        std::mem::take(&mut self.records)
    }

    /// Probe the DP at one target period.
    pub fn probe(&mut self, t_hat: f64, use_special: bool, source: ProbeSource) -> DpOutcome {
        self.probe_many(&[t_hat], use_special, source, 1)
            .pop()
            .expect("one target in, one outcome out")
    }

    /// Probe the DP at several independent targets, solving uncached ones
    /// on up to `threads` scoped workers. Outcomes keep the input order
    /// and the session ends up in the same state as `threads = 1` — the
    /// solves are pure functions of `(chain, platform, T̂)` and are merged
    /// in submission order.
    pub fn probe_many(
        &mut self,
        targets: &[f64],
        use_special: bool,
        source: ProbeSource,
        threads: usize,
    ) -> Vec<DpOutcome> {
        for &t_hat in targets {
            assert!(t_hat > 0.0 && t_hat.is_finite(), "T̂ must be positive");
        }

        // Classify each target; collect the distinct ones that need a solve.
        let mut resolutions: Vec<Resolution> = Vec::with_capacity(targets.len());
        let mut pending: Vec<f64> = Vec::new();
        let mut pending_index: FxHashMap<u64, usize> = FxHashMap::default();
        for &t_hat in targets {
            if let Some(&i) = self.index.get(&(t_hat.to_bits(), use_special)) {
                resolutions.push(Resolution::Cached(i));
            } else if self.max_infeasible[use_special as usize].is_some_and(|b| t_hat <= b) {
                resolutions.push(Resolution::Pruned);
            } else if let Some(&j) = pending_index.get(&t_hat.to_bits()) {
                resolutions.push(Resolution::Duplicate(j));
            } else {
                pending_index.insert(t_hat.to_bits(), pending.len());
                resolutions.push(Resolution::Solved(pending.len()));
                pending.push(t_hat);
            }
        }

        // Solve the pending targets (in parallel when asked to), then
        // absorb the shards in submission order for determinism.
        let solved = self.solve_batch(&pending, use_special, threads);
        let first_new_shard = self.shards.len();
        for (shard, _) in &solved {
            debug_assert!(shard.outcome.period.is_finite() || shard.outcome.allocation.is_none());
        }
        let seconds: Vec<f64> = solved.iter().map(|(_, s)| *s).collect();
        for (shard, _) in solved {
            self.absorb(shard);
        }

        // Emit outcomes and the timeline in target order.
        let mut out = Vec::with_capacity(targets.len());
        for (&t_hat, resolution) in targets.iter().zip(&resolutions) {
            let (outcome, states, cached, pruned, secs) = match *resolution {
                Resolution::Cached(i) => {
                    let shard = &self.shards[i];
                    self.registry.inc(counters::DP_OUTCOME_HITS);
                    self.registry
                        .add(counters::DP_STATES_REUSED, shard.slab.len() as u64);
                    (
                        shard.outcome.clone(),
                        shard.outcome.states,
                        true,
                        false,
                        0.0,
                    )
                }
                Resolution::Pruned => {
                    self.registry.inc(counters::DP_BOUND_PRUNES);
                    (DpOutcome::infeasible(), 0, false, true, 0.0)
                }
                Resolution::Solved(j) => {
                    let shard = &self.shards[first_new_shard + j];
                    self.registry
                        .observe(counters::DP_SOLVE_SECONDS, seconds[j]);
                    self.registry
                        .observe(counters::DP_SOLVE_STATES, shard.outcome.states as f64);
                    (
                        shard.outcome.clone(),
                        shard.outcome.states,
                        false,
                        false,
                        seconds[j],
                    )
                }
                Resolution::Duplicate(j) => {
                    let shard = &self.shards[first_new_shard + j];
                    self.registry.inc(counters::DP_OUTCOME_HITS);
                    self.registry
                        .add(counters::DP_STATES_REUSED, shard.slab.len() as u64);
                    (
                        shard.outcome.clone(),
                        shard.outcome.states,
                        true,
                        false,
                        0.0,
                    )
                }
            };
            self.records.push(ProbeRecord {
                source,
                t_hat,
                use_special,
                period: outcome.period,
                states,
                cached,
                pruned,
                seconds: secs,
            });
            out.push(outcome);
        }
        out
    }

    /// Solve `pending` targets, each with a fresh memo over the shared
    /// axes/cut/stage tables. Returns `(shard, seconds)` in `pending`
    /// order.
    fn solve_batch(&self, pending: &[f64], use_special: bool, threads: usize) -> Vec<(Shard, f64)> {
        let threads = threads.max(1).min(pending.len().max(1));
        if threads == 1 || pending.len() == 1 {
            return pending
                .iter()
                .map(|&t| {
                    let start = Instant::now();
                    let shard = self.run_solve(t, use_special);
                    (shard, start.elapsed().as_secs_f64())
                })
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<(Shard, f64)>> = (0..pending.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let cursor = &cursor;
                let session = &*self;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, Shard, f64)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= pending.len() {
                            break;
                        }
                        let start = Instant::now();
                        let shard = session.run_solve(pending[i], use_special);
                        local.push((i, shard, start.elapsed().as_secs_f64()));
                    }
                    local
                }));
            }
            for h in handles {
                for (i, shard, secs) in h.join().expect("DP worker panicked") {
                    slots[i] = Some((shard, secs));
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every pending target solved"))
            .collect()
    }

    /// One full DP solve at `t_hat`. Pure: reads only the shared session
    /// state, so independent solves can run concurrently.
    fn run_solve(&self, t_hat: f64, use_special: bool) -> Shard {
        let mut sp = madpipe_obs::span("dp.solve");
        if let Some(sp) = sp.as_mut() {
            sp.arg("t_hat", t_hat);
        }
        let p_normal = if use_special {
            self.platform.n_gpus - 1
        } else {
            self.platform.n_gpus
        };
        // Without the special processor `t_P`/`m_P` are pinned at 0, so
        // those axes collapse to a single dense index.
        let (t_len, m_len) = if use_special {
            (self.t_axis.len(), self.m_axis.len())
        } else {
            (1, 1)
        };
        let mut memo = DenseMemo::new(
            self.chain.len() + 1,
            p_normal + 1,
            t_len,
            m_len,
            self.disc.v_points,
        );
        // Grow the arena to the largest size any solve has needed yet in
        // one reservation, instead of through doubling re-copies.
        memo.arena
            .reserve(self.arena_hint.load(std::sync::atomic::Ordering::Relaxed));
        let states_seeded = match self.seeds.get(&(t_hat.to_bits(), use_special)) {
            Some(slab) => memo.seed_from(slab) as u64,
            None => 0,
        };
        // Under `Auto` the transition caches carry one lane per
        // activation choice (the effective stage load differs); fixed
        // modes collapse to a single lane.
        let n_pol = match self.policy.recompute {
            RecomputeMode::Auto => 2,
            _ => 1,
        };
        let mut dp = Dp {
            platform: self.platform,
            t_hat,
            use_special,
            policy: self.policy,
            w_mult: self.policy.weights.multiplier(),
            n_pol,
            t_axis: &self.t_axis,
            m_axis: &self.m_axis,
            v_axis: Axis::new(self.v_max.max(t_hat), self.disc.v_points),
            cut_times: &self.cut_times,
            tables: &self.tables,
            memo,
            trans: vec![
                TransEntry { g: 0, iv_next: 0 };
                (self.chain.len() + 1) * self.tables.stride * self.disc.v_points * n_pol
            ],
            trans_t: vec![u16::MAX; (self.chain.len() + 1) * self.tables.stride * t_len * n_pol],
            memo_hits: 0,
            load_prunes: 0,
            memory_prunes: 0,
            branch_prunes: 0,
        };
        let period = dp.solve(self.chain.len(), p_normal, 0, 0, 0);
        let allocation = if period.is_finite() {
            dp.reconstruct(self.chain.len(), p_normal)
        } else {
            None
        };
        let states = dp.memo.len();
        self.arena_hint
            .fetch_max(dp.memo.arena.len(), std::sync::atomic::Ordering::Relaxed);
        Shard {
            t_hat,
            use_special,
            slab: Arc::new(dp.memo.compact()),
            memo_hits: dp.memo_hits,
            load_prunes: dp.load_prunes,
            memory_prunes: dp.memory_prunes,
            branch_prunes: dp.branch_prunes,
            states_seeded,
            outcome: DpOutcome {
                period,
                allocation,
                states,
            },
        }
    }

    /// Merge a solved shard into the session (counters, infeasibility
    /// bound, outcome cache).
    fn absorb(&mut self, shard: Shard) {
        self.registry.inc(counters::DP_SOLVES);
        self.registry.add(
            counters::DP_STATES_CREATED,
            shard.slab.len() as u64 - shard.states_seeded,
        );
        self.registry
            .add(counters::DP_STATES_SEEDED, shard.states_seeded);
        self.registry.add(counters::DP_MEMO_HITS, shard.memo_hits);
        self.registry
            .add(counters::DP_LOAD_PRUNES, shard.load_prunes);
        self.registry
            .add(counters::DP_MEMORY_PRUNES, shard.memory_prunes);
        self.registry
            .add(counters::DP_BRANCH_PRUNES, shard.branch_prunes);
        if shard.outcome.period.is_infinite() {
            let bound = &mut self.max_infeasible[shard.use_special as usize];
            *bound = Some(bound.map_or(shard.t_hat, |b| b.max(shard.t_hat)));
        }
        self.index.insert(
            (shard.t_hat.to_bits(), shard.use_special),
            self.shards.len(),
        );
        self.shards.push(shard);
    }
}

/// Cached `(l, k, iv)`-dependent transition terms: the group count `g`
/// and the rounded-up next delay index. `g = 0` marks an unset entry
/// (the real value is always ≥ 1 after the `.max(1)` clamp).
#[derive(Clone, Copy)]
struct TransEntry {
    g: u64,
    iv_next: u16,
}

/// Const-generic recompute modes for [`Dp::solve_mode`] — one
/// monomorphized solver body per session stance.
const MODE_NEVER: u8 = 0;
const MODE_ALWAYS: u8 = 1;
const MODE_AUTO: u8 = 2;

struct Dp<'a> {
    platform: &'a Platform,
    t_hat: f64,
    use_special: bool,
    /// The session's solve-level policy configuration.
    policy: PolicySpec,
    /// Weight bytes multiplier (`3` full versioning, `2` 2BW) applied to
    /// the single-copy weight table.
    w_mult: u64,
    /// Transition-cache lanes: 2 under `Auto` (store/recompute differ in
    /// effective load), 1 under the fixed modes.
    n_pol: usize,
    t_axis: &'a Axis,
    m_axis: &'a Axis,
    v_axis: Axis,
    cut_times: &'a [f64],
    tables: &'a StageTables,
    memo: DenseMemo,
    /// Per-`(l, k)` rows (same `l * stride + k` indexing as the stage
    /// tables) of per-`iv` transition terms, filled lazily. The group
    /// count and the ⊕-chain depend only on the layer range and the
    /// delay coordinate, so every `(p, t_P, m_P)` state sharing them can
    /// reuse one computation instead of redoing four `ceil_div`s and a
    /// grid round-up per candidate. Flat (`(l·stride + k)·v_len + iv`)
    /// and zero-initialized: the table is small enough (stage pairs ×
    /// `v` points) that direct indexing beats any lazy-row scheme.
    trans: Vec<TransEntry>,
    /// Same flat layout for the special branch's `t_P` round-up keyed by
    /// `(l, k, it)`. `u16::MAX` marks unset (axes are capped far below).
    trans_t: Vec<u16>,
    memo_hits: u64,
    load_prunes: u64,
    memory_prunes: u64,
    branch_prunes: u64,
}

impl Dp<'_> {
    /// Optimistic lower bound on `solve(k, p, ·)` when the special
    /// processor's accumulated (grid-rounded) load is `t_acc` — the
    /// 1F1B* load argument: the remaining compute `U(0, k)` plus the
    /// already-accumulated special load must be carried by at most
    /// `p` normal processors and the special one, no stage can beat its
    /// largest layer, and the special load itself only ever rounds up.
    /// Exact (a true lower bound), so branch-and-bound on it never
    /// changes any DP value.
    #[inline]
    fn subtree_bound(&self, k: usize, p: usize, t_acc: f64) -> f64 {
        if k == 0 {
            // Base case: `solve(0, p, it, ·, ·)` is exactly `t_acc`.
            return t_acc;
        }
        let bins = p + self.use_special as usize;
        if bins == 0 {
            return f64::INFINITY;
        }
        let spread = (self.tables.u_prefix[k] + t_acc) / bins as f64;
        spread.max(self.tables.max_layer_prefix[k]).max(t_acc)
    }

    /// `(g, iv_next)` for extending the plan with stage `k..l` from delay
    /// coordinate `iv` under policy lane `pol`, computed once per
    /// distinct `(l, k, iv, pol)` and then served from the cache.
    /// `idx` is the caller-computed flat cache slot
    /// `((l·stride + k)·v_len + iv)·n_pol + pol`; `v_val`, `u` and
    /// `cut` are pure functions of those coordinates (`u` is the
    /// policy's *effective* load), so caching is bit-transparent.
    #[inline]
    fn transition(&mut self, idx: usize, v_val: f64, u: f64, cut: f64) -> (u64, u16) {
        let cached = self.trans[idx];
        if cached.g != 0 {
            return (cached.g, cached.iv_next);
        }
        let g = ceil_div(v_val + u, self.t_hat).max(1);
        let v_next = oplus(oplus(v_val, u, self.t_hat), cut, self.t_hat);
        let iv_next = self.v_axis.index_up(v_next);
        self.trans[idx] = TransEntry { g, iv_next };
        (g, iv_next)
    }

    /// Rounded-up special-processor load index after taking stage `k..l`
    /// from load coordinate `it` under policy lane `pol`, cached per
    /// `(l, k, it, pol)` — `idx` is the caller-computed flat slot over
    /// those coordinates.
    #[inline]
    fn transition_t(&mut self, idx: usize, t_val: f64, u: f64) -> u16 {
        let cached = self.trans_t[idx];
        if cached != u16::MAX {
            return cached;
        }
        let it_next = self.t_axis.index_up(t_val + u);
        self.trans_t[idx] = it_next;
        it_next
    }

    /// Child-state value: memo probe inlined ahead of the recursion so
    /// the (majority) hit path skips the full `solve_uncached` body and
    /// misses probe the memo exactly once.
    #[inline]
    fn child(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> f64 {
        if let Some(v) = self.memo.get_value(l, p, it, im, iv) {
            self.memo_hits += 1;
            return v;
        }
        self.solve_uncached(l, p, it, im, iv)
    }

    /// Root entry point — identical to [`Self::child`], kept under the
    /// conventional name for the callers outside the hot loop.
    fn solve(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> f64 {
        self.child(l, p, it, im, iv)
    }

    /// Evaluate a state known to be absent from the memo. One-time
    /// dispatch into the mode-monomorphized body: the recompute stance
    /// is fixed for a whole session, so baking it in as a const lets
    /// the compiler delete the policy lane loop, the recompute memory
    /// terms, and the `fwd`/`a_in` table loads from the `Never` (paper
    /// default) scan — keeping the default hot path's instruction
    /// stream and cache footprint identical to the pre-policy planner.
    fn solve_uncached(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> f64 {
        match self.policy.recompute {
            RecomputeMode::Never => self.solve_mode::<MODE_NEVER>(l, p, it, im, iv),
            RecomputeMode::Always => self.solve_mode::<MODE_ALWAYS>(l, p, it, im, iv),
            RecomputeMode::Auto => self.solve_mode::<MODE_AUTO>(l, p, it, im, iv),
        }
    }

    /// [`Self::solve_uncached`] body, monomorphized per recompute mode.
    fn solve_mode<const MODE: u8>(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> f64 {
        if l == 0 {
            let v = self.t_axis.value(it);
            self.memo.insert(l, p, it, im, iv, v, Choice::Done);
            return v;
        }

        let t_val = self.t_axis.value(it);
        let m_val = self.m_axis.value(im);
        let v_val = self.v_axis.value(iv);
        let memory = self.platform.memory_bytes;
        let row = l * self.tables.stride;
        // Hoisted table slices: every candidate index is `k < l`, which
        // the slice lengths prove to the bounds checker once. Copying the
        // `&'a` references out keeps the slices independent of the `&mut
        // self` reborrows inside the loop.
        let tables = self.tables;
        let us = &tables.u[row..row + l];
        let fwds = &tables.fwd[row..row + l];
        let weightss = &tables.weights[row..row + l];
        let storeds = &tables.stored[row..row + l];
        let a_ins = &tables.a_in[..l];
        let bufferss = &tables.buffers[row..row + l];
        let u_prefix = &tables.u_prefix[..l];
        let max_layer_prefix = &tables.max_layer_prefix[..l];
        let cut_times = self.cut_times;
        let cuts = &cut_times[..l];
        // Subtree-bound denominators (processors left for the remaining
        // prefix, per branch), constant across the candidate scan.
        let bins_n = (p + self.use_special as usize).saturating_sub(1) as f64;
        let bins_s = (p + self.use_special as usize) as f64;

        let mut best = f64::INFINITY;
        let mut choice = Choice::Infeasible;

        // Policy facts as consts of the monomorphized mode: the
        // optimizer folds the lane loop away entirely for the fixed
        // modes and dead-codes the untaken branch's memory terms.
        let offers_store = MODE != MODE_ALWAYS;
        let offers_rec = MODE != MODE_NEVER;
        let n_pol: usize = if MODE == MODE_AUTO { 2 } else { 1 };
        debug_assert_eq!(n_pol, self.n_pol);
        let w_mult = self.w_mult;
        let v_len = self.v_axis.len();
        let t_len = self.t_axis.len();

        for k in (0..l).rev() {
            let u_store = us[k];
            let fwd = if offers_rec { fwds[k] } else { 0.0 };
            // Every offered option costs at least the stage's smallest
            // effective load (store: `U`; recompute adds the forward
            // pass), and both grow as the stage extends towards the
            // front — once the minimum reaches the best period found at
            // this state, no larger stage can improve it (exact prune).
            let u_min = if offers_store { u_store } else { u_store + fwd };
            if u_min >= best {
                self.load_prunes += 1;
                break;
            }
            let cut = cuts[k];

            let weights = w_mult * weightss[k];
            let stored = storeds[k];
            let buffers = bufferss[k];
            let a_in = if offers_rec { a_ins[k] } else { 0 };
            let working_set = stored - a_in;

            // Store-lane cores of this `k`, kept for the memory early
            // break below. Set whenever the store option is offered: the
            // load prune above uses the store load in that case, so the
            // store lane is never skipped by its own load check.
            let mut store_cores: Option<(u64, u64)> = None;

            for pol in 0..n_pol {
                let rec = match MODE {
                    MODE_NEVER => false,
                    MODE_ALWAYS => true,
                    _ => pol == 1,
                };
                let u = if rec { u_store + fwd } else { u_store };
                if u >= best {
                    continue;
                }
                let idx = ((row + k) * v_len + iv as usize) * n_pol + pol;
                let (g, iv_next) = self.transition(idx, v_val, u, cut);

                // Memory terms of `M(k, l, g)` under this policy: a
                // storing stage pins `ā` per live batch; a recomputing
                // stage pins only the boundary input per batch and holds
                // the rest of its activations once, as a static
                // recompute working set.
                let (live, static_extra) = if rec {
                    (a_in, working_set)
                } else {
                    (stored, 0)
                };
                let normal_core = weights + g * live + static_extra;
                let special_core = m_val as u64 + weights + (g - 1) * live + static_extra;
                if !rec {
                    store_cores = Some((normal_core, special_core));
                }

                // Both options also cost at least the boundary cut time,
                // so a candidate whose cut already meets the incumbent
                // cannot win whatever its subtree solves to — skip
                // straight to the memory break test. (Cuts are not
                // monotone in `k`, so this cannot break out of the scan
                // the way the load prune does.)
                if cut >= best {
                    continue;
                }

                // Normal processor option. Recurse only when even the
                // optimistic subtree period can still beat the incumbent
                // (the bound is `subtree_bound` inlined against the
                // hoisted prefix slices).
                if p >= 1 && normal_core + buffers <= memory {
                    let bound = if k == 0 {
                        t_val
                    } else if bins_n == 0.0 {
                        f64::INFINITY
                    } else {
                        ((u_prefix[k] + t_val) / bins_n)
                            .max(max_layer_prefix[k])
                            .max(t_val)
                    };
                    debug_assert_eq!(
                        bound.to_bits(),
                        self.subtree_bound(k, p - 1, t_val).to_bits()
                    );
                    let floor = u.max(cut).max(bound);
                    if floor < best {
                        // `k == 0` is the terminal state: its value is
                        // exactly the rounded special load `t_val`, no
                        // recursion or memo traffic needed.
                        let sub = if k == 0 {
                            t_val
                        } else {
                            self.child(k, p - 1, it, im, iv_next)
                        };
                        let t_n = u.max(cut).max(sub);
                        if t_n < best {
                            best = t_n;
                            choice = Choice::Normal {
                                k: k as u16,
                                recompute: rec,
                            };
                        }
                    } else {
                        self.branch_prunes += 1;
                    }
                }

                // Special processor option, same branch-and-bound.
                let m_next = m_val + (weights + (g - 1) * live + static_extra + buffers) as f64;
                if self.use_special && !self.m_axis.overflows(m_next) && m_next <= memory as f64 {
                    let idx_t = ((row + k) * t_len + it as usize) * n_pol + pol;
                    let it_next = self.transition_t(idx_t, t_val, u);
                    let im_next = self.m_axis.index_up(m_next);
                    let t_next_val = self.t_axis.value(it_next);
                    let bound = if k == 0 {
                        t_next_val
                    } else {
                        ((u_prefix[k] + t_next_val) / bins_s)
                            .max(max_layer_prefix[k])
                            .max(t_next_val)
                    };
                    debug_assert_eq!(
                        bound.to_bits(),
                        self.subtree_bound(k, p, t_next_val).to_bits()
                    );
                    let floor = t_next_val.max(cut).max(bound);
                    if floor < best {
                        let sub = if k == 0 {
                            t_next_val
                        } else {
                            self.child(k, p, it_next, im_next, iv_next)
                        };
                        let t_s = t_next_val.max(cut).max(sub);
                        if t_s < best {
                            best = t_s;
                            choice = Choice::Special {
                                k: k as u16,
                                recompute: rec,
                            };
                        }
                    } else {
                        self.branch_prunes += 1;
                    }
                }
            }

            // Early break: every offered policy's cores already exceed
            // memory at every smaller `k` too. The store lane uses its
            // exact cores (monotone: weights, `ā` and `g` only grow as
            // the stage extends). The recompute lane uses `g`-free lower
            // bounds — `g·a_in + (ā − a_in) ≥ ā` since `g ≥ 1`, and both
            // `ā(k, l)` and `ā(k, l) − a_in(k)` grow as `k` decreases —
            // so breaking is sound for it as well.
            let store_blocked = match store_cores {
                Some((nc, sc)) => nc > memory && (sc > memory || !self.use_special),
                None => true, // store not offered under `Always`
            };
            let rec_blocked = if offers_rec {
                let qn = weights + stored;
                let qs = m_val as u64 + weights + working_set;
                qn > memory && (qs > memory || !self.use_special)
            } else {
                true
            };
            if store_blocked && rec_blocked {
                self.memory_prunes += 1;
                break;
            }
        }

        self.memo.insert(l, p, it, im, iv, best, choice);
        best
    }

    /// The [`StagePolicy`] the session's spec assigns to a stage whose
    /// recompute flag was `rec`.
    fn stage_policy(&self, rec: bool) -> StagePolicy {
        self.policy.stage_policy(if rec {
            ActivationPolicy::Recompute
        } else {
            ActivationPolicy::Store
        })
    }

    /// Walk the memoized choices from the root and emit the allocation,
    /// each stage carrying the policy of its recompute bit.
    fn reconstruct(&self, l0: usize, p0: usize) -> Option<Allocation> {
        let n_gpus = self.platform.n_gpus;
        let mut stages_rev: Vec<Stage> = Vec::new();
        let (mut l, mut p, mut it, mut im, mut iv) = (l0, p0, 0u16, 0u16, 0u16);
        let mut next_normal_gpu = n_gpus - 1; // count down; GPU 0 is special
        loop {
            // Terminal: the solve loop computes `k == 0` children
            // directly, so the memo holds no `l == 0` states.
            if l == 0 {
                break;
            }
            let (_, choice) = self.memo.get(l, p, it, im, iv)?;
            let row = l * self.tables.stride;
            match choice {
                Choice::Infeasible => return None,
                Choice::Done => break,
                Choice::Normal { k: k16, recompute } => {
                    let k = k16 as usize;
                    stages_rev.push(Stage {
                        layers: k..l,
                        gpu: next_normal_gpu,
                        policy: self.stage_policy(recompute),
                    });
                    next_normal_gpu = next_normal_gpu.saturating_sub(1);
                    let v_val = self.v_axis.value(iv);
                    let mut u = self.tables.u[row + k];
                    if recompute {
                        u += self.tables.fwd[row + k];
                    }
                    let cut = self.cut_times[k];
                    iv = self
                        .v_axis
                        .index_up(oplus(oplus(v_val, u, self.t_hat), cut, self.t_hat));
                    l = k;
                    p -= 1;
                }
                Choice::Special { k: k16, recompute } => {
                    let k = k16 as usize;
                    stages_rev.push(Stage {
                        layers: k..l,
                        gpu: 0,
                        policy: self.stage_policy(recompute),
                    });
                    let v_val = self.v_axis.value(iv);
                    let t_val = self.t_axis.value(it);
                    let m_val = self.m_axis.value(im);
                    let mut u = self.tables.u[row + k];
                    if recompute {
                        u += self.tables.fwd[row + k];
                    }
                    let g = ceil_div(v_val + u, self.t_hat).max(1);
                    let cut = self.cut_times[k];
                    let stored = self.tables.stored[row + k];
                    let a_in = self.tables.a_in[k];
                    let (live, static_extra) = if recompute {
                        (a_in, stored - a_in)
                    } else {
                        (stored, 0)
                    };
                    let stage_mem = self.w_mult * self.tables.weights[row + k]
                        + (g - 1) * live
                        + static_extra
                        + self.tables.buffers[row + k];
                    it = self.t_axis.index_up(t_val + u);
                    im = self.m_axis.index_up(m_val + stage_mem as f64);
                    iv = self
                        .v_axis
                        .index_up(oplus(oplus(v_val, u, self.t_hat), cut, self.t_hat));
                    l = k;
                }
            }
        }
        stages_rev.reverse();
        Allocation::new(stages_rev, l0, n_gpus).ok()
    }
}

/// Run MadPipe-DP at target period `t_hat` and reconstruct the resulting
/// allocation (special processor = GPU 0).
///
/// One-shot convenience over [`ProbeSession`]; callers probing several
/// targets should hold a session instead to share state between probes.
pub fn madpipe_dp(
    chain: &Chain,
    platform: &Platform,
    t_hat: f64,
    disc: &Discretization,
) -> DpOutcome {
    madpipe_dp_with(chain, platform, t_hat, disc, true)
}

/// [`madpipe_dp`] with the special processor optionally disabled: with
/// `use_special = false` the DP degenerates to a *memory-aware contiguous*
/// partitioner (every GPU gets one stage, exact 1F1B* memory estimates) —
/// the ablation isolating the contribution of non-contiguous allocations.
pub fn madpipe_dp_with(
    chain: &Chain,
    platform: &Platform,
    t_hat: f64,
    disc: &Discretization,
    use_special: bool,
) -> DpOutcome {
    ProbeSession::new(chain, platform, disc).probe(t_hat, use_special, ProbeSource::Bisection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(costs: &[(f64, f64)], act: u64, w: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, w, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    fn disc() -> Discretization {
        Discretization::default()
    }

    #[test]
    fn single_gpu_takes_everything_on_special() {
        let c = chain(&[(1.0, 1.0), (2.0, 2.0)], 10, 0);
        let platform = Platform::new(1, 1 << 30, 100.0).unwrap();
        let out = madpipe_dp(&c, &platform, 6.0, &disc());
        assert!((out.period - 6.0).abs() < 0.2);
        let alloc = out.allocation.unwrap();
        assert!(alloc.stages().iter().all(|s| s.gpu == 0));
    }

    #[test]
    fn balanced_chain_splits_across_gpus() {
        let c = chain(&[(1.0, 1.0); 8], 1, 0);
        let platform = Platform::new(4, 1 << 30, 1e9).unwrap();
        let out = madpipe_dp(&c, &platform, 4.0, &disc());
        // 16 compute over 4 GPUs → period ≈ 4 (comm negligible).
        assert!(out.period <= 4.3, "period {}", out.period);
        let alloc = out.allocation.unwrap();
        assert_eq!(alloc.n_gpus(), 4);
        // Every GPU busy ≈ 4.
        for g in 0..4 {
            assert!(alloc.gpu_compute_load(&c, g) <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn uses_the_special_gpu_for_imbalanced_chains() {
        // Loads 4, 8, 4 on 2 GPUs: only {0,2} vs {1} balances at 8.
        let c = chain(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1, 0);
        let platform = Platform::new(2, 1 << 30, 1e9).unwrap();
        let out = madpipe_dp(&c, &platform, 8.0, &disc());
        assert!(out.period <= 8.4, "period {}", out.period);
        let alloc = out.allocation.unwrap();
        // layers 0 and 2 on the special GPU 0, layer 1 on a normal GPU.
        assert_eq!(alloc.stages()[0].gpu, 0);
        assert_eq!(alloc.stages()[2].gpu, 0);
        assert_ne!(alloc.stages()[1].gpu, 0);
    }

    #[test]
    fn memory_pressure_blocks_tight_targets() {
        // Huge activations: at small T̂ the first stage needs many copies.
        let c = chain(&[(1.0, 1.0); 6], 1 << 20, 0);
        let tight = Platform::new(3, 4 << 20, 1e9).unwrap();
        let small = madpipe_dp(&c, &tight, 4.0, &disc());
        let large = madpipe_dp(&c, &tight, 12.0, &disc());
        // Larger targets relax memory → period cannot get worse.
        if small.period.is_finite() {
            assert!(large.period <= small.period + 1e-6);
        } else {
            assert!(large.period.is_finite());
        }
    }

    #[test]
    fn impossible_memory_is_reported_infeasible() {
        let c = chain(&[(1.0, 1.0)], 1 << 30, 1 << 28);
        let platform = Platform::new(2, 1 << 20, 1e9).unwrap();
        let out = madpipe_dp(&c, &platform, 2.0, &disc());
        assert!(out.period.is_infinite());
        assert!(out.allocation.is_none());
    }

    #[test]
    fn dp_period_is_monotone_in_t_hat() {
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
            1 << 18,
            1 << 10,
        );
        let platform = Platform::new(3, 3 << 20, 1e8).unwrap();
        let mut last = f64::INFINITY;
        for t_hat in [2.0f64, 4.0, 8.0, 16.0, 32.0] {
            let out = madpipe_dp(&c, &platform, t_hat, &disc());
            assert!(
                out.period <= last + 0.35,
                "period should (weakly) improve as T̂ grows: {} then {}",
                last,
                out.period
            );
            last = out.period.min(last);
        }
    }

    #[test]
    fn allocation_covers_the_chain_in_order() {
        let c = chain(&[(1.0, 1.0); 10], 100, 10);
        let platform = Platform::new(4, 1 << 30, 1e6).unwrap();
        let out = madpipe_dp(&c, &platform, 5.0, &disc());
        let alloc = out.allocation.unwrap();
        let part = alloc.partition();
        assert_eq!(part.stages().first().unwrap().start, 0);
        assert_eq!(part.stages().last().unwrap().end, 10);
    }

    #[test]
    fn session_matches_one_shot_solves() {
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0)],
            1 << 16,
            1 << 8,
        );
        let platform = Platform::new(3, 8 << 20, 1e7).unwrap();
        let mut session = ProbeSession::new(&c, &platform, &disc());
        for t_hat in [3.0, 5.0, 9.0] {
            let one_shot = madpipe_dp(&c, &platform, t_hat, &disc());
            let probed = session.probe(t_hat, true, ProbeSource::Bisection);
            assert_eq!(probed.period, one_shot.period, "T̂ = {t_hat}");
            assert_eq!(probed.states, one_shot.states);
            assert_eq!(
                probed.allocation.map(|a| a.stages().to_vec()),
                one_shot.allocation.map(|a| a.stages().to_vec())
            );
        }
    }

    #[test]
    fn revisited_targets_hit_the_outcome_cache() {
        let c = chain(&[(1.0, 1.0); 6], 1 << 10, 1 << 8);
        let platform = Platform::new(3, 1 << 26, 1e7).unwrap();
        let mut session = ProbeSession::new(&c, &platform, &disc());
        let a = session.probe(4.0, true, ProbeSource::Bisection);
        assert_eq!(session.stats().solves, 1);
        let b = session.probe(4.0, true, ProbeSource::Refinement);
        assert_eq!(session.stats().solves, 1, "second probe must not re-solve");
        assert_eq!(session.stats().outcome_hits, 1);
        assert!(session.stats().states_reused > 0);
        assert_eq!(a.period, b.period);
        // The two DP variants are cached independently.
        session.probe(4.0, false, ProbeSource::ContiguousFallback);
        assert_eq!(session.stats().solves, 2);
    }

    #[test]
    fn infeasibility_bound_prunes_smaller_targets() {
        // Memory-hopeless at small targets: activations dominate.
        let c = chain(&[(1.0, 1.0); 6], 1 << 20, 0);
        let tight = Platform::new(3, 4 << 20, 1e9).unwrap();
        let mut session = ProbeSession::new(&c, &tight, &disc());
        let at_four = session.probe(4.0, true, ProbeSource::Bisection);
        if at_four.period.is_infinite() {
            let smaller = session.probe(2.0, true, ProbeSource::Bisection);
            assert!(smaller.period.is_infinite());
            assert_eq!(session.stats().bound_prunes, 1, "2.0 ≤ 4.0 must be pruned");
            assert_eq!(session.stats().solves, 1);
            // A larger target is *not* covered by the bound.
            session.probe(50.0, true, ProbeSource::Bisection);
            assert_eq!(session.stats().solves, 2);
        }
    }

    #[test]
    fn probe_many_is_deterministic_across_thread_counts() {
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
            1 << 18,
            1 << 10,
        );
        let platform = Platform::new(3, 3 << 20, 1e8).unwrap();
        let targets = [2.0, 3.5, 5.0, 5.0, 8.0, 13.0, 21.0];
        let mut serial = ProbeSession::new(&c, &platform, &disc());
        let mut parallel = ProbeSession::new(&c, &platform, &disc());
        let a = serial.probe_many(&targets, true, ProbeSource::Refinement, 1);
        let b = parallel.probe_many(&targets, true, ProbeSource::Refinement, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.period.to_bits() == y.period.to_bits(),
                "periods must be bit-identical"
            );
            assert_eq!(x.states, y.states);
            assert_eq!(
                x.allocation.as_ref().map(|a| a.stages().to_vec()),
                y.allocation.as_ref().map(|a| a.stages().to_vec())
            );
        }
        // Counters (everything except wall-clock) agree too.
        assert_eq!(serial.stats(), parallel.stats());
        // The duplicate 5.0 was answered from the batch, not re-solved.
        assert_eq!(serial.stats().outcome_hits, 1);
        assert_eq!(serial.stats().solves, targets.len() - 1);
    }

    #[test]
    fn dense_memo_inserts_gets_and_compacts() {
        let normal = Choice::Normal {
            k: 9,
            recompute: false,
        };
        let special = Choice::Special {
            k: 3,
            recompute: true,
        };
        let mut m = DenseMemo::new(4, 3, 5, 2, 7);
        assert_eq!(m.len(), 0);
        assert!(m.get(1, 2, 3, 1, 6).is_none());
        m.insert(1, 2, 3, 1, 6, 2.5, normal);
        m.insert(0, 0, 0, 0, 0, f64::INFINITY, Choice::Infeasible);
        m.insert(3, 1, 4, 0, 2, 7.0, special);
        // Overwrite does not double-count.
        m.insert(3, 1, 4, 0, 2, 8.0, Choice::Done);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(1, 2, 3, 1, 6), Some((2.5, normal)));
        assert_eq!(
            m.get(0, 0, 0, 0, 0),
            Some((f64::INFINITY, Choice::Infeasible))
        );
        assert_eq!(m.get(3, 1, 4, 0, 2), Some((8.0, Choice::Done)));
        assert!(m.get(1, 2, 3, 1, 5).is_none(), "same row, other v index");

        let slab = m.compact();
        assert_eq!(slab.len(), 3);
        // Round-trip: seeding an empty memo of the same shape reproduces
        // every entry (this is the replan-reuse path).
        let mut back = DenseMemo::new(4, 3, 5, 2, 7);
        assert_eq!(back.seed_from(&slab), 3);
        assert_eq!(back.get(1, 2, 3, 1, 6), Some((2.5, normal)));
        assert_eq!(back.get(3, 1, 4, 0, 2), Some((8.0, Choice::Done)));
        // A shrunken p axis only takes the surviving prefix.
        let mut shrunk = DenseMemo::new(4, 2, 5, 2, 7);
        assert_eq!(shrunk.seed_from(&slab), 2, "p = 2 entry dropped");
        assert!(shrunk.get(0, 0, 0, 0, 0).is_some());
    }

    #[test]
    fn derived_session_probes_match_a_cold_session_bit_for_bit() {
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
            1 << 18,
            1 << 10,
        );
        let healthy = Platform::new(4, 3 << 20, 1e8).unwrap();
        let degraded = Platform::new(3, 3 << 20, 1e8).unwrap();
        let targets = [2.0, 3.5, 5.0, 8.0, 13.0];

        let mut parent = ProbeSession::new(&c, &healthy, &disc());
        for &t in &targets {
            parent.probe(t, true, ProbeSource::Bisection);
            parent.probe(t, false, ProbeSource::ContiguousFallback);
        }

        let mut seeded = parent.derive(&degraded);
        let mut cold = ProbeSession::new(&c, &degraded, &disc());
        for &t in &targets {
            for special in [true, false] {
                let a = seeded.probe(t, special, ProbeSource::Bisection);
                let b = cold.probe(t, special, ProbeSource::Bisection);
                assert_eq!(
                    a.period.to_bits(),
                    b.period.to_bits(),
                    "T̂ = {t}, special = {special}"
                );
                assert_eq!(
                    a.allocation.map(|x| x.stages().to_vec()),
                    b.allocation.map(|x| x.stages().to_vec())
                );
            }
        }
        assert!(
            seeded.stats().states_seeded > 0,
            "surviving slab states must be reused: {:?}",
            seeded.stats()
        );
    }

    #[test]
    fn derive_on_a_changed_platform_starts_cold() {
        let c = chain(&[(1.0, 1.0); 5], 1 << 16, 1 << 8);
        let healthy = Platform::new(4, 4 << 20, 1e8).unwrap();
        let mut parent = ProbeSession::new(&c, &healthy, &disc());
        parent.probe(4.0, true, ProbeSource::Bisection);

        // Halved memory reshapes the m axis: nothing may be inherited.
        let less_memory = Platform::new(4, 2 << 20, 1e8).unwrap();
        let mut child = parent.derive(&less_memory);
        child.probe(4.0, true, ProbeSource::Bisection);
        assert_eq!(child.stats().states_seeded, 0);
        assert_eq!(child.stats().solves, 1);
    }

    #[test]
    fn branch_pruning_fires_and_keeps_results_exact() {
        // Imbalanced chain with room to prune: the bound must kill
        // subtrees without changing the answer (the answer itself is
        // cross-checked against the reference solver in the
        // dense_vs_hashed differential suite; here we check the pruning
        // is actually engaged).
        let c = chain(
            &[
                (1.0, 2.0),
                (3.0, 1.0),
                (2.0, 2.0),
                (1.0, 1.0),
                (2.0, 3.0),
                (0.5, 0.5),
            ],
            1 << 14,
            1 << 9,
        );
        let platform = Platform::new(4, 8 << 20, 1e8).unwrap();
        let mut session = ProbeSession::new(&c, &platform, &disc());
        session.probe(3.0, true, ProbeSource::Bisection);
        assert!(
            session.stats().branch_prunes > 0,
            "expected branch-and-bound to fire: {:?}",
            session.stats()
        );
    }

    fn spec(recompute: RecomputeMode, weights: madpipe_model::WeightPolicy) -> PolicySpec {
        PolicySpec { recompute, weights }
    }

    #[test]
    fn default_probes_report_default_policies() {
        let c = chain(&[(1.0, 1.0); 8], 1, 0);
        let platform = Platform::new(4, 1 << 30, 1e9).unwrap();
        let out = madpipe_dp(&c, &platform, 4.0, &disc());
        let alloc = out.allocation.unwrap();
        assert!(alloc.stages().iter().all(|s| s.policy.is_default()));
    }

    #[test]
    fn fixed_recompute_probes_report_recompute_policies() {
        let c = chain(&[(1.0, 1.0); 8], 1, 0);
        let platform = Platform::new(4, 1 << 30, 1e9).unwrap();
        let s = spec(RecomputeMode::Always, madpipe_model::WeightPolicy::TwoBw);
        let out = ProbeSession::new_with_policy(&c, &platform, &disc(), s).probe(
            8.0,
            true,
            ProbeSource::Bisection,
        );
        let alloc = out.allocation.unwrap();
        assert!(alloc.stages().iter().all(
            |s| s.policy.recomputes() && s.policy.weights == madpipe_model::WeightPolicy::TwoBw
        ));
    }

    #[test]
    fn auto_is_feasible_whenever_the_default_model_is() {
        // Auto's transition set is a superset of Never's and feasibility
        // is decided on exact (undiscretized) memory arithmetic, so a
        // feasible default probe implies a feasible auto probe.
        let c = chain(&[(1.0, 1.0); 6], 1 << 20, 1 << 10);
        let platform = Platform::new(3, 6 << 20, 1e8).unwrap();
        for t_hat in [2.0, 4.0, 8.0, 16.0] {
            let never = madpipe_dp(&c, &platform, t_hat, &disc());
            let auto = ProbeSession::new_with_policy(
                &c,
                &platform,
                &disc(),
                spec(RecomputeMode::Auto, madpipe_model::WeightPolicy::Full),
            )
            .probe(t_hat, true, ProbeSource::Bisection);
            if never.period.is_finite() {
                assert!(
                    auto.period.is_finite(),
                    "auto must stay feasible at T̂ = {t_hat}"
                );
            }
        }
    }

    #[test]
    fn recompute_unlocks_memory_tight_targets() {
        // Alternating 4 MiB internal / 64 KiB boundary activations: a
        // two-layer stage stores ≈ 4 MiB per live batch, but recompute
        // pins only the 64 KiB boundary input per batch (the 4 MiB
        // becomes a one-time working set) — at a tight target the front
        // stages need g ≥ 2 live batches, which only recompute fits into
        // 5 MiB.
        let s = 64u64 << 10;
        let b = 4u64 << 20;
        let acts = [b, s, b, s, b, s];
        let layers = (0..6)
            .map(|i| Layer::new(format!("l{i}"), 1.0, 1.0, 0, acts[i]))
            .collect();
        let c = Chain::new("t", s, layers).unwrap();
        let tight = Platform::new(3, 5 << 20, 1e9).unwrap();
        let t_hat = 4.0;
        let never = madpipe_dp(&c, &tight, t_hat, &disc());
        let auto = ProbeSession::new_with_policy(
            &c,
            &tight,
            &disc(),
            spec(RecomputeMode::Auto, madpipe_model::WeightPolicy::Full),
        )
        .probe(t_hat, true, ProbeSource::Bisection);
        assert!(
            never.period.is_infinite(),
            "default model should be memory-blocked at T̂ = {t_hat}, got {}",
            never.period
        );
        assert!(
            auto.period.is_finite(),
            "recompute should unlock the target"
        );
        let alloc = auto.allocation.unwrap();
        assert!(
            alloc.stages().iter().any(|s| s.policy.recomputes()),
            "the unlocking plan must actually recompute somewhere: {alloc:?}"
        );
    }

    #[test]
    fn two_bw_unlocks_weight_bound_instances() {
        // Weights dominate: 3·W exceeds memory on every split, 2·W fits.
        let w = 1u64 << 20;
        let c = chain(&[(1.0, 1.0); 4], 1 << 10, w);
        // Per GPU: 2 layers → W = 2 MiB; 3·W = 6 MiB > 5.5 MiB > 2·W + slack.
        let platform = Platform::new(2, (5 << 20) + (1 << 19), 1e9).unwrap();
        let full = madpipe_dp(&c, &platform, 8.0, &disc());
        let two_bw = ProbeSession::new_with_policy(
            &c,
            &platform,
            &disc(),
            spec(RecomputeMode::Never, madpipe_model::WeightPolicy::TwoBw),
        )
        .probe(8.0, true, ProbeSource::Bisection);
        assert!(
            full.period.is_infinite(),
            "3·W must not fit: {}",
            full.period
        );
        assert!(two_bw.period.is_finite(), "2·W must fit");
        assert!(two_bw
            .allocation
            .unwrap()
            .stages()
            .iter()
            .all(|s| s.policy.weights == madpipe_model::WeightPolicy::TwoBw));
    }

    #[test]
    fn key_fields_round_trip_at_the_limits() {
        for &(l, p, it, im, iv) in &[
            (0usize, 0usize, 0u16, 0u16, 0u16),
            (65535, 255, 65535, 255, 65535),
            (1, 255, 0, 255, 1),
            (1234, 7, 4321, 99, 17),
        ] {
            assert_eq!(unpack(pack(l, p, it, im, iv)), (l, p, it, im, iv));
        }
    }

    proptest! {
        #[test]
        fn packed_key_round_trips(
            l in 0usize..65536,
            p in 0usize..256,
            it in 0u16..=u16::MAX,
            im in 0u16..256,
            iv in 0u16..=u16::MAX,
        ) {
            let key = pack(l, p, it, im, iv);
            prop_assert_eq!(unpack(key), (l, p, it, im, iv));
        }

        #[test]
        fn packed_keys_are_injective(
            a in (0usize..65536, 0usize..256, 0u16..=u16::MAX, 0u16..256, 0u16..=u16::MAX),
            b in (0usize..65536, 0usize..256, 0u16..=u16::MAX, 0u16..256, 0u16..=u16::MAX),
        ) {
            let ka = pack(a.0, a.1, a.2, a.3, a.4);
            let kb = pack(b.0, b.1, b.2, b.3, b.4);
            prop_assert_eq!(ka == kb, a == b);
        }

        #[test]
        fn choice_encoding_round_trips(k in 0u16..=u16::MAX, rec_bit in 0u8..2) {
            let rec = rec_bit == 1;
            for c in [
                Choice::Infeasible,
                Choice::Done,
                Choice::Normal { k, recompute: rec },
                Choice::Special { k, recompute: rec },
            ] {
                prop_assert_eq!(decode_choice(encode_choice(c)), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    #[cfg(debug_assertions)]
    fn pack_rejects_overflowing_memory_index() {
        let _ = pack(1, 1, 1, 256, 1);
    }
}
