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
//! the blocking order that makes the scan cache-friendly. A memo's
//! entries live only as long as its solve: what the session keeps of a
//! probe is its allocation, for the caps below. Its buffers outlive it,
//! and the session too: a [`Workspace`] per worker (the memo, the
//! transition caches and the memory floor's tables) goes to each solve,
//! which unsets only the entries the previous solve set, and from one
//! session to the thread's next (see "What a plan's probes share").
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
//! The spread and largest-layer terms are scaled by [`FLOOR_SLACK`]
//! `= 1 − 10⁻⁴`, and the spread is capped at the `t_P` axis maximum,
//! because the special processor's load is rounded onto its grid and
//! [`Axis::index_up`] counts a value up to `10⁻⁹` (relative) above a grid
//! point as *on* it. So each special step can lose up to `δ = 10⁻⁹ +
//! 4·2⁻⁵³` of `t_P + u` (the guard, the division, the guard product and
//! the grid product each round once, the sum once more), and a tiny
//! stage can vanish into `t_P` altogether. Proof that the scaled bound
//! is a true lower bound on a subtree's exact value `V`:
//!
//! * `t_P` never decreases along a path (`index_up` is monotone and
//!   `index_up(value(i)) = i`), so the `t_P` term is exact;
//! * if the path's rounded `t_P` ever reaches the axis maximum, it stays
//!   there, and `V ≥ t_P = value(last)`: the cap on the spread covers it;
//! * otherwise, by induction over its `m` special steps, the final
//!   `t_P ≥ (1−δ)^m · (t_acc + Σ special loads)`. Each normal stage's
//!   load is at most `V`, and there are at most `bins` processors, so
//!   `bins · V ≥ (1−δ)^m · (U(0,k) + t_acc)` (recompute only adds load).
//!   `m ≤ 65,535` (the longest chain `validate` admits) gives
//!   `(1−δ)^m ≥ 1 − 6.56·10⁻⁵`; the rest of the slack covers the float
//!   error of the prefix sums and the division, a few ulps;
//! * a layer placed on a normal processor bounds `V` exactly; on the
//!   special one its step rounds once, so `V ≥ (1−δ) · layer`.
//!
//! Each candidate's own `u` and `cut` stay exact. Without the slack, a
//! floor could exceed the exact value by a few ulps and prune an optimum
//! whose value ties a capped incumbent (below); with it, the capped and
//! uncapped solvers both agree with the unpruned reference.
//!
//! # Memory floor
//!
//! Memory is tested one stage at a time, so on a memory-tight cell most
//! states only prove that the layers still to place cannot fit. Before
//! solving a child `(k, p′, t_P′, m_P′, V′)` that is not memoized, the
//! solver compares a lower bound `F` on the special processor's memory
//! still needed to place layers `[0, k)` with what it has left, and
//! answers `∞` without creating the state when
//! `(m_P′ + F) · FLOOR_SLACK > M` ([`Dp::floor_exceeds`], counted as
//! `dp.memory_floor_prunes`). The floor is always on. For every `p′` at
//! once, per `(k, iv′)`, on first use in a solve ([`Dp::fill_floor`]):
//!
//! * each remaining layer `i` gets `g_i = max(1, ceil_div(min(V_top, V′ +
//!   U(i, k)) · FLOOR_SLACK − 3·EPS·k, T̂))`, with `V_top` the `V` axis
//!   maximum and `EPS` the tolerance of
//!   [`ceil_div`](madpipe_model::util::ceil_div);
//! * on the special processor layer `i` costs at least `c_i = w·W_i +
//!   (g_i − 1)·ā_i` on the store lane, and `w·W_i + (ā_i − a_in(i)) +
//!   min(g_i − 1, 1)·a_in(i)` on the recompute lane (the least of the
//!   lanes the spec offers), `ā_i` being the layer's stored bytes;
//! * a normal processor can take an interval `[a, b)` when `w·W(a, b) +
//!   g_a·ā(a, b) ≤ M` on the store lane or `w·W(a, b) + ā(a, b) + (g_a −
//!   1)·a_in(a) ≤ M` on the recompute lane, or when `[a, b)` lies inside
//!   such an interval;
//! * `F` is the cheapest covering: the least `Σ c_i` over the layers that
//!   at most `p′` disjoint such intervals leave out. Since a sub-interval
//!   of a fitting interval fits, the cheapest covering of a prefix never
//!   falls as the prefix grows, so with `w[b]` the least start of a
//!   fitting interval ending at `b`, `F_p′[b] = min(F_p′[b − 1] + c_{b−1},
//!   F_{p′−1}[w[b]])`: a sliding-window minimum found at the window's
//!   start, `O(k·P)` per `(k, iv′)`. The contiguous variant has no
//!   special processor and skips the floor;
//! * most calls need no covering. Every `p′`'s floor is at most `U`, the
//!   cost of leaving every layer to the special processor at layer 0's
//!   group count `g₀`, the largest: `w·W(0, k) + (g₀ − 1)·ā(0, k)` under
//!   `Never`, and `w·W(0, k) + ā(0, k)` when a recompute lane is offered
//!   (that lane's `c_i` is at most `w·W_i + ā_i`). `U` is computed once
//!   per `(k, iv′)` ([`Dp::floor_bound`]), and a call with `(m_P′ + U) ·
//!   FLOOR_SLACK ≤ M` answers "fits" without filling: the answer the
//!   covering would give.
//!
//! Why a child the floor rejects has the value `∞`. Take a path from it
//! that passes every memory test and derive a contradiction:
//!
//! 1. *Group counts.* A transition sets `V ← value(index_up((V ⊕ u) ⊕
//!    C))`. [`ceil_div`](madpipe_model::util::ceil_div) snaps a ratio
//!    within `EPS/T̂` of an integer onto it, so `x ⊕ y ≥ x + y − EPS` up
//!    to rounding, and `C ≥ 0`;
//!    [`Axis::index_up`] loses at most its `10⁻⁹` relative guard and
//!    clamps at `V_top`. So `V_next ≥ min(V_top, V + u)·(1 − δ) − 2·EPS`
//!    (`δ = 10⁻⁹` plus a few ulps), and by induction a stage `[j, e)`
//!    taken after `m` transitions has `V + u ≥ min(V_top, V′ + U(j,
//!    k))·(1 − δ)^m − 2·EPS·m`. Each earlier stage holds a layer of `[e,
//!    k)`, so `m < k ≤ 65,535`: `(1 − δ)^m ≥ 1 − 6.56·10⁻⁵`, above
//!    `FLOOR_SLACK`, and `3·EPS·k` covers `2·EPS·m` and the rounding.
//!    `U(j, k) ≥ U(i, k)` for `j ≤ i` (recompute only adds load) and
//!    `ceil_div` is monotone in its numerator, so the stage's `g ≥ g_i`
//!    for each layer `i` it holds, `g ≥ g_a` for its first layer `a`.
//!    The `−3·EPS·k` does not depend on `i`, so `g_i` never grows with `i`
//!    and the interval tests are closed under sub-intervals on the store
//!    lane; the "lies inside" clause closes them on the recompute lane.
//! 2. *Costs.* A special stage adds `w·W + (g − 1)·live + static +
//!    buffers`: per layer, `(g − 1)·ā_i` when storing; when recomputing,
//!    `(g − 1)·a_in(j) + (ā_j − a_in(j))` for its first layer `j` and
//!    `ā_i` for the others. With `g ≥ g_i` and buffers `≥ 0`, each layer
//!    adds at least `c_i`. A normal stage `[a, b)` passes its test only if
//!    `[a, b)` fits by the interval test, since `g ≥ g_a`. So the path's
//!    at most `p′` normal stages are fitting intervals, and its special
//!    stages add at least `F` bytes in all.
//! 3. *Rounding of `m_P`.* A special step tests `m + c ≤ M` in `f64` and
//!    moves to `value(index_up(m + c)) ≥ (m + c)·(1 − δ)`. Over at most
//!    65,535 special steps, the last test sees at least `(m_P′ + F)·(1 −
//!    6.56·10⁻⁵)`, which is above `M` whenever the computed `(m_P′ + F) ·
//!    FLOOR_SLACK` is (its three roundings are ulps against a `3.4·10⁻⁵`
//!    margin). That test fails: the contradiction.
//!
//! So, like branch-and-bound, the floor removes states without changing
//! any value, choice, probe or plan: a rejected child's `∞` is what
//! solving it would return, and since the floor depends only on the
//! child's own coordinates, a rejected state is never memoized and the
//! check runs on memo misses only. The caps and the ceiling below still
//! hold: a path of finite value passes every floor on its way.
//!
//! # What a plan's probes share
//!
//! Algorithm 1 and the planner probe the DP at many target periods `T̂`
//! over the *same* chain and platform, and one plan is one
//! [`ProbeSession`]. The session owns what those probes can share:
//!
//! * the `t_P`/`m_P` axes, the per-cut communication times and the
//!   per-`(k, l)` stage cost/memory tables ([`StageTables`]), which do
//!   not depend on `T̂` at all;
//! * the **cap**: every distinct allocation the session's solves have
//!   produced, per DP variant. A new target's solve replays each of them
//!   through the recurrence at the new `T̂` ([`Dp::path_value`], with the
//!   very [`Dp::step`] that [`Dp::reconstruct`] uses), and the smallest
//!   replayed value `C` upper-bounds `MadPipe-DP(T̂)`, because the replay
//!   is one of the paths the DP minimizes over. The solve's ceiling
//!   (below) then starts at `C⁺ = C.next_up()` instead of `∞`, so
//!   branch-and-bound skips every subtree that cannot reach `C` from the
//!   first state on.
//!
//! The session keeps no outcomes: every target asked is solved, and a
//! target asked twice is solved twice, to the same answer, since a solve
//! is a pure function of (chain, platform, policy, `T̂`) and the cap
//! changes only its work.
//!
//! A root above `C` would mean a bug (see below); the session then
//! re-solves uncapped, counts a `dp.cap_misses`, and returns the uncapped
//! result, so exactness never rests on the cap alone. An uncapped solve is
//! the same code with `C = ∞`.
//!
//! Caps come only from allocations held before a batch, so a batch's
//! caps, states and counters are the same for every thread count.
//! `MadPipe-DP(T̂)` is *not* monotone in `T̂` (see `crate::algorithm1`),
//! so neither the value at a smaller target nor a larger infeasible
//! target bounds anything: the session keeps no such bound.
//!
//! [`ProbeSession::probe_many`] evaluates independent targets on
//! [`ordered_pool`]; results are absorbed in submission order, so the
//! session state (and therefore every downstream decision) is identical
//! whatever the thread count.
//!
//! The session also owns the buffers its solves fill: one [`Workspace`]
//! per worker of its widest batch, lent to the scoped workers and back.
//! Between two solves a workspace holds no value (a solve records every
//! entry it sets, and the next unsets them), so it need not die with its
//! session. A new session takes the workspaces its thread's last session
//! left ([`ProbeSession::new_with_policy`]) and leaves its own when it
//! drops, unless it drops while unwinding: a solve cut short may not
//! have recorded an entry. Whatever the next plan's chain length, GPU
//! count, grid or policy lanes, its tables start with every entry unset,
//! as freshly allocated ones would: no value carries over from one plan
//! to the next, only capacity. So a daemon worker, `experiments` and
//! `bench-plan-speed` allocate and zero-fill these tables once per
//! thread rather than once per plan (0.7 MB for ResNet-50 at P = 2, M =
//! 4 GB, 1.7 MB at P = 4, M = 3 GB). A thread keeps the largest
//! capacity its plans reached, which it held while planning anyway: on
//! the paper sweep, up to 8 MB for ResNet-50 at P = 8, 30 MB for
//! ResNet-101 and 62 MB for DenseNet-121 at P = 8, M = 3 GB, most of it
//! memo arena.
//!
//! # The falling ceiling
//!
//! Every state's incumbent starts at the solve's *ceiling* in force when
//! the state is solved ([`Dp::ceiling`]). The ceiling starts at `C⁺` and
//! only falls. The solver carries `prefix`, the largest step term on the
//! path from the root to the state it is solving. Whenever a candidate's
//! value `t` is known (a solved child, a memo hit or the `k = 0`
//! terminal), `max(prefix, t)` is the value of a complete path, so the
//! ceiling drops to its `next_up()` if that is lower ([`Dp::fall`]). Only
//! a candidate that improves its state's incumbent can lower it: the
//! incumbent is either the ceiling the state started from or an earlier
//! candidate's value, whose path already lowered the ceiling to at most
//! `max(prefix, incumbent)⁺`, so the solver asks only then. So a
//! solve without a cap, or whose held allocations no longer fit, prunes
//! against the best path found so far rather than `∞`: on the ResNet-50
//! P = 4, M = 3 GB plan the uncapped probes at `T̂` = 535 and 311 ms
//! create 537 and 968 states, against 3,319 and 3,678 with the ceiling
//! fixed at `∞`.
//!
//! Why the solve is exact, by induction over the memo (`v*` is a state's
//! exact value, the unpruned solve's answer, and `C_s` the ceiling when
//! state `s` is stored; states are stored children first, and the ceiling
//! only falls, so a child's `C` is at least its parent's):
//!
//! 1. a state with `v* < C_s` computes `v*` and makes the same choice as
//!    an unpruned solve: the first candidate in scan order to reach `v*`.
//!    Every candidate before it computes to more than `v*`: exactly its
//!    own value if its child falls under (1), otherwise at least the
//!    child's `C ≥ C_s` by (2). So until that candidate the incumbent is
//!    a ceiling or such a value, above `v*`, and no prune skips the
//!    candidate: every floor is a true lower bound (above), so it is `≤
//!    v* <` the incumbent. Its child has value `≤ v* < C_s ≤` the child's
//!    `C`, so it falls under (1) too;
//! 2. every other state computes to at least `C_s`: its incumbent starts
//!    at a ceiling `≥ C_s`, and every candidate value is at least the
//!    candidate's exact value `≥ v* ≥ C_s` or, by (2), a child's `C ≥
//!    C_s`.
//!
//! Every value the ceiling takes is attained: a candidate value `t` below
//! the ceiling has its child under (1) (a child under (2) would give `t ≥`
//! the child's `C ≥` the ceiling), so `t` is the value of a real path
//! from the state, and the steps that reached the state, each with its
//! memory test passed, complete it. The cap is a replayed path too. So the
//! root's `v*` is below the final ceiling and the root falls under (1):
//! its value, and every choice [`Dp::reconstruct`] follows from it, are
//! those of the unpruned solve. Every path found while a state is being
//! solved runs through it and its own candidate already reached that
//! path's value, so the ceiling never falls below the incumbent of a state
//! on the stack (a debug assertion checks this). On the 42-cell sweep of
//! each paper network the falling ceiling creates 25–36% fewer states than
//! a ceiling fixed at `C⁺`, with the same plans.

use std::cell::Cell;
use std::time::Instant;

use madpipe_model::util::{ceil_div_with, group_step_with, ordered_pool, EPS};
use madpipe_model::{
    ActivationPolicy, Allocation, Chain, Layer, Platform, PolicySpec, RecomputeMode, Stage,
    StagePolicy,
};
use madpipe_obs::Registry;

use crate::discrete::{Axis, Discretization};
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
    /// Number of distinct memoized states of the solve.
    pub states: usize,
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

/// The dense memo — see the module docs for the layout. A session's
/// [`Workspace`] keeps one across its solves; [`DenseMemo::shape`] clears
/// it for the next.
#[derive(Default)]
struct DenseMemo {
    l_len: usize,
    p_len: usize,
    t_len: usize,
    m_len: usize,
    v_len: usize,
    /// `rows[((l·p_len + p)·t_len + it)·m_len + im]` is the arena row id
    /// (+1; `0` = not yet touched) of that coordinate's `v`-row. Only the
    /// first `l_len·p_len·t_len·m_len` entries belong to the current
    /// shape; every entry is `0` between solves.
    rows: Vec<u32>,
    /// Bump arena backing every `v`-row: row id `r` occupies
    /// `arena[r·v_len .. (r+1)·v_len]`. One contiguous allocation in
    /// touch order instead of a boxed slice per row — the row table is
    /// half the size (u32 vs pointer) and successive rows share cache
    /// lines, which is where the solve loop spends its time.
    arena: Vec<MemoEntry>,
    /// `owners[r]` is the `rows` index that points at arena row `r`, so
    /// clearing unsets only the rows a solve touched.
    owners: Vec<usize>,
    /// Number of set entries across all rows.
    filled: usize,
}

impl DenseMemo {
    #[cfg(test)]
    fn new(l_len: usize, p_len: usize, t_len: usize, m_len: usize, v_len: usize) -> Self {
        let mut memo = Self::default();
        memo.shape(l_len, p_len, t_len, m_len, v_len);
        memo
    }

    /// Forget every entry and take the given axis lengths, keeping the
    /// allocations (the row table only grows).
    fn shape(&mut self, l_len: usize, p_len: usize, t_len: usize, m_len: usize, v_len: usize) {
        self.clear();
        (self.l_len, self.p_len, self.t_len, self.m_len, self.v_len) =
            (l_len, p_len, t_len, m_len, v_len);
        let n = l_len * p_len * t_len * m_len;
        if self.rows.len() < n {
            self.rows.resize(n, 0);
        }
    }

    /// The `v`-row at flat index `idx`, allocated from the arena on
    /// first access.
    #[inline]
    fn row_mut(&mut self, idx: usize) -> &mut [MemoEntry] {
        let mut r = self.rows[idx];
        if r == 0 {
            self.arena.resize(self.arena.len() + self.v_len, UNSET);
            self.owners.push(idx);
            r = self.owners.len() as u32;
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

    /// Forget every entry, keeping the allocations: unset the rows the
    /// arena backs and empty the arena.
    fn clear(&mut self) {
        for &idx in &self.owners {
            self.rows[idx] = 0;
        }
        self.owners.clear();
        self.arena.clear();
        self.filled = 0;
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

/// One solve's outcome and work counters, before the session absorbs
/// them.
struct Shard {
    use_special: bool,
    /// The cap the solve ran under (`None` when uncapped).
    cap: Option<f64>,
    /// The capped root came out above the cap and was re-solved uncapped.
    cap_missed: bool,
    memo_hits: u64,
    load_prunes: u64,
    memory_prunes: u64,
    branch_prunes: u64,
    memory_floor_prunes: u64,
    outcome: DpOutcome,
}

/// Shared DP state for one plan — see the module docs for what its
/// probes share and why it is sound.
pub struct ProbeSession<'a> {
    chain: &'a Chain,
    platform: &'a Platform,
    disc: Discretization,
    /// The solve-level policy configuration: weight versioning and the
    /// recompute stance every probe of this session solves under. The
    /// axes and stage tables depend on it.
    policy: PolicySpec,
    t_axis: Axis,
    m_axis: Axis,
    v_max: f64,
    /// `cut_times[k]` = round-trip communication time of the cut before
    /// layer `k` (`0` at the chain ends), shared by every probe.
    cut_times: Vec<f64>,
    /// Hoisted per-`(k, l)` stage costs, shared by every probe.
    tables: StageTables,
    /// Per `use_special` flag, each distinct feasible allocation the
    /// session's solves produced, in first-seen order: the paths a new
    /// solve's cap replays.
    held: [Vec<Allocation>; 2],
    /// The session's metrics: every counter behind [`DpStats`] plus the
    /// per-solve timing/state histograms. Bumped only on the absorbing
    /// (main) thread, so values are bit-identical across thread counts.
    registry: Registry,
    records: Vec<ProbeRecord>,
    /// The buffers every solve fills, one per worker of the widest batch
    /// so far: a solve borrows one and leaves it for the next. Taken from
    /// the thread's spares when the session starts, and returned when it
    /// drops.
    workspaces: Vec<Workspace>,
}

thread_local! {
    /// The workspaces of the last session this thread dropped, for its
    /// next one. Every entry of them is unset (see [`Workspace`]).
    static SPARE_WORKSPACES: Cell<Vec<Workspace>> = const { Cell::new(Vec::new()) };
}

impl Drop for ProbeSession<'_> {
    /// Hand the workspaces to the thread's next session. A session that
    /// unwinds drops them instead: a solve cut short by a panic may not
    /// have recorded every entry it set.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let workspaces = std::mem::take(&mut self.workspaces);
        // A thread tearing down its locals has no next session.
        let _ = SPARE_WORKSPACES.try_with(|spare| spare.set(workspaces));
    }
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
            held: [Vec::new(), Vec::new()],
            registry: Registry::new(),
            records: Vec::new(),
            workspaces: SPARE_WORKSPACES.with(Cell::take),
        }
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

    /// Solve the DP at several independent targets on up to `threads`
    /// workers, each under the cap of the allocations held before the
    /// batch. Outcomes keep the input order and the session ends up in
    /// the same state as `threads = 1` — the solves are pure functions of
    /// `(chain, platform, T̂)` and the allocations held before the batch,
    /// and are absorbed in submission order.
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
        let threads = threads.max(1).min(targets.len().max(1));
        let mut workspaces = std::mem::take(&mut self.workspaces);
        if workspaces.len() < threads {
            workspaces.resize_with(threads, Workspace::default);
        }
        let solved = ordered_pool(targets.len(), &mut workspaces[..threads], |ws, i| {
            let start = Instant::now();
            let shard = self.run_solve(targets[i], use_special, ws);
            (shard, start.elapsed().as_secs_f64())
        });
        self.workspaces = workspaces;
        targets
            .iter()
            .zip(solved)
            .map(|(&t_hat, (shard, seconds))| {
                debug_assert!(
                    shard.outcome.period.is_finite() || shard.outcome.allocation.is_none()
                );
                self.records.push(ProbeRecord {
                    source,
                    t_hat,
                    use_special,
                    period: shard.outcome.period,
                    states: shard.outcome.states,
                    cap: shard.cap,
                    seconds,
                });
                self.absorb(shard, seconds)
            })
            .collect()
    }

    /// One full DP solve at `t_hat` in `ws`, capped by the allocations
    /// the session held before this batch. Reads only the shared session
    /// state, so independent solves can run concurrently, each in its
    /// own workspace.
    fn run_solve(&self, t_hat: f64, use_special: bool, ws: &mut Workspace) -> Shard {
        let mut sp = madpipe_obs::span("dp.solve");
        let dp = self.dp(t_hat, use_special, ws);
        let cap = self.held[use_special as usize]
            .iter()
            .map(|alloc| dp.path_value(alloc))
            .fold(f64::INFINITY, f64::min);
        if let Some(sp) = sp.as_mut() {
            sp.arg("t_hat", t_hat);
            if cap.is_finite() {
                sp.arg("cap", cap);
            }
        }
        self.solve_under(dp, cap)
    }

    /// A solver at `t_hat` over the session's shared tables, filling
    /// `ws` (cleared and shaped for it here).
    fn dp<'w>(&'w self, t_hat: f64, use_special: bool, ws: &'w mut Workspace) -> Dp<'w> {
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
        // Under `Auto` the transition caches carry one lane per
        // activation choice (the effective stage load differs); fixed
        // modes collapse to a single lane.
        let n_pol = match self.policy.recompute {
            RecomputeMode::Auto => 2,
            _ => 1,
        };
        let l_len = self.chain.len() + 1;
        let v_len = self.disc.v_points;
        ws.shape(
            [l_len, p_normal + 1, t_len, m_len, v_len],
            l_len * self.tables.stride * n_pol,
        );
        let v_axis = Axis::new(self.v_max.max(t_hat), v_len);
        let tol = EPS / t_hat;
        ws.v_groups.clear();
        ws.v_groups
            .extend((0..v_len as u16).map(|iv| ceil_div_with(v_axis.value(iv), t_hat, tol)));
        Dp {
            platform: self.platform,
            t_hat,
            tol,
            use_special,
            root: State {
                l: self.chain.len(),
                p: p_normal,
                it: 0,
                im: 0,
                iv: 0,
            },
            ceiling: f64::INFINITY,
            policy: self.policy,
            w_mult: self.policy.weights.multiplier(),
            n_pol,
            t_axis: &self.t_axis,
            t_top: self.t_axis.value((self.t_axis.len() - 1) as u16),
            m_axis: &self.m_axis,
            v_top: v_axis.value((v_len - 1) as u16),
            v_axis,
            cut_times: &self.cut_times,
            tables: &self.tables,
            ws,
            memo_hits: 0,
            load_prunes: 0,
            memory_prunes: 0,
            branch_prunes: 0,
            memory_floor_prunes: 0,
        }
    }

    /// Solve `dp` under `cap` (`∞` for an uncapped solve) and reconstruct
    /// its allocation. A root above a finite cap is a fault: the target
    /// is re-solved uncapped and the shard says so.
    fn solve_under(&self, mut dp: Dp<'_>, cap: f64) -> Shard {
        let mut period = dp.solve_root(cap);
        let cap_missed = period > cap;
        if cap_missed {
            period = dp.solve_root(f64::INFINITY);
        }
        let allocation = if period.is_finite() {
            dp.reconstruct()
        } else {
            None
        };
        let states = dp.ws.memo.len();
        Shard {
            use_special: dp.use_special,
            cap: cap.is_finite().then_some(cap),
            cap_missed,
            memo_hits: dp.memo_hits,
            load_prunes: dp.load_prunes,
            memory_prunes: dp.memory_prunes,
            branch_prunes: dp.branch_prunes,
            memory_floor_prunes: dp.memory_floor_prunes,
            outcome: DpOutcome {
                period,
                allocation,
                states,
            },
        }
    }

    /// Fold a solve that took `seconds` into the session (counters,
    /// histograms, held allocations) and hand back its outcome.
    fn absorb(&mut self, shard: Shard, seconds: f64) -> DpOutcome {
        let states = shard.outcome.states;
        self.registry.inc(counters::DP_SOLVES);
        self.registry
            .add(counters::DP_STATES_CREATED, states as u64);
        self.registry.add(counters::DP_MEMO_HITS, shard.memo_hits);
        self.registry
            .add(counters::DP_LOAD_PRUNES, shard.load_prunes);
        self.registry
            .add(counters::DP_MEMORY_PRUNES, shard.memory_prunes);
        self.registry
            .add(counters::DP_BRANCH_PRUNES, shard.branch_prunes);
        self.registry
            .add(counters::DP_MEMORY_FLOOR_PRUNES, shard.memory_floor_prunes);
        self.registry
            .add(counters::DP_CAPPED, shard.cap.is_some() as u64);
        self.registry
            .add(counters::DP_CAP_MISSES, shard.cap_missed as u64);
        self.registry.observe(counters::DP_SOLVE_SECONDS, seconds);
        self.registry
            .observe(counters::DP_SOLVE_STATES, states as f64);
        if let Some(alloc) = &shard.outcome.allocation {
            let held = &mut self.held[shard.use_special as usize];
            if !held.contains(alloc) {
                held.push(alloc.clone());
            }
        }
        shard.outcome
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

/// The buffers a solve fills lazily: the memo, both transition caches
/// and the memory floor's tables. A session keeps one per worker and
/// hands it to each solve, and leaves them to its thread's next session,
/// so only a thread's first solves allocate. Every lazily filled entry
/// is recorded as it is set, and [`Workspace::shape`] unsets exactly
/// those, whatever shape the next solve takes: a solve that touches a few
/// hundred transitions does not pay for refilling a whole table.
#[derive(Default)]
struct Workspace {
    memo: DenseMemo,
    /// [`Dp::transition`]'s cache; an entry with `g = 0` is unset.
    trans: Vec<TransEntry>,
    /// [`Dp::transition_t`]'s cache; `u16::MAX` is unset.
    trans_t: Vec<u16>,
    /// The `trans` and `trans_t` slots this solve set.
    trans_set: Vec<usize>,
    trans_t_set: Vec<usize>,
    /// The memory floor per child `(k, iv)`, one entry per `p′`:
    /// `floors[(k·v_len + iv)·p_len + p′]`, valid where
    /// `floor_ready[k·v_len + iv]` is [`FLOOR_FILLED`].
    floors: Vec<u64>,
    /// Per child `(k, iv)`, an upper bound on every `p′`'s floor
    /// ([`Dp::floor_bound`]), valid where `floor_ready` is not
    /// [`FLOOR_UNSEEN`] and the floors are not filled.
    floor_bounds: Vec<u64>,
    floor_ready: Vec<u8>,
    /// The `floor_ready` slots this solve set.
    floor_set: Vec<usize>,
    /// Scratch of [`Dp::fill_floor`]: per remaining layer its group
    /// count and special cost, the first start of each window, and the
    /// covering's two rolling rows.
    groups: Vec<u64>,
    costs: Vec<u64>,
    window: Vec<usize>,
    cover: [Vec<u64>; 2],
    /// `⌈V/T̂⌉` per `V` grid index, filled per solve.
    v_groups: Vec<u64>,
}

impl Workspace {
    /// Unset what the last solve filled and size the tables for a solve
    /// over the memo axis lengths `[l, p, t, m, v]`, whose transition
    /// tables have `rows` rows of `v_len` (and `t_len`) slots.
    fn shape(&mut self, [l_len, p_len, t_len, m_len, v_len]: [usize; 5], rows: usize) {
        self.memo.shape(l_len, p_len, t_len, m_len, v_len);
        for &i in &self.trans_set {
            self.trans[i].g = 0;
        }
        for &i in &self.trans_t_set {
            self.trans_t[i] = u16::MAX;
        }
        for &i in &self.floor_set {
            self.floor_ready[i] = FLOOR_UNSEEN;
        }
        self.trans_set.clear();
        self.trans_t_set.clear();
        self.floor_set.clear();
        grow(
            &mut self.trans,
            rows * v_len,
            TransEntry { g: 0, iv_next: 0 },
        );
        grow(&mut self.trans_t, rows * t_len, u16::MAX);
        grow(&mut self.floor_ready, l_len * v_len, FLOOR_UNSEEN);
        grow(&mut self.floor_bounds, l_len * v_len, 0);
        grow(&mut self.floors, l_len * v_len * p_len, 0);
    }
}

/// [`Workspace::floor_ready`] states of a child `(k, iv)`: nothing known,
/// only its bound known, or its floors filled.
const FLOOR_UNSEEN: u8 = 0;
const FLOOR_BOUNDED: u8 = 1;
const FLOOR_FILLED: u8 = 2;

/// Extend `v` with `fill` to at least `len` entries.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// Const-generic recompute modes for [`Dp::solve_mode`] — one
/// monomorphized solver body per session stance.
const MODE_NEVER: u8 = 0;
const MODE_ALWAYS: u8 = 1;
const MODE_AUTO: u8 = 2;

/// Relative slack of the two subtree-bound terms that sum loads the
/// special processor may have rounded down; the module docs
/// ("Branch-and-bound pruning") prove it covers 65,535 special steps.
const FLOOR_SLACK: f64 = 1.0 - 1e-4;

/// One stage's step of the delay coordinate at `T̂ = t_hat`: from delay
/// `v`, with `gv = ⌈v/T̂⌉`, through a stage of effective load `u` and its
/// boundary cut `cut`, the stage's group count `g = max(1, ⌈(v+u)/T̂⌉)`
/// and the next delay `(v ⊕ u) ⊕ cut`. `tol` is `EPS / T̂`.
///
/// Bit for bit `ceil_div(v + u, T̂).max(1)` and `group_step(group_step(v,
/// u, T̂), cut, T̂)`, with fewer divisions: `⌈(v+u)/T̂⌉` is computed once
/// and reused by the first `⊕`, and `⌈v/T̂⌉` comes from the caller's
/// per-solve table.
#[inline]
fn delay_step(v: f64, gv: u64, u: f64, cut: f64, t_hat: f64, tol: f64) -> (u64, f64) {
    let vu = v + u;
    let gvu = ceil_div_with(vu, t_hat, tol);
    let v_u = if u == 0.0 {
        v
    } else if gv == gvu {
        vu
    } else {
        t_hat * gv as f64 + u
    };
    (gvu.max(1), group_step_with(v_u, cut, t_hat, tol))
}

/// A DP state's grid coordinates: `l` layers left, `p` normal GPUs left,
/// and the `t_P`, `m_P` and `V` grid indices.
#[derive(Debug, Clone, Copy)]
struct State {
    l: usize,
    p: usize,
    it: u16,
    im: u16,
    iv: u16,
}

struct Dp<'a> {
    platform: &'a Platform,
    t_hat: f64,
    /// `EPS / T̂`: [`ceil_div_with`]'s tolerance at this solve's `T̂`.
    tol: f64,
    use_special: bool,
    /// `(L, p_normal, 0, 0, 0)`: the whole chain, nothing placed yet.
    root: State,
    /// Every state's starting incumbent: just above the smallest value
    /// of a complete path found so far, or of the cap `C` (`∞` when
    /// neither exists). It starts at `C.next_up()` and only falls (see
    /// the module docs, "Cross-probe reuse" and "The falling ceiling").
    ceiling: f64,
    /// The session's solve-level policy configuration.
    policy: PolicySpec,
    /// Weight bytes multiplier (`3` full versioning, `2` 2BW) applied to
    /// the single-copy weight table.
    w_mult: u64,
    /// Transition-cache lanes: 2 under `Auto` (store/recompute differ in
    /// effective load), 1 under the fixed modes.
    n_pol: usize,
    t_axis: &'a Axis,
    /// The `t_P` axis's last grid value, where a rounded load clamps.
    t_top: f64,
    m_axis: &'a Axis,
    v_axis: Axis,
    cut_times: &'a [f64],
    tables: &'a StageTables,
    /// The `V` axis's last grid value, where a rounded delay clamps.
    v_top: f64,
    /// The memo, the transition caches and the floor tables. The
    /// transition caches hold per-`(l, k)` rows (same `l * stride + k`
    /// indexing as the stage tables) of per-`iv` terms, filled lazily:
    /// the group count and the ⊕-chain depend only on the layer range
    /// and the delay coordinate, so every `(p, t_P, m_P)` state sharing
    /// them reuses one computation instead of redoing four `ceil_div`s
    /// and a grid round-up per candidate. The special branch's `t_P`
    /// round-up is cached the same way per `(l, k, it)`.
    ws: &'a mut Workspace,
    memo_hits: u64,
    load_prunes: u64,
    memory_prunes: u64,
    branch_prunes: u64,
    memory_floor_prunes: u64,
}

impl Dp<'_> {
    /// Optimistic lower bound on `solve(k, p, ·)` when the special
    /// processor's accumulated (grid-rounded) load is `t_acc` — the
    /// 1F1B* load argument: the remaining compute `U(0, k)` plus the
    /// already-accumulated special load must be carried by at most
    /// `p` normal processors and the special one, no stage can beat its
    /// largest layer, and the special load never decreases. The first
    /// two terms carry [`FLOOR_SLACK`] (and the spread stops at the
    /// `t_P` axis maximum) for the special load's round-downs, which
    /// makes the bound a true lower bound (proof in the module docs), so
    /// branch-and-bound on it never changes any DP value.
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
        (spread * FLOOR_SLACK)
            .min(self.t_top)
            .max(self.tables.max_layer_prefix[k] * FLOOR_SLACK)
            .max(t_acc)
    }

    /// Solve from the root with the ceiling starting at `cap.next_up()`
    /// (`∞` when `cap` is), on a cleared memo. The transition caches do
    /// not depend on the cap and are kept.
    fn solve_root(&mut self, cap: f64) -> f64 {
        self.ws.memo.clear();
        self.ceiling = cap.next_up();
        let State { l, p, it, im, iv } = self.root;
        self.solve_uncached(l, p, it, im, iv, 0.0)
    }

    /// A candidate improved its state's incumbent to `t`, and `prefix` is
    /// the largest step term on the way to that state: `max(prefix, t)`
    /// is the value of a complete path, so the ceiling falls to just
    /// above it if that is lower. A candidate that does not improve the
    /// incumbent completes no lower path than the state's own incumbent
    /// or ceiling already did, so it need not call this.
    #[inline]
    fn fall(&mut self, prefix: f64, t: f64) {
        let path = prefix.max(t);
        if path < self.ceiling {
            self.ceiling = path.next_up();
        }
    }

    /// Take stage `[k, s.l)` from state `s` exactly as the solver does:
    /// the stage's effective load `u` (with its recompute flag),
    /// `g = ⌈(V+u)/T̂⌉` and the ⊕ round-up of `V`, then the memory test
    /// of the processor it goes to. A normal stage needs
    /// `w·W + g·live + static + buffers ≤ M` and uses up one of the `p`
    /// normal GPUs; a special one tests the rounded-up `m_P` and rounds
    /// `t_P` and `m_P` up. Returns the step's own period term (`max(u,
    /// cut)` on a normal GPU, `max(t_P', cut)` on the special one) and
    /// the next state, or `None` when the memory test fails.
    fn step(&self, s: State, k: usize, special: bool, rec: bool) -> Option<(f64, State)> {
        let i = s.l * self.tables.stride + k;
        let mut u = self.tables.u[i];
        if rec {
            u += self.tables.fwd[i];
        }
        let cut = self.cut_times[k];
        let (g, iv) = self.advance(s.iv, u, cut);
        let stored = self.tables.stored[i];
        let a_in = self.tables.a_in[k];
        let (live, static_extra) = if rec {
            (a_in, stored - a_in)
        } else {
            (stored, 0)
        };
        let weights = self.w_mult * self.tables.weights[i];
        let buffers = self.tables.buffers[i];
        let memory = self.platform.memory_bytes;
        if special {
            let m_next = self.m_axis.value(s.im)
                + (weights + (g - 1) * live + static_extra + buffers) as f64;
            if !self.use_special || self.m_axis.overflows(m_next) || m_next > memory as f64 {
                return None;
            }
            let it = self.t_axis.index_up(self.t_axis.value(s.it) + u);
            let im = self.m_axis.index_up(m_next);
            let next = State {
                l: k,
                it,
                im,
                iv,
                ..s
            };
            Some((self.t_axis.value(it).max(cut), next))
        } else {
            if s.p == 0 || weights + g * live + static_extra + buffers > memory {
                return None;
            }
            let next = State {
                l: k,
                p: s.p - 1,
                iv,
                ..s
            };
            Some((u.max(cut), next))
        }
    }

    /// The value this solve's recurrence gives `alloc`'s path at `T̂`:
    /// the max of every [`Self::step`]'s term and the final `t_P`, or `∞`
    /// when a step's memory test fails. The DP minimizes over this path
    /// among others, so `MadPipe-DP(T̂)` is at most this value.
    fn path_value(&self, alloc: &Allocation) -> f64 {
        let mut s = self.root;
        let mut value = 0.0f64;
        for stage in alloc.stages().iter().rev() {
            debug_assert_eq!(stage.layers.end, s.l, "stages tile the chain");
            let special = self.use_special && stage.gpu == 0;
            let rec = stage.policy.recomputes();
            match self.step(s, stage.layers.start, special, rec) {
                Some((term, next)) => {
                    value = value.max(term);
                    s = next;
                }
                None => return f64::INFINITY,
            }
        }
        value.max(self.t_axis.value(s.it))
    }

    /// `(g, iv_next)` for extending the plan with stage `k..l` from delay
    /// coordinate `iv` under policy lane `pol`, computed once per
    /// distinct `(l, k, iv, pol)` and then served from the cache.
    /// `idx` is the caller-computed flat cache slot
    /// `((l·stride + k)·v_len + iv)·n_pol + pol`; `u` and `cut` are
    /// pure functions of those coordinates (`u` is the
    /// policy's *effective* load), so caching is bit-transparent.
    #[inline]
    fn transition(&mut self, idx: usize, iv: u16, u: f64, cut: f64) -> (u64, u16) {
        let cached = self.ws.trans[idx];
        if cached.g != 0 {
            return (cached.g, cached.iv_next);
        }
        let (g, iv_next) = self.advance(iv, u, cut);
        self.ws.trans[idx] = TransEntry { g, iv_next };
        self.ws.trans_set.push(idx);
        (g, iv_next)
    }

    /// `(g, iv_next)` of a stage of effective load `u` and cut `cut`
    /// taken at delay coordinate `iv`: [`delay_step`] at this solve's
    /// `T̂`, then the grid round-up. [`Self::step`] and
    /// [`Self::transition`] both take it, because the cap proof needs
    /// them to be the same arithmetic.
    #[inline]
    fn advance(&self, iv: u16, u: f64, cut: f64) -> (u64, u16) {
        let v = self.v_axis.value(iv);
        let gv = self.ws.v_groups[iv as usize];
        let (g, v_next) = delay_step(v, gv, u, cut, self.t_hat, self.tol);
        (g, self.v_axis.index_up(v_next))
    }

    /// Rounded-up special-processor load index after taking stage `k..l`
    /// from load coordinate `it` under policy lane `pol`, cached per
    /// `(l, k, it, pol)` — `idx` is the caller-computed flat slot over
    /// those coordinates.
    #[inline]
    fn transition_t(&mut self, idx: usize, t_val: f64, u: f64) -> u16 {
        let cached = self.ws.trans_t[idx];
        if cached != u16::MAX {
            return cached;
        }
        let it_next = self.t_axis.index_up(t_val + u);
        self.ws.trans_t[idx] = it_next;
        self.ws.trans_t_set.push(idx);
        it_next
    }

    /// Whether the state `(k, p, ·, im, iv)` cannot be completed: the
    /// special GPU, already holding `m_P = value(im)`, would need more
    /// than `M` to take whatever `p` normal GPUs cannot of layers
    /// `[0, k)`. The floor is a true lower bound (module docs, "Memory
    /// floor"), so a state it rejects has the value `∞`. `k > 0`.
    ///
    /// The floors are filled only for an `m_P` that [`Self::floor_bound`]
    /// leaves open: when even the bound fits beside `m_P`, no floor of
    /// that `(k, iv)` exceeds `M` and the answer is `false` unfilled.
    #[inline]
    fn floor_exceeds(&mut self, k: usize, p: usize, im: u16, iv: u16) -> bool {
        if !self.use_special {
            return false;
        }
        let slot = k * self.v_axis.len() + iv as usize;
        let m_p = self.m_axis.value(im);
        let memory = self.platform.memory_bytes as f64;
        let ready = self.ws.floor_ready[slot];
        if ready != FLOOR_FILLED {
            if ready == FLOOR_UNSEEN {
                self.ws.floor_bounds[slot] = self.floor_bound(k, iv);
                self.ws.floor_ready[slot] = FLOOR_BOUNDED;
                self.ws.floor_set.push(slot);
            }
            if (m_p + self.ws.floor_bounds[slot] as f64) * FLOOR_SLACK <= memory {
                return false;
            }
            self.fill_floor(k, iv);
        }
        let floor = self.ws.floors[slot * (self.root.p + 1) + p];
        floor > 0 && (m_p + floor as f64) * FLOOR_SLACK > memory
    }

    /// The memory floor of the child `(k, p, ·, ·, iv)`, filled on first
    /// use for every `p` of that `(k, iv)`.
    #[cfg(test)]
    fn floor(&mut self, k: usize, p: usize, iv: u16) -> u64 {
        let slot = k * self.v_axis.len() + iv as usize;
        if self.ws.floor_ready[slot] != FLOOR_FILLED {
            self.fill_floor(k, iv);
        }
        self.ws.floors[slot * (self.root.p + 1) + p]
    }

    /// An upper bound on every `p′`'s floor at child `(k, iv)`: no
    /// covering costs more than leaving every layer of `[0, k)` uncovered,
    /// and each layer's cost `c_i` is at most `w·W_i + (g₀ − 1)·ā_i` on
    /// the store lane (`g_i ≤ g₀`, layer 0's group count, the largest)
    /// and `w·W_i + ā_i` on the recompute lane. So the bound is `w·W(0,
    /// k) + (g₀ − 1)·ā(0, k)` under `Never`, and `w·W(0, k) + ā(0, k)`
    /// when a recompute lane is offered.
    fn floor_bound(&self, k: usize, iv: u16) -> u64 {
        let whole = k * self.tables.stride;
        let weights = self.w_mult * self.tables.weights[whole];
        let stored = self.tables.stored[whole];
        if self.policy.recompute == RecomputeMode::Never {
            let g0 = self.floor_group(k, self.v_axis.value(iv), 0);
            weights.saturating_add((g0 - 1).saturating_mul(stored))
        } else {
            weights + stored
        }
    }

    /// `g_i` of the floor at child `(k, ·)` whose delay is `v_child`: a
    /// lower bound on the group count of any stage holding layer `i`.
    /// `3·EPS·k` is what ⊕ may lose over fewer than `k` transitions.
    #[inline]
    fn floor_group(&self, k: usize, v_child: f64, i: usize) -> u64 {
        let loss = 3.0 * EPS * k as f64;
        let u = self.tables.u[k * self.tables.stride + i];
        let lb = (v_child + u).min(self.v_top) * FLOOR_SLACK - loss;
        ceil_div_with(lb, self.t_hat, self.tol).max(1)
    }

    /// Fill the floors of every `p′` at child `(k, iv)`: the least
    /// special-GPU memory over the coverings of layers `[0, k)` by at
    /// most `p′` intervals that fit on a normal GPU, each layer left
    /// uncovered costing the least it can cost on the special one.
    fn fill_floor(&mut self, k: usize, iv: u16) {
        let tables = self.tables;
        let stride = tables.stride;
        let memory = self.platform.memory_bytes;
        let (store, rec) = (
            self.policy.recompute != RecomputeMode::Always,
            self.policy.recompute != RecomputeMode::Never,
        );
        let w_mult = self.w_mult;
        let v_child = self.v_axis.value(iv);
        self.ws.groups.clear();
        self.ws.costs.clear();
        for i in 0..k {
            let g = self.floor_group(k, v_child, i);
            let one = (i + 1) * stride + i;
            let weights = w_mult * tables.weights[one];
            let stored = tables.stored[one];
            let a_in = tables.a_in[i];
            let store_cost = weights.saturating_add((g - 1).saturating_mul(stored));
            let rec_cost = weights + (stored - a_in) + (g - 1).min(1) * a_in;
            self.ws.groups.push(g);
            self.ws.costs.push(match (store, rec) {
                (true, false) => store_cost,
                (false, true) => rec_cost,
                _ => store_cost.min(rec_cost),
            });
        }
        let ws = &mut *self.ws;
        // `window[b]`: the least `a < b` such that `[a, b)` lies inside
        // an interval that fits on a normal GPU (`usize::MAX` if none).
        // For a fixed start the fit is monotone in the end, so one
        // forward pointer over the furthest reachable end finds them all.
        let fits = |groups: &[u64], a: usize, b: usize| {
            let weights = w_mult * tables.weights[b * stride + a];
            let stored = tables.stored[b * stride + a];
            let g = groups[a];
            (store && weights.saturating_add(g.saturating_mul(stored)) <= memory)
                || (rec
                    && (weights + stored).saturating_add((g - 1).saturating_mul(tables.a_in[a]))
                        <= memory)
        };
        ws.window.clear();
        ws.window.resize(k + 1, usize::MAX);
        let mut reach = 0;
        for a in 0..k {
            reach = reach.max(a);
            while reach < k && fits(&ws.groups, a, reach + 1) {
                reach += 1;
                ws.window[reach] = a;
            }
        }
        // The covering with at most `p′` intervals, one `p′` per pass.
        // Its cost never falls as the prefix grows, so the cheapest start
        // of a window is its first.
        let p_len = self.root.p + 1;
        let row = (k * self.v_axis.len() + iv as usize) * p_len;
        let [prev, next] = &mut ws.cover;
        prev.clear();
        prev.push(0);
        for b in 0..k {
            let last = prev[b];
            prev.push(last.saturating_add(ws.costs[b]));
        }
        ws.floors[row] = prev[k];
        for p in 1..p_len {
            next.clear();
            next.push(0);
            for b in 1..=k {
                let mut best = next[b - 1].saturating_add(ws.costs[b - 1]);
                if let Some(&start) = prev.get(ws.window[b]) {
                    best = best.min(start);
                }
                next.push(best);
            }
            ws.floors[row + p] = next[k];
            if next[k] == 0 {
                // Every wider covering is free too.
                ws.floors[row + p..row + p_len].fill(0);
                break;
            }
            std::mem::swap(prev, next);
        }
        let slot = k * self.v_axis.len() + iv as usize;
        if ws.floor_ready[slot] == FLOOR_UNSEEN {
            ws.floor_set.push(slot);
        }
        ws.floor_ready[slot] = FLOOR_FILLED;
    }

    /// Child-state value: memo probe inlined ahead of the recursion so
    /// the (majority) hit path skips the full `solve_uncached` body and
    /// misses probe the memo exactly once. A miss the memory floor
    /// rejects is `∞` without being solved or stored (a rejected state is
    /// never stored, so a hit needs no floor). `prefix` is the largest
    /// step term on the way to the child.
    #[inline]
    fn child(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16, prefix: f64) -> f64 {
        if let Some(v) = self.ws.memo.get_value(l, p, it, im, iv) {
            self.memo_hits += 1;
            return v;
        }
        if self.floor_exceeds(l, p, im, iv) {
            self.memory_floor_prunes += 1;
            return f64::INFINITY;
        }
        self.solve_uncached(l, p, it, im, iv, prefix)
    }

    /// Evaluate a state known to be absent from the memo. One-time
    /// dispatch into the mode-monomorphized body: the recompute stance
    /// is fixed for a whole session, so baking it in as a const lets
    /// the compiler delete the policy lane loop, the recompute memory
    /// terms, and the `fwd`/`a_in` table loads from the `Never` (paper
    /// default) scan — keeping the default hot path's instruction
    /// stream and cache footprint identical to the pre-policy planner.
    fn solve_uncached(
        &mut self,
        l: usize,
        p: usize,
        it: u16,
        im: u16,
        iv: u16,
        prefix: f64,
    ) -> f64 {
        match self.policy.recompute {
            RecomputeMode::Never => self.solve_mode::<MODE_NEVER>(l, p, it, im, iv, prefix),
            RecomputeMode::Always => self.solve_mode::<MODE_ALWAYS>(l, p, it, im, iv, prefix),
            RecomputeMode::Auto => self.solve_mode::<MODE_AUTO>(l, p, it, im, iv, prefix),
        }
    }

    /// [`Self::solve_uncached`] body, monomorphized per recompute mode.
    /// `prefix` is the largest step term on the path that reached the
    /// state: every candidate's value completes a path, which may lower
    /// the ceiling ([`Self::fall`]).
    fn solve_mode<const MODE: u8>(
        &mut self,
        l: usize,
        p: usize,
        it: u16,
        im: u16,
        iv: u16,
        prefix: f64,
    ) -> f64 {
        if l == 0 {
            let v = self.t_axis.value(it);
            self.ws.memo.insert(l, p, it, im, iv, v, Choice::Done);
            return v;
        }

        let t_val = self.t_axis.value(it);
        let m_val = self.m_axis.value(im);
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
        let t_top = self.t_top;

        let mut best = self.ceiling;
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
                let (g, iv_next) = self.transition(idx, iv, u, cut);

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
                        ((u_prefix[k] + t_val) / bins_n * FLOOR_SLACK)
                            .min(t_top)
                            .max(max_layer_prefix[k] * FLOOR_SLACK)
                            .max(t_val)
                    };
                    debug_assert_eq!(
                        bound.to_bits(),
                        self.subtree_bound(k, p - 1, t_val).to_bits()
                    );
                    let floor = u.max(cut).max(bound);
                    if floor >= best {
                        self.branch_prunes += 1;
                    } else {
                        // `k == 0` is the terminal state: its value is
                        // exactly the rounded special load `t_val`, no
                        // recursion or memo traffic needed.
                        let term = u.max(cut);
                        let sub = if k == 0 {
                            t_val
                        } else {
                            self.child(k, p - 1, it, im, iv_next, prefix.max(term))
                        };
                        let t_n = term.max(sub);
                        if t_n < best {
                            best = t_n;
                            choice = Choice::Normal {
                                k: k as u16,
                                recompute: rec,
                            };
                            self.fall(prefix, t_n);
                        }
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
                        ((u_prefix[k] + t_next_val) / bins_s * FLOOR_SLACK)
                            .min(t_top)
                            .max(max_layer_prefix[k] * FLOOR_SLACK)
                            .max(t_next_val)
                    };
                    debug_assert_eq!(
                        bound.to_bits(),
                        self.subtree_bound(k, p, t_next_val).to_bits()
                    );
                    let floor = t_next_val.max(cut).max(bound);
                    if floor >= best {
                        self.branch_prunes += 1;
                    } else {
                        let term = t_next_val.max(cut);
                        let sub = if k == 0 {
                            t_next_val
                        } else {
                            self.child(k, p, it_next, im_next, iv_next, prefix.max(term))
                        };
                        let t_s = term.max(sub);
                        if t_s < best {
                            best = t_s;
                            choice = Choice::Special {
                                k: k as u16,
                                recompute: rec,
                            };
                            self.fall(prefix, t_s);
                        }
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

        // The ceiling fell only through paths found below this state,
        // which run through it: its own incumbent reached each of them.
        debug_assert!(best <= self.ceiling);
        self.ws.memo.insert(l, p, it, im, iv, best, choice);
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

    /// Walk the memoized choices from the root with [`Self::step`] and
    /// emit the allocation, each stage carrying the policy of its
    /// recompute bit.
    fn reconstruct(&self) -> Option<Allocation> {
        let n_gpus = self.platform.n_gpus;
        let mut stages_rev: Vec<Stage> = Vec::new();
        let mut s = self.root;
        let mut next_normal_gpu = n_gpus - 1; // count down; GPU 0 is special
                                              // Terminal: the solve loop computes `k == 0` children directly,
                                              // so the memo holds no `l == 0` states.
        while s.l > 0 {
            let (_, choice) = self.ws.memo.get(s.l, s.p, s.it, s.im, s.iv)?;
            let (k, special, recompute) = match choice {
                Choice::Infeasible => return None,
                Choice::Done => break,
                Choice::Normal { k, recompute } => (k as usize, false, recompute),
                Choice::Special { k, recompute } => (k as usize, true, recompute),
            };
            let gpu = if special {
                0
            } else {
                let gpu = next_normal_gpu;
                next_normal_gpu = next_normal_gpu.saturating_sub(1);
                gpu
            };
            stages_rev.push(Stage {
                layers: k..s.l,
                gpu,
                policy: self.stage_policy(recompute),
            });
            s = self.step(s, k, special, recompute)?.1;
        }
        stages_rev.reverse();
        Allocation::new(stages_rev, self.root.l, n_gpus).ok()
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
    use madpipe_model::util::{ceil_div, group_step};
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
            // Later probes run under the cap of the allocations held so
            // far, so they may create fewer states, never more.
            assert!(probed.states <= one_shot.states, "T̂ = {t_hat}");
            assert_eq!(
                probed.allocation.map(|a| a.stages().to_vec()),
                one_shot.allocation.map(|a| a.stages().to_vec())
            );
        }
    }

    #[test]
    fn a_revisited_target_is_solved_again_to_the_same_answer() {
        let c = chain(&[(1.0, 1.0); 6], 1 << 10, 1 << 8);
        let platform = Platform::new(3, 1 << 26, 1e7).unwrap();
        let mut session = ProbeSession::new(&c, &platform, &disc());
        let a = session.probe(4.0, true, ProbeSource::Bisection);
        let b = session.probe(4.0, true, ProbeSource::Refinement);
        assert_eq!(session.stats().solves, 2, "every probe is a solve");
        assert_eq!(a.period.to_bits(), b.period.to_bits());
        assert_eq!(a.allocation, b.allocation);
        // The second solve runs under the cap of the first one's
        // allocation, which replays to its own optimum.
        assert_eq!(session.stats().capped, 1);
        assert_eq!(session.records()[1].cap, Some(a.period));
        assert!(b.states <= a.states);
        // The two DP variants hold their allocations apart: the
        // contiguous variant's first solve is uncapped.
        session.probe(4.0, false, ProbeSource::ContiguousFallback);
        assert_eq!(session.records()[2].cap, None);
    }

    /// The seed-239 instance: 14 random layers on 5 GPUs with 1 GiB each.
    fn seed_239() -> (Chain, Platform) {
        let cfg = madpipe_dnn::RandomChainConfig {
            layers: 14,
            forward_range: (0.5e-3, 5e-3),
            weight_range: (1 << 16, 1 << 24),
            activation_range: (1 << 20, 256 << 20),
            cnn_profile: false,
        };
        let chain = madpipe_dnn::random_chain(&cfg, 239);
        let platform = Platform::new(5, 1 << 30, 12.0 * (1u64 << 30) as f64).unwrap();
        (chain, platform)
    }

    #[test]
    fn an_infeasible_larger_target_does_not_answer_a_smaller_one() {
        // DP feasibility is not monotone in T̂: here T̂₅₈ is infeasible and
        // the smaller T̂₅₆ is feasible. A session that has solved T̂₅₈ must
        // still solve T̂₅₆, and agree with a fresh solve bit for bit.
        let (c, platform) = seed_239();
        let target = |i: u32| c.total_compute_time() / 5.0 * (1.0 + 0.05 * i as f64);
        let (t56, t58) = (target(56), target(58));
        assert_eq!(t56, 0.09916638661947808);
        assert_eq!(t58, 0.10177602837262223);
        let mut session = ProbeSession::new(&c, &platform, &disc());
        assert!(session
            .probe(t58, true, ProbeSource::Bisection)
            .period
            .is_infinite());
        let probed = session.probe(t56, true, ProbeSource::Bisection);
        assert_eq!(probed.period, 0.0553822989450276);
        let fresh = madpipe_dp(&c, &platform, t56, &disc());
        assert_eq!(probed.period.to_bits(), fresh.period.to_bits());
        assert_eq!(probed.allocation, fresh.allocation);
        assert_eq!(session.stats().solves, 2);
    }

    #[test]
    fn a_cap_below_the_exact_value_is_caught_and_re_solved() {
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
            1 << 18,
            1 << 10,
        );
        let platform = Platform::new(3, 3 << 20, 1e8).unwrap();
        let exact = madpipe_dp(&c, &platform, 5.0, &disc());
        assert!(exact.period.is_finite());
        let mut session = ProbeSession::new(&c, &platform, &disc());
        let cap = exact.period * 0.9;
        let mut ws = Workspace::default();
        let shard = session.solve_under(session.dp(5.0, true, &mut ws), cap);
        assert_eq!(shard.cap, Some(cap));
        assert!(shard.cap_missed);
        assert_eq!(shard.outcome.period.to_bits(), exact.period.to_bits());
        assert_eq!(shard.outcome.allocation, exact.allocation);
        session.absorb(shard, 0.0);
        let stats = session.stats();
        assert_eq!((stats.capped, stats.cap_misses), (1, 1));
        // A revisit is solved again under the exact allocation's cap.
        let again = session.probe(5.0, true, ProbeSource::Refinement);
        assert_eq!(again.period.to_bits(), exact.period.to_bits());
    }

    #[test]
    fn held_allocations_cap_later_solves_exactly() {
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
        for t_hat in [3.0, 4.5, 3.5, 6.0, 3.2] {
            let probed = session.probe(t_hat, true, ProbeSource::Bisection);
            let fresh = madpipe_dp(&c, &platform, t_hat, &disc());
            assert_eq!(probed.period.to_bits(), fresh.period.to_bits());
            assert_eq!(probed.allocation, fresh.allocation);
        }
        let stats = session.stats();
        assert_eq!(stats.capped, 4, "every solve after the first is capped");
        assert_eq!(stats.cap_misses, 0);
        let caps: Vec<_> = session.records().iter().map(|r| r.cap).collect();
        assert!(caps[0].is_none() && caps[1..].iter().all(Option::is_some));
        // The cap is the held path's value at the new target, so it is
        // never below the answer.
        for r in &session.records()[1..] {
            assert!(r.period <= r.cap.unwrap(), "{r:?}");
        }
    }

    #[test]
    fn a_dropped_session_leaves_its_workspaces_to_the_thread_unless_it_unwinds() {
        let spares = || {
            SPARE_WORKSPACES.with(|spare| {
                let workspaces = spare.take();
                let n = workspaces.len();
                spare.set(workspaces);
                n
            })
        };
        let c = chain(&[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0)], 1 << 14, 1 << 9);
        let platform = Platform::new(2, 8 << 20, 1e8).unwrap();
        std::thread::spawn(move || {
            assert_eq!(spares(), 0, "a fresh thread has no spares");
            let mut session = ProbeSession::new(&c, &platform, &disc());
            session.probe_many(&[3.0, 4.0], true, ProbeSource::Refinement, 2);
            drop(session);
            assert_eq!(spares(), 2, "both workers' workspaces stay with the thread");
            let unwound = std::panic::catch_unwind(|| {
                let mut session = ProbeSession::new(&c, &platform, &disc());
                assert_eq!(spares(), 0, "the next session takes them");
                session.probe(3.0, true, ProbeSource::Bisection);
                std::panic::resume_unwind(Box::new("unwinding"));
            });
            assert!(unwound.is_err());
            assert_eq!(spares(), 0, "an unwinding session drops its workspaces");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_path_replays_to_its_own_dp_value() {
        // Replaying a solve's own allocation at its own target gives
        // exactly the solve's root value: the walk and the recurrence
        // apply the same step.
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
            1 << 18,
            1 << 10,
        );
        let platform = Platform::new(3, 3 << 20, 1e8).unwrap();
        let session = ProbeSession::new(&c, &platform, &disc());
        let mut ws = Workspace::default();
        for (t_hat, special) in [(2.0, true), (3.5, true), (5.0, false), (8.0, true)] {
            let shard = session.run_solve(t_hat, special, &mut ws);
            let Some(alloc) = &shard.outcome.allocation else {
                continue;
            };
            let replayed = session.dp(t_hat, special, &mut ws).path_value(alloc);
            assert_eq!(replayed.to_bits(), shard.outcome.period.to_bits());
        }
    }

    /// The unpruned recurrence over every completion of `s` under the
    /// store lane, by [`Dp::step`] in the solver's scan order with its
    /// strict `<`: the state's value and the stages `(k, special)` of its
    /// first optimal path, root first.
    fn scan_reference(dp: &Dp<'_>, s: State) -> (f64, Vec<(usize, bool)>) {
        if s.l == 0 {
            return (dp.t_axis.value(s.it), Vec::new());
        }
        let mut best = (f64::INFINITY, Vec::new());
        for k in (0..s.l).rev() {
            for special in [false, true] {
                let Some((term, next)) = dp.step(s, k, special, false) else {
                    continue;
                };
                let (sub, rest) = scan_reference(dp, next);
                if term.max(sub) < best.0 {
                    best = (term.max(sub), [vec![(k, special)], rest].concat());
                }
            }
        }
        best
    }

    #[test]
    fn a_candidate_that_ties_the_ceiling_keeps_the_first_choice() {
        // Three layers of load 2 on one normal GPU and the special one,
        // on a `t_P` grid of step 1 so no load rounds. The root's first
        // candidate (layer 2 alone on the normal GPU) completes a path of
        // value 4 and drops the ceiling to 4⁺; the next one (layer 2 on
        // the special GPU) is solved under that ceiling and ties it at 4.
        // The first choice stays, as in the unpruned recurrence.
        let c = chain(&[(1.0, 1.0); 3], 1, 0);
        let platform = Platform::new(2, 1 << 30, 1e9).unwrap();
        let grid = Discretization {
            t_points: 7,
            ..disc()
        };
        let session = ProbeSession::new(&c, &platform, &grid);
        let mut ws = Workspace::default();
        let mut dp = session.dp(8.0, true, &mut ws);
        let period = dp.solve_root(f64::INFINITY);
        assert_eq!(period, 4.0);
        assert_eq!(
            dp.ceiling,
            period.next_up(),
            "the ceiling fell to the optimum"
        );
        for special in [false, true] {
            let (term, next) = dp.step(dp.root, 2, special, false).unwrap();
            let tied = term.max(scan_reference(&dp, next).0);
            assert_eq!(tied, period, "special = {special}");
        }
        let (value, path) = scan_reference(&dp, dp.root);
        assert_eq!(value.to_bits(), period.to_bits());
        assert_eq!(path[0], (2, false));
        let stages: Vec<_> = dp.reconstruct().unwrap().stages()[..]
            .iter()
            .rev()
            .map(|s| (s.layers.start, s.gpu == 0))
            .collect();
        assert_eq!(stages, path);
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
        // The duplicate 5.0 is solved twice, to the same answer.
        assert_eq!(serial.stats().solves, targets.len());
        assert_eq!(a[2].period.to_bits(), a[3].period.to_bits());
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
        // The arena stays compact: one `v`-row per touched coordinate,
        // and an overwrite allocates nothing.
        assert_eq!(m.arena.len(), 3 * 7);
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

    /// The least special-GPU bytes over every completion of `s` that
    /// passes each memory test of [`Dp::step`], or `None` when none does.
    /// A special stage adds its exact `stage_memory` at `g − 1`.
    fn least_special_bytes(dp: &Dp<'_>, chain: &Chain, s: State, lanes: &[bool]) -> Option<u64> {
        if s.l == 0 {
            return Some(0);
        }
        let mut least: Option<u64> = None;
        for k in 0..s.l {
            for &rec in lanes {
                for special in [false, true] {
                    let Some((_, next)) = dp.step(s, k, special, rec) else {
                        continue;
                    };
                    let Some(rest) = least_special_bytes(dp, chain, next, lanes) else {
                        continue;
                    };
                    let here = if special {
                        let mut u = chain.compute_time(k..s.l);
                        if rec {
                            u += chain.forward_time(k..s.l);
                        }
                        let g = ceil_div(dp.v_axis.value(s.iv) + u, dp.t_hat).max(1);
                        chain.stage_memory(k..s.l, g - 1, dp.stage_policy(rec))
                    } else {
                        0
                    };
                    least = Some(least.map_or(here + rest, |b| b.min(here + rest)));
                }
            }
        }
        least
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_memory_floor_never_exceeds_a_feasible_completion(
            seed in (
                2usize..7,        // layers
                1usize..5,        // gpus
                0usize..4,        // policy spec
                0.5f64..1.5,      // budget / sequential peak
                0.3f64..3.0,      // T̂ / per-GPU load
            ),
            layers in proptest::prop::collection::vec(
                (0.1f64..4.0, 0.1f64..4.0, 1u64..64, 0u64..16),
                6,
            ),
            picks in proptest::prop::collection::vec((0usize..64, 0usize..64), 3),
        ) {
            let (n, gpus, spec_i, budget, t_scale) = seed;
            let built = layers[..n]
                .iter()
                .enumerate()
                .map(|(i, &(f, b, act, w))| Layer::new(format!("l{i}"), f, b, w << 10, act << 10))
                .collect();
            let c = Chain::new("t", 8 << 10, built).unwrap();
            let peak = c.stage_memory(0..n, 1, StagePolicy::default());
            let platform = Platform::new(gpus, (peak as f64 * budget) as u64, 1e8).unwrap();
            let spec = [
                PolicySpec::default(),
                spec(RecomputeMode::Auto, madpipe_model::WeightPolicy::Full),
                spec(RecomputeMode::Always, madpipe_model::WeightPolicy::Full),
                spec(RecomputeMode::Never, madpipe_model::WeightPolicy::TwoBw),
            ][spec_i];
            let lanes: &[bool] = match spec.recompute {
                RecomputeMode::Never => &[false],
                RecomputeMode::Always => &[true],
                RecomputeMode::Auto => &[false, true],
            };
            let t_hat = c.total_compute_time() / gpus as f64 * t_scale;
            let session = ProbeSession::new_with_policy(&c, &platform, &disc(), spec);
            let mut ws = Workspace::default();
            let mut dp = session.dp(t_hat, true, &mut ws);
            let (v_len, m_len) = (dp.v_axis.len(), dp.m_axis.len());
            for k in 1..=n {
                for p in 0..=dp.root.p {
                    for &(iv, im) in &picks {
                        let (iv, im) = ((iv % v_len) as u16, (im % m_len) as u16);
                        // Asked before the floors are filled, so a first
                        // call may answer from the bound alone.
                        let exceeds = dp.floor_exceeds(k, p, im, iv);
                        let floor = dp.floor(k, p, iv);
                        let bound = dp.floor_bound(k, iv);
                        prop_assert!(floor <= bound, "k {} p {} iv {}: floor {} above its bound {}", k, p, iv, floor, bound);
                        let m_p = dp.m_axis.value(im);
                        let memory = dp.platform.memory_bytes as f64;
                        prop_assert_eq!(exceeds, floor > 0 && (m_p + floor as f64) * FLOOR_SLACK > memory);
                        let s = State { l: k, p, it: 0, im, iv };
                        let least = least_special_bytes(&dp, &c, s, lanes);
                        let from_zero = least_special_bytes(&dp, &c, State { im: 0, ..s }, lanes);
                        if let Some(bytes) = from_zero {
                            prop_assert!(
                                floor <= bytes,
                                "k {} p {} iv {}: floor {} above a completion's {}",
                                k, p, iv, floor, bytes
                            );
                        }
                        prop_assert!(
                            !(exceeds && least.is_some()),
                            "k {} p {} iv {} im {}: floored, yet a completion fits",
                            k, p, iv, im
                        );
                    }
                }
            }
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

    /// `k·t` moved by `[0, ±EPS/2, ±EPS, ±2·EPS][off]`, or by `frac·t`
    /// when `off` is 7; never negative.
    fn near_multiple(t: f64, k: u64, off: usize, frac: f64) -> f64 {
        let shift = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
            .get(off)
            .map_or(frac * t, |m| m * EPS);
        (k as f64 * t + shift).max(0.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The DP's delay step, with `⌈v/T̂⌉` and `EPS/T̂` computed once,
        /// is bit for bit `ceil_div` and two `group_step`s, at exact
        /// multiples of `T̂` and within `EPS` of them.
        #[test]
        fn delay_step_is_ceil_div_and_group_step_bit_for_bit(
            t in 1e-3f64..10.0,
            v in (0u64..40, 0usize..8, 0.0f64..1.0),
            u in (0u64..6, 0usize..8, 0.0f64..1.0),
            cut in (0u64..3, 0usize..8, 0.0f64..1.0),
        ) {
            let v = near_multiple(t, v.0, v.1, v.2);
            let u = near_multiple(t, u.0, u.1, u.2);
            let cut = near_multiple(t, cut.0, cut.1, cut.2);
            let tol = EPS / t;
            prop_assert_eq!(ceil_div_with(v, t, tol), ceil_div(v, t));
            let (g, v_next) = delay_step(v, ceil_div_with(v, t, tol), u, cut, t, tol);
            prop_assert_eq!(g, ceil_div(v + u, t).max(1));
            let reference = group_step(group_step(v, u, t), cut, t);
            prop_assert_eq!(v_next.to_bits(), reference.to_bits());
        }
    }
}
