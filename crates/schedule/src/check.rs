//! Exact validity and memory checking of periodic patterns.
//!
//! A pattern is *valid* (§3) when the infinite schedule obtained by
//! repeating it fulfills the dependencies of Figure 1, never runs two
//! operations of the same resource at once, and fits in GPU memory at
//! every instant. This module checks all three exactly:
//!
//! * **dependencies** — for an edge `o1 → o2` (same mini-batch), validity
//!   is `t2 + h2·T ≥ t1 + h1·T + d1`;
//! * **resource exclusivity** — modular non-overlap of `[t, t+d)`
//!   intervals within the period, including ops that wrap around `T`;
//! * **memory** — an event sweep over one steady-state period. A stage
//!   whose forward completes at phase `φ_F` with offset `κ_F` (and
//!   backward at `φ_B`, `κ_B`) holds
//!   `κ_B − κ_F + [τ ≥ φ_F] − [τ ≥ φ_B]` live mini-batches at phase `τ`,
//!   each pinning the stage's per-batch bytes (`ā_s` when storing, only
//!   the boundary input when the stage policy recomputes); weights
//!   (`w_mult·W`), any recompute working set, and communication buffers
//!   (`2a` on both sides of every remote cut) are static.

use std::fmt;

use madpipe_model::util::{feq, fge, fle, EPS};
use madpipe_model::{Allocation, Chain, Platform, Resource, UnitKind, UnitSequence};

use crate::pattern::{Dir, Op, Pattern};

/// Why a pattern was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The pattern does not contain exactly one op per (unit, direction).
    Incomplete,
    /// An op's duration or resource disagrees with its unit.
    OpMismatch { unit: usize, detail: String },
    /// An op starts outside `[0, T)` or has a negative duration.
    OpOutOfRange { unit: usize, dir: Dir },
    /// A dependency edge is violated by `slack` seconds.
    DependencyViolated {
        from: (usize, Dir),
        to: (usize, Dir),
        slack: f64,
    },
    /// Two ops overlap on the same resource.
    ResourceOverlap {
        resource: Resource,
        a: (usize, Dir),
        b: (usize, Dir),
    },
    /// A resource accumulates more busy time than the period.
    ResourceOverloaded {
        resource: Resource,
        load: f64,
        period: f64,
    },
    /// A GPU's memory peak exceeds the platform limit.
    MemoryExceeded { gpu: usize, peak: u64, limit: u64 },
    /// The sweep found a negative live-batch count (backward completes
    /// more often than forward) — an internally inconsistent pattern.
    NegativeStored { unit: usize },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Incomplete => write!(f, "pattern missing ops"),
            ScheduleError::OpMismatch { unit, detail } => {
                write!(f, "op of unit {unit} mismatches its unit: {detail}")
            }
            ScheduleError::OpOutOfRange { unit, dir } => {
                write!(f, "op ({unit}, {dir:?}) outside [0, T)")
            }
            ScheduleError::DependencyViolated { from, to, slack } => write!(
                f,
                "dependency {:?} -> {:?} violated by {slack:.3e}s",
                from, to
            ),
            ScheduleError::ResourceOverlap { resource, a, b } => {
                write!(f, "ops {:?} and {:?} overlap on {:?}", a, b, resource)
            }
            ScheduleError::ResourceOverloaded {
                resource,
                load,
                period,
            } => write!(f, "{resource:?} busy {load:.6}s > period {period:.6}s"),
            ScheduleError::MemoryExceeded { gpu, peak, limit } => {
                write!(f, "GPU {gpu} peak {peak} B exceeds limit {limit} B")
            }
            ScheduleError::NegativeStored { unit } => {
                write!(f, "unit {unit} would store a negative number of batches")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Step function of a GPU's memory over one steady-state period.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfile {
    /// `(phase, bytes)` samples: memory equals `bytes` from `phase` until
    /// the next sample (cyclically).
    pub steps: Vec<(f64, u64)>,
}

impl MemoryProfile {
    /// Peak of the profile.
    pub fn peak(&self) -> u64 {
        self.steps.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }
}

/// Result of a successful check.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternReport {
    /// The pattern period.
    pub period: f64,
    /// Peak memory per GPU (bytes), including static weights/buffers.
    pub gpu_peak_bytes: Vec<u64>,
    /// Static (schedule-independent) memory per GPU.
    pub gpu_static_bytes: Vec<u64>,
    /// Peak number of live mini-batches per unit (0 for comm units) —
    /// the `g` of §4.1: 1F1B* realizes exactly the group index here.
    pub unit_live_batches: Vec<u64>,
    /// Pipeline depth (largest shift).
    pub max_shift: u64,
}

/// Check `pattern` against the model; returns the exact report or the
/// first violation found.
pub fn check_pattern(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    seq: &UnitSequence,
    pattern: &Pattern,
) -> Result<PatternReport, ScheduleError> {
    if !pattern.is_complete_for(seq) {
        return Err(ScheduleError::Incomplete);
    }
    let layout: Vec<(usize, Dir)> = pattern.ops.iter().map(|o| (o.unit, o.dir)).collect();
    Checker::new(chain, platform, alloc, seq, &layout).check(pattern)
}

/// The rules of [`check_pattern`], prepared once for one instance and
/// one op layout, then run on any number of patterns: the leaf oracle of
/// phase 2's placement search.
///
/// Preparation computes everything that does not depend on op times:
/// each GPU's static bytes, each stage's live-batch bytes, where each
/// `(unit, dir)` op sits in `pattern.ops`, and a dense id per resource,
/// numbered by first use in unit order. Resources are checked in id
/// order, so the reported violation is the same on every call. A failed
/// check allocates nothing beyond an op/unit mismatch's message.
///
/// Two proven lower bounds on the sweep's peak share one per-GPU loop:
/// [`Checker::memory_floor`] for every pattern of a period, from each
/// stage's dependency path, and [`Checker::leaf_exceeds`] for the
/// patterns of one placement leaf, from where its backwards sit.
pub struct Checker<'a> {
    seq: &'a UnitSequence,
    memory_limit: u64,
    /// Position in `pattern.ops` of each unit's forward op.
    fwd: Vec<usize>,
    /// Position in `pattern.ops` of each unit's backward op.
    bwd: Vec<usize>,
    /// Dense resource id of each unit.
    resource_id: Vec<usize>,
    /// Each dense id's resource and the positions of its ops, in
    /// pattern order.
    resources: Vec<(Resource, Vec<usize>)>,
    gpu_static_bytes: Vec<u64>,
    /// The stage units each GPU hosts, in unit order.
    per_gpu: Vec<Vec<LiveStage>>,
    /// Memory-sweep results, copied into the report on success.
    gpu_peak_bytes: Vec<u64>,
    unit_live_batches: Vec<u64>,
}

/// A stage unit in the memory sweep: its per-batch bytes and the least
/// forward-to-backward delay its dependencies allow, plus the completion
/// phases and offsets of the pattern being checked.
struct LiveStage {
    unit: usize,
    stored_bytes: u64,
    /// `L_s − slack_s` of [`Checker::memory_floor`].
    lag: f64,
    base: i64, // κ_B − κ_F
    phi_f: f64,
    phi_b: f64,
}

impl<'a> Checker<'a> {
    /// Prepare the checker for patterns of `seq` whose `i`-th op is
    /// `layout[i]`; `layout` lists every `(unit, dir)` exactly once.
    pub fn new(
        chain: &Chain,
        platform: &Platform,
        alloc: &Allocation,
        seq: &'a UnitSequence,
        layout: &[(usize, Dir)],
    ) -> Self {
        let n = seq.len();
        debug_assert_eq!(layout.len(), 2 * n, "one op per (unit, dir)");
        let mut fwd = vec![usize::MAX; n];
        let mut bwd = vec![usize::MAX; n];
        for (i, &(u, dir)) in layout.iter().enumerate() {
            match dir {
                Dir::Forward => fwd[u] = i,
                Dir::Backward => bwd[u] = i,
            }
        }

        let mut resource_id = Vec::with_capacity(n);
        let mut resources: Vec<(Resource, Vec<usize>)> = Vec::new();
        for unit in seq.units() {
            let id = match resources.iter().position(|(r, _)| *r == unit.resource) {
                Some(id) => id,
                None => {
                    resources.push((unit.resource, Vec::new()));
                    resources.len() - 1
                }
            };
            resource_id.push(id);
        }
        for (i, &(u, _)) in layout.iter().enumerate() {
            resources[resource_id[u]].1.push(i);
        }

        // `after[u]`: the forward and backward time of every unit past `u`.
        let mut after = vec![0.0; n];
        for u in (0..n.saturating_sub(1)).rev() {
            let next = &seq.units()[u + 1];
            after[u] = after[u + 1] + next.forward_time + next.backward_time;
        }
        let mut per_gpu: Vec<Vec<LiveStage>> = (0..alloc.n_gpus()).map(|_| Vec::new()).collect();
        for (u, unit) in seq.units().iter().enumerate() {
            if let (UnitKind::Stage { layers, .. }, Resource::Gpu(gpu)) =
                (&unit.kind, unit.resource)
            {
                let slack = (2 * (n - u) + 1) as f64 * EPS;
                per_gpu[gpu].push(LiveStage {
                    unit: u,
                    stored_bytes: chain.stage_live_batch_bytes(layers.clone(), unit.policy),
                    lag: after[u] + unit.backward_time - slack,
                    base: 0,
                    phi_f: 0.0,
                    phi_b: 0.0,
                });
            }
        }

        let gpu_static_bytes = static_memory(chain, alloc, seq);
        Self {
            seq,
            memory_limit: platform.memory_bytes,
            fwd,
            bwd,
            resource_id,
            resources,
            gpu_peak_bytes: gpu_static_bytes.clone(),
            gpu_static_bytes,
            per_gpu,
            unit_live_batches: vec![0; n],
        }
    }

    /// Dense id of `unit`'s resource, in `0..self.n_resources()`.
    pub fn resource_id(&self, unit: usize) -> usize {
        self.resource_id[unit]
    }

    /// Number of distinct resources the units use.
    pub fn n_resources(&self) -> usize {
        self.resources.len()
    }

    /// A lower bound on each GPU's memory peak, in GPU order, over every
    /// pattern of period `period` that passes this checker's dependency
    /// checks. Where a GPU's floor exceeds the memory limit, [`check`]
    /// accepts no pattern of this period, so a search can stop before it
    /// starts.
    ///
    /// Proof. Let stage unit `s` finish `F_s` (batch 0) at absolute time
    /// `C_F = κ_F·T + φ_F` and `B_s` at `C_B = κ_B·T + φ_B`, with both
    /// phases in `[0, T)`. The dependency chain `F_s → … → F_{n−1} →
    /// B_{n−1} → … → B_s` has `e_s = 2(n−1−s)+1` edges, each of which the
    /// checker passes with up to `EPS` to spare, so `C_B − C_F ≥ D` with
    /// `D = L_s − e_s·EPS` and `L_s = Σ_{u>s} f_u + Σ_{u≥s} b_u` over all
    /// units, comm units included. The sweep counts `live(τ) = Δκ +
    /// [τ ≥ φ_F] − [τ ≥ φ_B]` (comparisons within `EPS`), where
    /// `Δκ = κ_B − κ_F` and `Δκ·T = C_B − C_F − (φ_B − φ_F) > D − T`.
    ///
    /// * At `τ = φ_F`: if `φ_B ≤ φ_F + EPS` then `live = Δκ ≥ (D − EPS)/T`,
    ///   otherwise `live = Δκ + 1 > D/T`; so `live ≥ ⌈(D − EPS)/T⌉`.
    /// * At any `τ`: `live = Δκ − 1` only when `φ_B < φ_F`, and then
    ///   `Δκ·T > D`; otherwise `live ≥ Δκ > D/T − 1`; so `live ≥ ⌊D/T⌋`.
    ///
    /// Let `q_s = (L_s − slack_s)/T` with `slack_s = (e_s + 2)·EPS`: one
    /// `EPS` per tolerated edge, one for the phase comparison and one for
    /// rounding. At `τ = φ_F` of any stage `s` on GPU `g` the sweep then
    /// sees at least `static_g + ⌈q_s⌉·bytes_s + Σ_{s'≠s} ⌊q_{s'}⌋·bytes_{s'}`
    /// bytes, and the floor is the largest of these over `s`.
    ///
    /// [`check`]: Checker::check
    pub fn memory_floor(&self, period: f64) -> impl Iterator<Item = u64> + '_ {
        self.floor_with(period, |s| s.lag)
    }

    /// Whether some GPU's memory floor exceeds the limit for every
    /// pattern that phase 2's placer can check at one leaf: `gap[u]` is
    /// the leaf's `z_{B_u} + b_u − end_u`, with `end_{n−1} = z_{B_{n−1}}`
    /// and `end_{u−1} = end_u − f_u` (the latest any compaction can
    /// finish `F_u`), and `scale` the leaf's last completion
    /// `z_{B_0} + b_0`. Where it does, the checker rejects the leaf and
    /// every pattern compaction makes from it, so the placer skips both.
    ///
    /// Proof. Write `r` for one rounding of a value of magnitude at most
    /// `2Z + EPS`, `Z = scale`: `r ≤ ε·(Z + EPS)`, `ε = f64::EPSILON`.
    /// Every time and sum below is such a value.
    ///
    /// * (i) The placer puts every op at or after its ready time, the
    ///   rounded completion of its predecessor, so a forward ends at most
    ///   `r` after its successor starts.
    /// * (ii) Compaction moves only forwards, only later, and never past
    ///   `zc_{u+1} − f_u` rounded: `latest_fit` returns at most its `hi`.
    ///   It never moves a backward. So in every pattern the leaf or its
    ///   compaction checks, `F_u` completes at most `(n − u)·r` after the
    ///   packed bound `z_{B_{n−1}} − Σ_{v>u} f_v`, and `end_u` is within
    ///   `(n − 1 − u)·r` of that bound; with `gap`'s roundings (at most
    ///   two), every stage's `C_B − C_F ≥ gap − (2n + 1)·r`.
    /// * (iii) Folding moves an op's virtual start by at most `5r`, or
    ///   up to `EPS + 5r` later at the snap to `T`; the sweep's completion
    ///   arithmetic adds `3r` and keeps each phase in `[−3r, T + 2r]`. So
    ///   the sweep's completions `V = κ·T + φ` satisfy `V_B − V_F ≥ gap −
    ///   EPS − (2n + 17)·r`. [`memory_floor`]'s live-count argument, run
    ///   with that difference less `EPS + 5r` for the phase comparison
    ///   (`fl(τ + EPS)`) and the phase range, gives `D ≥ gap − 2·EPS −
    ///   (2n + 22)·r` with `live ≥ ⌈D/T⌉` at `τ = φ_F` and `⌊D/T⌋`
    ///   elsewhere.
    /// * (iv) The floor's own `(gap − slack)/T` rounds twice, so `slack
    ///   = 2·EPS + (2n + 24)·ε·(Z + EPS)` keeps `q ≤ D/T`. A pattern the
    ///   checker accepts therefore never has a floored GPU. Non-finite
    ///   times make `slack` infinite and every `q` zero: no leaf is
    ///   floored.
    ///
    /// Shared slack. The proof uses `scale` only through `Z`, to bound
    /// the magnitude of the leaf's times, so any `scale` at least the
    /// leaf's last completion keeps it sound. The placer asks all the
    /// sibling leaves below the node that places `B_0` with the slack of
    /// the last (largest) candidate. With that slack fixed only `gap[0]`
    /// moves between siblings, and no GPU's floor falls as it grows
    /// ([`Checker::leaf_floor`]): when stage 0's `q` passes an integer,
    /// `⌊q⌋·bytes` gains its `bytes` and the `⌈q⌉ − ⌊q⌋` term loses at
    /// most that. So once one sibling is floored, every later one is.
    ///
    /// [`memory_floor`]: Checker::memory_floor
    pub fn leaf_exceeds(&self, period: f64, gap: &[f64], scale: f64) -> bool {
        self.leaf_floor(period, gap, scale)
            .any(|bytes| bytes > self.memory_limit)
    }

    /// Each GPU's memory floor, in GPU order, over the patterns one leaf
    /// can check: the bound [`Checker::leaf_exceeds`] compares with the
    /// limit. With `scale` fixed, no GPU's floor falls when any `gap`
    /// grows.
    pub fn leaf_floor<'s>(
        &'s self,
        period: f64,
        gap: &'s [f64],
        scale: f64,
    ) -> impl Iterator<Item = u64> + 's {
        let slack = 2.0 * EPS + (2 * gap.len() + 24) as f64 * f64::EPSILON * (scale + EPS);
        self.floor_with(period, move |s| gap[s.unit] - slack)
    }

    /// Each GPU's memory floor when stage `s` holds at least `lag(s)/T`
    /// live batches: the per-GPU loop of [`Checker::memory_floor`] and
    /// [`Checker::leaf_exceeds`].
    fn floor_with<'s>(
        &'s self,
        period: f64,
        lag: impl Fn(&LiveStage) -> f64 + 's,
    ) -> impl Iterator<Item = u64> + 's {
        self.per_gpu
            .iter()
            .zip(&self.gpu_static_bytes)
            .map(move |(stages, &static_bytes)| {
                let mut always = 0u64; // Σ ⌊q⌋·bytes
                let mut at_forward = 0u64; // max (⌈q⌉ − ⌊q⌋)·bytes
                for s in stages {
                    let q = (lag(s) / period).max(0.0);
                    let batches = q.floor() as u64;
                    always = always.saturating_add(batches.saturating_mul(s.stored_bytes));
                    if q > q.floor() {
                        at_forward = at_forward.max(s.stored_bytes);
                    }
                }
                static_bytes
                    .saturating_add(always)
                    .saturating_add(at_forward)
            })
    }

    /// Check `pattern`, whose ops follow this checker's layout; returns
    /// the exact report or the first violation found.
    pub fn check(&mut self, pattern: &Pattern) -> Result<PatternReport, ScheduleError> {
        let t_period = pattern.period;
        let ops = &pattern.ops;
        debug_assert!(
            (0..self.seq.len()).all(|u| {
                (ops[self.fwd[u]].unit, ops[self.fwd[u]].dir) == (u, Dir::Forward)
                    && (ops[self.bwd[u]].unit, ops[self.bwd[u]].dir) == (u, Dir::Backward)
            }),
            "pattern ops do not follow the checker's layout"
        );

        // 1. op ↔ unit consistency and basic sanity
        for op in ops {
            let unit = &self.seq.units()[op.unit];
            let expected_d = match op.dir {
                Dir::Forward => unit.forward_time,
                Dir::Backward => unit.backward_time,
            };
            if !feq(op.duration, expected_d) {
                return Err(ScheduleError::OpMismatch {
                    unit: op.unit,
                    detail: format!("duration {} != unit duration {}", op.duration, expected_d),
                });
            }
            if op.resource != unit.resource {
                return Err(ScheduleError::OpMismatch {
                    unit: op.unit,
                    detail: format!(
                        "resource {:?} != unit resource {:?}",
                        op.resource, unit.resource
                    ),
                });
            }
            if op.start < -EPS
                || !fle(op.start, t_period)
                || op.duration < 0.0
                || !op.start.is_finite()
            {
                return Err(ScheduleError::OpOutOfRange {
                    unit: op.unit,
                    dir: op.dir,
                });
            }
        }

        // 2. dependency edges along the transformed chain
        let dep = |from: &Op, to: &Op| -> Result<(), ScheduleError> {
            let lhs = to.virtual_start(t_period);
            let rhs = from.virtual_start(t_period) + from.duration;
            if fge(lhs, rhs) {
                Ok(())
            } else {
                Err(ScheduleError::DependencyViolated {
                    from: (from.unit, from.dir),
                    to: (to.unit, to.dir),
                    slack: rhs - lhs,
                })
            }
        };
        let n = self.seq.len();
        let f = |u: usize| &ops[self.fwd[u]];
        let b = |u: usize| &ops[self.bwd[u]];
        for u in 0..n - 1 {
            dep(f(u), f(u + 1))?;
            dep(b(u + 1), b(u))?;
        }
        dep(f(n - 1), b(n - 1))?;
        // Direct F_u → B_u edges are implied transitively but cheap to assert.
        for u in 0..n {
            dep(f(u), b(u))?;
        }

        // 3. resource exclusivity (modular), in resource-id order
        for (resource, at) in &self.resources {
            let load: f64 = at.iter().map(|&i| ops[i].duration).sum();
            if !fle(load, t_period) {
                return Err(ScheduleError::ResourceOverloaded {
                    resource: *resource,
                    load,
                    period: t_period,
                });
            }
            for (k, &i) in at.iter().enumerate() {
                for &j in &at[k + 1..] {
                    if modular_overlap(&ops[i], &ops[j], t_period) {
                        return Err(ScheduleError::ResourceOverlap {
                            resource: *resource,
                            a: (ops[i].unit, ops[i].dir),
                            b: (ops[j].unit, ops[j].dir),
                        });
                    }
                }
            }
        }

        // 4. memory sweep
        self.memory_sweep(ops, t_period)?;
        Ok(PatternReport {
            period: t_period,
            gpu_peak_bytes: self.gpu_peak_bytes.clone(),
            gpu_static_bytes: self.gpu_static_bytes.clone(),
            unit_live_batches: self.unit_live_batches.clone(),
            max_shift: pattern.max_shift(),
        })
    }

    /// Sweep every GPU's memory over one steady-state period, at phase 0
    /// and at every completion phase of the stages it hosts.
    fn memory_sweep(&mut self, ops: &[Op], t_period: f64) -> Result<(), ScheduleError> {
        self.unit_live_batches.fill(0);
        self.gpu_peak_bytes.copy_from_slice(&self.gpu_static_bytes);
        for (gpu, stages) in self.per_gpu.iter_mut().enumerate() {
            if stages.is_empty() {
                continue;
            }
            for s in stages.iter_mut() {
                let fo = &ops[self.fwd[s.unit]];
                let bo = &ops[self.bwd[s.unit]];
                s.base =
                    bo.completion_offset(t_period) as i64 - fo.completion_offset(t_period) as i64;
                s.phi_f = fo.completion_phase(t_period);
                s.phi_b = bo.completion_phase(t_period);
            }
            // Event phases: every completion phase plus 0.
            let events = std::iter::once(0.0).chain(stages.iter().flat_map(|s| [s.phi_f, s.phi_b]));
            for tau in events {
                let mut dynamic: i64 = 0;
                for s in stages.iter() {
                    let mut live = s.base;
                    if fge(tau, s.phi_f) {
                        live += 1;
                    }
                    if fge(tau, s.phi_b) {
                        live -= 1;
                    }
                    if live < 0 {
                        return Err(ScheduleError::NegativeStored { unit: s.unit });
                    }
                    let max = &mut self.unit_live_batches[s.unit];
                    *max = (*max).max(live as u64);
                    dynamic += live * s.stored_bytes as i64;
                }
                let total = self.gpu_static_bytes[gpu] + dynamic as u64;
                self.gpu_peak_bytes[gpu] = self.gpu_peak_bytes[gpu].max(total);
            }
            if self.gpu_peak_bytes[gpu] > self.memory_limit {
                return Err(ScheduleError::MemoryExceeded {
                    gpu,
                    peak: self.gpu_peak_bytes[gpu],
                    limit: self.memory_limit,
                });
            }
        }
        Ok(())
    }
}

/// Memory step profile of one GPU under `pattern` (for inspection and
/// Gantt rendering); assumes the pattern already passed [`check_pattern`].
pub fn memory_profile(
    chain: &Chain,
    alloc: &Allocation,
    seq: &UnitSequence,
    pattern: &Pattern,
    gpu: usize,
) -> MemoryProfile {
    let t_period = pattern.period;
    let static_bytes = static_memory(chain, alloc, seq)[gpu];
    let mut events: Vec<(f64, i64)> = Vec::new(); // (phase, delta bytes)
    let mut base_total: i64 = 0;
    for (u, unit) in seq.units().iter().enumerate() {
        let UnitKind::Stage { layers, .. } = &unit.kind else {
            continue;
        };
        if unit.resource != Resource::Gpu(gpu) {
            continue;
        }
        let fo = pattern.op(u, Dir::Forward).expect("complete");
        let bo = pattern.op(u, Dir::Backward).expect("complete");
        let stored = chain.stage_live_batch_bytes(layers.clone(), unit.policy) as i64;
        let base = bo.completion_offset(t_period) as i64 - fo.completion_offset(t_period) as i64;
        base_total += base * stored;
        events.push((fo.completion_phase(t_period), stored));
        events.push((bo.completion_phase(t_period), -stored));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut steps = Vec::with_capacity(events.len() + 1);
    let mut level = base_total;
    // Deltas with phase ~0 apply from the period start.
    steps.push((0.0, (static_bytes as i64 + level) as u64));
    for (phase, delta) in events {
        level += delta;
        steps.push((phase, (static_bytes as i64 + level).max(0) as u64));
    }
    MemoryProfile { steps }
}

/// Static memory per GPU: each hosted stage's policy-dependent static
/// bytes (`w_mult·W`, plus the recompute working set for recomputing
/// stages) plus `2a` of communication buffer on both end GPUs of every
/// remote cut. With all-default policies this is exactly `3W` per layer.
pub fn static_memory(chain: &Chain, alloc: &Allocation, seq: &UnitSequence) -> Vec<u64> {
    let mut bytes = vec![0u64; alloc.n_gpus()];
    for unit in seq.units() {
        match &unit.kind {
            UnitKind::Stage { layers, .. } => {
                let Resource::Gpu(gpu) = unit.resource else {
                    continue;
                };
                bytes[gpu] += chain.stage_static_bytes(layers.clone(), unit.policy);
            }
            UnitKind::Comm {
                cut_layer,
                stage_before,
            } => {
                let buf = 2 * chain.activation_in(*cut_layer);
                let before = alloc.stages()[*stage_before].gpu;
                let after = alloc.stages()[*stage_before + 1].gpu;
                bytes[before] += buf;
                bytes[after] += buf;
            }
        }
    }
    bytes
}

/// Whether two ops overlap on the cyclic timeline of length `period`.
fn modular_overlap(a: &Op, b: &Op, period: f64) -> bool {
    if a.duration <= madpipe_model::util::EPS || b.duration <= madpipe_model::util::EPS {
        return false;
    }
    segments(a, period).any(|(s1, e1)| {
        segments(b, period).any(|(s2, e2)| e1.min(e2) - s1.max(s2) > madpipe_model::util::EPS)
    })
}

/// An op's busy segments within the period: one, or two when it wraps.
fn segments(o: &Op, period: f64) -> impl Iterator<Item = (f64, f64)> {
    let end = o.start + o.duration;
    let (head, tail) = if fle(end, period) {
        ((o.start, end), None)
    } else {
        ((o.start, period), Some((0.0, end - period)))
    };
    std::iter::once(head).chain(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition};

    /// Two unit chain on one GPU each, no comm (co-located), trivial case.
    fn tiny() -> (Chain, Platform, Allocation, UnitSequence) {
        let chain = Chain::new(
            "t",
            100,
            vec![
                Layer::new("a", 1.0, 1.0, 10, 100),
                Layer::new("b", 1.0, 1.0, 10, 100),
            ],
        )
        .unwrap();
        let platform = Platform::new(2, 10_000, 100.0).unwrap();
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        (chain, platform, alloc, seq)
    }

    fn op(unit: usize, dir: Dir, start: f64, duration: f64, shift: u64, resource: Resource) -> Op {
        Op {
            unit,
            dir,
            start,
            duration,
            shift,
            resource,
        }
    }

    /// Hand-built valid pattern for `tiny()` with period 6:
    /// units: stage0(gpu0), comm(link01), stage1(gpu1); all durations 1
    /// except comm = 2B/100 = 2*100/100/2 = 1 each way.
    fn valid_pattern() -> Pattern {
        Pattern {
            period: 6.0,
            ops: vec![
                op(0, Dir::Forward, 0.0, 1.0, 0, Resource::Gpu(0)),
                op(1, Dir::Forward, 1.0, 1.0, 0, Resource::Link(0, 1)),
                op(2, Dir::Forward, 2.0, 1.0, 0, Resource::Gpu(1)),
                op(2, Dir::Backward, 3.0, 1.0, 0, Resource::Gpu(1)),
                op(1, Dir::Backward, 4.0, 1.0, 0, Resource::Link(0, 1)),
                op(0, Dir::Backward, 5.0, 1.0, 0, Resource::Gpu(0)),
            ],
        }
    }

    #[test]
    fn accepts_a_valid_sequential_pattern() {
        let (chain, platform, alloc, seq) = tiny();
        let report = check_pattern(&chain, &platform, &alloc, &seq, &valid_pattern()).unwrap();
        assert_eq!(report.unit_live_batches, vec![1, 0, 1]);
        // static: gpu0 3*10 + 2*100 buffer, gpu1 same
        assert_eq!(report.gpu_static_bytes, vec![230, 230]);
        // dynamic: stage0 stores ā = a_in(0)=100 for 1 batch
        assert_eq!(report.gpu_peak_bytes[0], 230 + 100);
        assert_eq!(report.max_shift, 0);
    }

    #[test]
    fn rejects_dependency_violation() {
        let (chain, platform, alloc, seq) = tiny();
        let mut p = valid_pattern();
        p.ops[2].start = 0.5; // F of stage1 before comm finishes
        let err = check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap_err();
        assert!(matches!(err, ScheduleError::DependencyViolated { .. }));
    }

    #[test]
    fn rejects_resource_overlap() {
        let (chain, platform, alloc, seq) = tiny();
        let mut p = valid_pattern();
        p.ops[5].start = 0.5; // B of stage0 overlaps F of stage0 on gpu0
                              // fix dependency by bumping shift high enough
        p.ops[5].shift = 2;
        let err = check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap_err();
        assert!(matches!(err, ScheduleError::ResourceOverlap { .. }));
    }

    #[test]
    fn rejects_memory_overflow() {
        let (chain, _platform, alloc, seq) = tiny();
        let strict = Platform::new(2, 250, 100.0).unwrap(); // static alone is 230
        let err = check_pattern(&chain, &strict, &alloc, &seq, &valid_pattern()).unwrap_err();
        assert!(matches!(err, ScheduleError::MemoryExceeded { gpu: 0, .. }));
    }

    #[test]
    fn wrapped_ops_are_handled() {
        let (chain, platform, alloc, seq) = tiny();
        // Same schedule shifted so B of stage0 wraps the period boundary.
        let mut p = valid_pattern();
        for o in &mut p.ops {
            o.start += 0.5;
        }
        p.ops[5].start = 5.5; // B stage0 at 5.5..6.5 wraps
        let report = check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap();
        assert_eq!(report.unit_live_batches[0], 1);
    }

    #[test]
    fn pipelined_pattern_counts_two_live_batches() {
        let (chain, platform, alloc, seq) = tiny();
        // Period 2: every op busy half the time, pipeline depth grows.
        let p = Pattern {
            period: 2.0,
            ops: vec![
                op(0, Dir::Forward, 0.0, 1.0, 0, Resource::Gpu(0)),
                op(1, Dir::Forward, 1.0, 1.0, 0, Resource::Link(0, 1)),
                op(2, Dir::Forward, 0.0, 1.0, 1, Resource::Gpu(1)),
                op(2, Dir::Backward, 1.0, 1.0, 1, Resource::Gpu(1)),
                op(1, Dir::Backward, 0.0, 1.0, 2, Resource::Link(0, 1)),
                op(0, Dir::Backward, 1.0, 1.0, 2, Resource::Gpu(0)),
            ],
        };
        let report = check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap();
        // stage0: F completes at phase 1 offset 0; B completes at phase 0
        // offset 3 → base 3, minus indicator … peak = 3 at τ∈[1,2), i.e.
        // batches i-2..i live together after F_i completes.
        assert_eq!(report.unit_live_batches[0], 3);
        assert_eq!(report.unit_live_batches[2], 1);
        assert_eq!(report.max_shift, 2);
    }

    #[test]
    fn the_first_violated_resource_in_unit_order_is_reported_every_time() {
        // 3 layers on 3 GPUs: units S0, C01, S1, C12, S2 on 5 resources.
        let chain = Chain::new(
            "t",
            100,
            (0..3)
                .map(|i| Layer::new(format!("l{i}"), 1.0, 1.0, 10, 100))
                .collect(),
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 40, 100.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        // Every op starts at 0 and each shift is its topological index,
        // so every dependency holds and F and B overlap on every resource.
        let n = seq.len();
        let order = (0..n)
            .map(|u| (u, Dir::Forward))
            .chain((0..n).rev().map(|u| (u, Dir::Backward)));
        let ops = order
            .enumerate()
            .map(|(k, (u, dir))| {
                let unit = &seq.units()[u];
                let d = match dir {
                    Dir::Forward => unit.forward_time,
                    Dir::Backward => unit.backward_time,
                };
                op(u, dir, 0.0, d, k as u64, unit.resource)
            })
            .collect();
        let p = Pattern { period: 4.0, ops };
        let first = check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap_err();
        assert_eq!(
            first,
            ScheduleError::ResourceOverlap {
                resource: Resource::Gpu(0),
                a: (0, Dir::Forward),
                b: (0, Dir::Backward),
            }
        );
        for _ in 0..200 {
            assert_eq!(
                check_pattern(&chain, &platform, &alloc, &seq, &p).unwrap_err(),
                first
            );
        }
    }

    #[test]
    fn a_prepared_checker_matches_check_pattern_across_calls() {
        let (chain, platform, alloc, seq) = tiny();
        let valid = valid_pattern();
        let layout: Vec<(usize, Dir)> = valid.ops.iter().map(|o| (o.unit, o.dir)).collect();
        let mut checker = Checker::new(&chain, &platform, &alloc, &seq, &layout);
        let mut overlapping = valid_pattern();
        overlapping.ops[5].start = 0.5;
        overlapping.ops[5].shift = 2;
        for p in [&valid, &overlapping, &valid] {
            assert_eq!(
                checker.check(p),
                check_pattern(&chain, &platform, &alloc, &seq, p)
            );
        }
        assert_eq!(checker.n_resources(), 3);
        assert_eq!(checker.resource_id(2), 2);
    }

    #[test]
    fn the_memory_floor_rejects_a_period_that_needs_two_live_batches() {
        // Stage 0 waits L_0 = f_C + f_1 + b_1 + b_C + b_0 = 5 from the end
        // of its forward to the end of its backward: at T = 4 it holds
        // ⌈5/4⌉ = 2 batches when its forward completes, at T = 6 one.
        // Each batch pins 100 B on top of GPU 0's 230 static bytes.
        let (chain, platform, alloc, seq) = tiny();
        let tight = Platform::new(2, 400, 100.0).unwrap();
        let layout: Vec<(usize, Dir)> = valid_pattern()
            .ops
            .iter()
            .map(|o| (o.unit, o.dir))
            .collect();
        let checker = Checker::new(&chain, &tight, &alloc, &seq, &layout);
        let floor = |t: f64| checker.memory_floor(t).collect::<Vec<_>>();
        assert_eq!(floor(4.0), vec![430, 330], "2 batches: over 400 B");
        assert_eq!(floor(6.0), vec![330, 330], "1 batch: fits");
        let sequential = check_pattern(&chain, &tight, &alloc, &seq, &valid_pattern());
        assert_eq!(sequential.unwrap().gpu_peak_bytes, floor(6.0));
        // At T = 2, ⌈5/2⌉ = 3 batches: the pipelined pattern reaches
        // exactly the floor.
        let pipelined = Pattern {
            period: 2.0,
            ops: vec![
                op(0, Dir::Forward, 0.0, 1.0, 0, Resource::Gpu(0)),
                op(1, Dir::Forward, 1.0, 1.0, 0, Resource::Link(0, 1)),
                op(2, Dir::Forward, 0.0, 1.0, 1, Resource::Gpu(1)),
                op(2, Dir::Backward, 1.0, 1.0, 1, Resource::Gpu(1)),
                op(1, Dir::Backward, 0.0, 1.0, 2, Resource::Link(0, 1)),
                op(0, Dir::Backward, 1.0, 1.0, 2, Resource::Gpu(0)),
            ],
        };
        let report = check_pattern(&chain, &platform, &alloc, &seq, &pipelined).unwrap();
        assert_eq!(report.gpu_peak_bytes, floor(2.0));
    }

    #[test]
    fn modular_overlap_detects_wrapped_collisions() {
        let a = op(0, Dir::Forward, 9.0, 2.0, 0, Resource::Gpu(0)); // 9..11 wraps to 9..10 + 0..1
        let b = op(1, Dir::Forward, 0.5, 1.0, 0, Resource::Gpu(0));
        assert!(modular_overlap(&a, &b, 10.0));
        let c = op(1, Dir::Forward, 1.5, 1.0, 0, Resource::Gpu(0));
        assert!(!modular_overlap(&a, &c, 10.0));
    }

    #[test]
    fn memory_profile_steps_match_peak() {
        let (chain, _platform, alloc, seq) = tiny();
        let p = valid_pattern();
        let prof = memory_profile(&chain, &alloc, &seq, &p, 0);
        assert_eq!(prof.peak(), 330);
    }
}
