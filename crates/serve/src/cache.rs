//! Sharded LRU cache of finished plans, keyed by the canonical instance
//! string.
//!
//! A SipHash-1-3 of the key with fixed keys (`DefaultHasher::new`,
//! deterministic, a word at a time) only selects a shard; inside the
//! shard the *full* canonical string is the key of a map seeded with its
//! own `RandomState`, so crafted keys cannot degrade a lookup and a hash
//! collision costs a shared lock at worst, never a wrong plan. Recency is a
//! monotone stamp from one shared counter; eviction scans the (small,
//! bounded) shard for the minimum stamp — O(capacity/shards), no
//! intrusive list to get wrong under contention.
//!
//! Besides the entry-count bound the cache can carry a *byte* budget
//! ([`PlanCache::with_byte_budget`]): each entry is charged its key
//! length plus an estimate of its plan's in-memory size, eviction frees
//! however many entries it takes to fit a newcomer, and a single plan
//! too large to ever fit its shard is refused outright — caching it
//! would evict an entire shard and still blow the budget, so the cache
//! stays unchanged and the plan is simply served uncached.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use madpipe_json::Value;

const SHARDS: usize = 8;

struct Entry {
    stamp: u64,
    plan: Arc<Value>,
    /// Byte charge against the shard's budget (0 when unbudgeted).
    cost: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    /// Sum of the resident entries' costs.
    bytes: usize,
}

/// The plan cache. `capacity == 0` disables caching entirely (every
/// lookup misses, every insert is dropped).
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    per_shard: usize,
    /// Per-shard byte budget; 0 means unbudgeted (entry count only).
    per_shard_bytes: usize,
}

/// Estimate a plan's in-memory footprint: string payloads plus a flat
/// per-node charge for the enum/container overhead. Deliberately cheap
/// (no rendering) and deliberately an estimate — the budget bounds
/// memory to within a small constant factor, it is not an allocator.
pub fn approx_plan_bytes(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 8,
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => 24,
        Value::Str(s) => 24 + s.len(),
        Value::Array(items) => 24 + items.iter().map(approx_plan_bytes).sum::<usize>(),
        Value::Object(fields) => {
            24 + fields
                .iter()
                .map(|(k, v)| k.len() + 24 + approx_plan_bytes(v))
                .sum::<usize>()
        }
    }
}

/// Shard locks ignore poisoning: a panicking worker may die while a
/// guard is live, but every guarded update here is a single-step map
/// mutation, so the shard is consistent at any unwind point — and the
/// cache must keep serving the surviving workers.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shard of `key`: the same on every call, so tests can pick
/// same-shard keys.
fn shard_of(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % SHARDS as u64) as usize
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (rounded up to a
    /// multiple of the shard count; 0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, 0)
    }

    /// A cache bounded by both entry count and an approximate byte
    /// budget (`budget_bytes == 0` leaves bytes unbounded). The budget
    /// is spread over the shards; an entry larger than one shard's
    /// slice — in particular any plan larger than the whole budget — is
    /// refused rather than admitted-and-thrashed.
    pub fn with_byte_budget(capacity: usize, budget_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            per_shard: capacity.div_ceil(SHARDS),
            per_shard_bytes: budget_bytes.div_ceil(SHARDS),
        }
    }

    /// Look up a plan, refreshing its recency stamp on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Value>> {
        if self.per_shard == 0 {
            return None;
        }
        let mut shard = lock_shard(&self.shards[shard_of(key)]);
        let entry = shard.map.get_mut(key)?;
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.plan))
    }

    /// Insert (or refresh) a plan; returns how many entries were evicted
    /// to make room (0 or 1 under the entry bound; possibly more under a
    /// byte budget). An entry too large for its shard's byte slice is
    /// refused — the cache stays unchanged.
    pub fn insert(&self, key: String, plan: Arc<Value>) -> u64 {
        if self.per_shard == 0 {
            return 0;
        }
        let cost = self.cost_of(&key, &plan);
        if self.oversized(cost) {
            return 0;
        }
        let mut shard = lock_shard(&self.shards[shard_of(&key)]);
        // A replace frees its own slot and bytes before the room check,
        // so re-inserting a key never evicts a sibling spuriously.
        if let Some(prior) = shard.map.remove(&key) {
            shard.bytes -= prior.cost;
        }
        let evicted = self.make_room(&mut shard, cost);
        // The stamp must be drawn *inside* the shard lock (as `get` does).
        // Drawn outside, an insert could take stamp N, stall, and store N
        // only after concurrent hits refreshed sibling entries with
        // N+1… — the *newest* write in the shard would then carry the
        // shard's minimum stamp and be the next eviction victim. With
        // every draw under the lock, stamps within a shard are monotone
        // in write order, which is exactly what the min-stamp scan needs;
        // `Relaxed` is fine because the mutex already orders the
        // cross-thread accesses — the counter is only a tie-free source
        // of unique values.
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        shard.bytes += cost;
        shard.map.insert(key, Entry { stamp, plan, cost });
        evicted
    }

    /// Insert a plan only if the key is absent — the journal-replay
    /// path. Returns `(inserted, evicted)`. Unlike [`PlanCache::insert`]
    /// a repeat does *not* refresh the entry's recency stamp, so a key
    /// the journal holds twice keeps its first, oldest record.
    pub fn warm(&self, key: String, plan: Arc<Value>) -> (bool, u64) {
        if self.per_shard == 0 {
            return (false, 0);
        }
        let cost = self.cost_of(&key, &plan);
        if self.oversized(cost) {
            return (false, 0);
        }
        let mut shard = lock_shard(&self.shards[shard_of(&key)]);
        if shard.map.contains_key(&key) {
            return (false, 0);
        }
        let evicted = self.make_room(&mut shard, cost);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        shard.bytes += cost;
        shard.map.insert(key, Entry { stamp, plan, cost });
        (true, evicted)
    }

    /// Byte charge for an entry; 0 when the cache carries no budget (the
    /// estimate walk is skipped entirely on the unbudgeted path).
    fn cost_of(&self, key: &str, plan: &Value) -> usize {
        if self.per_shard_bytes == 0 {
            0
        } else {
            key.len() + approx_plan_bytes(plan)
        }
    }

    /// True when `cost` can never fit a shard, even emptied.
    fn oversized(&self, cost: usize) -> bool {
        self.per_shard_bytes > 0 && cost > self.per_shard_bytes
    }

    /// Evict minimum-stamp entries until a `cost`-sized newcomer fits
    /// both bounds; returns how many were evicted.
    fn make_room(&self, shard: &mut Shard, cost: usize) -> u64 {
        let mut evicted = 0;
        while !shard.map.is_empty()
            && (shard.map.len() >= self.per_shard
                || (self.per_shard_bytes > 0 && shard.bytes + cost > self.per_shard_bytes))
        {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                if let Some(e) = shard.map.remove(&oldest) {
                    shard.bytes -= e.cost;
                }
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }

    /// Every cached plan across all shards, most recently touched first
    /// — what drain compaction writes to the journal.
    pub fn entries(&self) -> Vec<(String, Arc<Value>)> {
        let mut all: Vec<(u64, String, Arc<Value>)> = Vec::new();
        for shard in &self.shards {
            let shard = lock_shard(shard);
            for (key, e) in &shard.map {
                all.push((e.stamp, key.clone(), Arc::clone(&e.plan)));
            }
        }
        all.sort_by_key(|e| std::cmp::Reverse(e.0));
        all.into_iter().map(|(_, key, plan)| (key, plan)).collect()
    }

    /// Number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(n: u64) -> Arc<Value> {
        Arc::new(Value::UInt(n))
    }

    #[test]
    fn hit_miss_and_refresh() {
        let c = PlanCache::new(16);
        assert!(c.get("a").is_none());
        c.insert("a".into(), plan(1));
        assert_eq!(c.get("a").as_deref(), Some(&Value::UInt(1)));
        // Re-insert replaces without eviction.
        assert_eq!(c.insert("a".into(), plan(2)), 0);
        assert_eq!(c.get("a").as_deref(), Some(&Value::UInt(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // Capacity 8 → one slot per shard: any two same-shard keys fight
        // for it, and the older one must lose.
        let c = PlanCache::new(8);
        let mut keys: Vec<String> = Vec::new();
        let mut i = 0;
        while keys.len() < 2 {
            let k = format!("k{i}");
            if shard_of(&k) == shard_of("k0") {
                keys.push(k);
            }
            i += 1;
        }
        c.insert(keys[0].clone(), plan(0));
        assert_eq!(c.insert(keys[1].clone(), plan(1)), 1, "one eviction");
        assert!(c.get(&keys[0]).is_none(), "oldest evicted");
        assert!(c.get(&keys[1]).is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let c = PlanCache::new(8);
        let mut same: Vec<String> = Vec::new();
        let mut i = 0;
        while same.len() < 3 {
            let k = format!("r{i}");
            if shard_of(&k) == shard_of("r0") {
                same.push(k);
            }
            i += 1;
        }
        c.insert(same[0].clone(), plan(0));
        // Shard holds 1 entry; touching [0] then inserting [1] evicts [0]
        // anyway (capacity 1), so use capacity 16 → 2 per shard.
        let c = PlanCache::new(16);
        c.insert(same[0].clone(), plan(0));
        c.insert(same[1].clone(), plan(1));
        assert!(c.get(&same[0]).is_some()); // refresh [0]
        c.insert(same[2].clone(), plan(2)); // shard full → evicts [1]
        assert!(c.get(&same[0]).is_some(), "refreshed entry survives");
        assert!(c.get(&same[1]).is_none(), "stale entry evicted");
    }

    #[test]
    fn warm_keeps_the_first_plan_and_never_refreshes_recency() {
        // Journal replay warms a key the journal holds twice: the first
        // (oldest) record wins.
        let c = PlanCache::new(16);
        assert_eq!(c.warm("a".into(), plan(1)), (true, 0));
        assert_eq!(c.warm("a".into(), plan(2)), (false, 0));
        assert_eq!(c.get("a").as_deref(), Some(&Value::UInt(1)));

        // A refused repeat leaves the entry's stamp alone, so it is still
        // the oldest in its shard (capacity 16 → 2 per shard).
        let same: Vec<String> = (0..)
            .map(|i| format!("w{i}"))
            .filter(|k| shard_of(k) == shard_of("w0"))
            .take(3)
            .collect();
        let c = PlanCache::new(16);
        c.warm(same[0].clone(), plan(0));
        c.insert(same[1].clone(), plan(1));
        assert_eq!(c.warm(same[0].clone(), plan(9)), (false, 0));
        assert_eq!(c.insert(same[2].clone(), plan(2)), 1);
        assert!(c.get(&same[0]).is_none(), "a warm repeat refreshed recency");
        assert!(c.get(&same[1]).is_some());
    }

    /// A plan string of roughly `n` payload bytes.
    fn sized_plan(n: usize) -> Arc<Value> {
        Arc::new(Value::Str("x".repeat(n)))
    }

    #[test]
    fn a_plan_larger_than_the_whole_budget_is_refused_and_disturbs_nothing() {
        // 8 KiB across 8 shards → 1 KiB per shard. A resident small
        // entry, then a plan bigger than the *entire* cache budget: the
        // insert must be a no-op — not admitted, not evicting the
        // resident — and the same plan must be refused via `warm` too.
        let c = PlanCache::with_byte_budget(64, 8 << 10);
        c.insert("small".into(), plan(1));
        assert_eq!(c.insert("huge".into(), sized_plan(16 << 10)), 0);
        assert!(c.get("huge").is_none(), "oversized plan must not be cached");
        assert_eq!(
            c.get("small").as_deref(),
            Some(&Value::UInt(1)),
            "refusal must not evict residents"
        );
        assert_eq!(c.len(), 1);
        let (inserted, evicted) = c.warm("huge2".into(), sized_plan(16 << 10));
        assert!(!inserted);
        assert_eq!(evicted, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn byte_budget_evicts_as_many_entries_as_it_takes() {
        // One shard's slice is 1 KiB; three ~300 B same-shard entries
        // fit, then a ~900 B newcomer must evict more than one of them.
        let c = PlanCache::with_byte_budget(64, 8 << 10);
        let mut same: Vec<String> = Vec::new();
        let mut i = 0;
        while same.len() < 4 {
            let k = format!("b{i}");
            if shard_of(&k) == shard_of("b0") {
                same.push(k);
            }
            i += 1;
        }
        for k in &same[..3] {
            assert_eq!(c.insert(k.clone(), sized_plan(300)), 0);
        }
        assert_eq!(c.len(), 3);
        let evicted = c.insert(same[3].clone(), sized_plan(900));
        assert!(evicted >= 2, "expected a multi-eviction, got {evicted}");
        assert!(c.get(&same[3]).is_some());
    }

    #[test]
    fn replacing_a_key_under_budget_reaccounts_its_bytes() {
        let c = PlanCache::with_byte_budget(64, 8 << 10);
        c.insert("k".into(), sized_plan(800));
        // Shrink it, then grow it back: neither replace may evict the
        // entry itself or misaccount the shard's byte sum (which a
        // follow-up same-shard insert would expose as a bogus eviction).
        assert_eq!(c.insert("k".into(), sized_plan(100)), 0);
        assert_eq!(c.insert("k".into(), sized_plan(800)), 0);
        assert!(c.get("k").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = PlanCache::new(0);
        assert_eq!(c.insert("a".into(), plan(1)), 0);
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_eviction_never_exceeds_capacity_and_hits_stay_coherent() {
        // 8 threads hammer a 16-slot cache with 64 distinct keys: far
        // more candidates than capacity, so eviction runs constantly
        // under real contention. Invariants: the size bound holds at
        // every observation point, and a hit always returns the value
        // that was inserted under that key (never another key's plan).
        let c = Arc::new(PlanCache::new(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let n = (t * 7 + round * 13) % 64;
                        let key = format!("k{n}");
                        c.insert(key.clone(), plan(n));
                        if let Some(v) = c.get(&key) {
                            assert_eq!(*v, Value::UInt(n), "hit for {key} served a foreign plan");
                        }
                        assert!(c.len() <= 16, "capacity exceeded: {}", c.len());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(!c.is_empty());
        assert!(c.len() <= 16);
    }

    #[test]
    fn a_just_refreshed_entry_is_never_the_eviction_victim() {
        // Regression test for the stale-stamp race: `insert` used to draw
        // its recency stamp *outside* the shard lock, so an entry
        // refreshed by concurrent hits could still lose an eviction scan
        // to an insert holding an older pre-drawn stamp. Lockstep rounds:
        // several hitter threads refresh `protected` concurrently, then
        // (ordered by a barrier) the main thread inserts a fresh
        // same-shard key into a full shard. The eviction must always pick
        // the cold filler, never the entry that was just refreshed.
        use std::sync::Barrier;

        // Capacity 16 → 2 slots per shard; collect same-shard keys.
        let mut same: Vec<String> = Vec::new();
        let mut i = 0;
        while same.len() < 18 {
            let k = format!("v{i}");
            if shard_of(&k) == shard_of("v0") {
                same.push(k);
            }
            i += 1;
        }
        let protected = same.remove(0);
        let rounds = same.len() - 1;

        let c = Arc::new(PlanCache::new(16));
        c.insert(protected.clone(), plan(0));
        c.insert(same[0].clone(), plan(1));

        const HITTERS: usize = 4;
        let barrier = Arc::new(Barrier::new(HITTERS + 1));
        let hitters: Vec<_> = (0..HITTERS)
            .map(|_| {
                let c = Arc::clone(&c);
                let b = Arc::clone(&barrier);
                let p = protected.clone();
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        b.wait(); // round open
                                  // This hit both *checks* the entry survived the
                                  // previous round's eviction and refreshes it
                                  // ahead of this round's insert.
                        assert!(c.get(&p).is_some(), "refreshed entry was evicted");
                        b.wait(); // hits complete
                        b.wait(); // insert complete
                    }
                })
            })
            .collect();

        for filler in same.iter().skip(1) {
            barrier.wait(); // round open
            barrier.wait(); // hits complete
                            // Shard is full (protected + previous filler): this insert
                            // must evict, and the victim must be the cold filler.
            assert_eq!(
                c.insert(filler.clone(), plan(9)),
                1,
                "expected one eviction"
            );
            barrier.wait(); // insert complete
        }
        for t in hitters {
            t.join().unwrap();
        }
        assert!(
            c.get(&protected).is_some(),
            "refreshed entry survived every eviction round"
        );
    }

    #[test]
    fn survives_a_panic_while_a_guard_is_live() {
        // A thread that panics between cache calls must not poison the
        // shards for everyone else (worker panics are real: the serve
        // daemon catches and resumes them with cache handles in scope).
        let c = Arc::new(PlanCache::new(16));
        c.insert("stays".into(), plan(7));
        let c2 = Arc::clone(&c);
        let result = std::thread::spawn(move || {
            c2.insert("doomed".into(), plan(1));
            panic!("chaos");
        })
        .join();
        assert!(result.is_err());
        assert_eq!(c.get("stays").as_deref(), Some(&Value::UInt(7)));
        c.insert("after".into(), plan(2));
        assert_eq!(c.get("after").as_deref(), Some(&Value::UInt(2)));
    }
}
