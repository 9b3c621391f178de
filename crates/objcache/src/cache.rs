//! The fast object cache: hash-map residency plus lazy-deletion victim
//! heaps.
//!
//! Each policy's victim order is a min-heap of `(primary, tiebreak, key)`
//! tuples (SLRU keeps one heap per segment). A hit does not search the
//! heap for the entry's old tuple: it pushes the new one and leaves the old
//! one behind, stale. A popped tuple is *live* iff its key is resident, in
//! that heap's segment, and its current tuple equals the popped one; stale
//! tuples are dropped as they surface. The rule is exact because
//! `last_seq` is unique per request, so a stale tuple never equals a live
//! one and the victim is the same minimum an ordered index would give —
//! every [`crate::ObjStats`] counter is bit-identical to the
//! [`crate::ReferenceObjectCache`] oracle, which rescans every resident
//! object per decision. The differential wall
//! (`objcache/tests/differential.rs`) holds the two equal.
//!
//! *Memory bound.* Stale tuples are compacted away before a heap's buffer
//! would grow, whenever that frees at least a quarter of it; otherwise the
//! buffer grows by half. A heap's capacity therefore never exceeds
//! `2 × peak live tuples + HEAP_MIN_GROW` — at most 48 bytes per resident
//! object, where a `BTreeSet` of the same tuples allocates 43–50.
//!
//! *Cost.* A hit is one residency-map lookup plus one heap push; the map
//! hashes its `u64` keys with one splitmix64 finalisation. On the
//! `serving_tiers` scenario (200k internet-default requests, 256 MiB, four
//! traced runs on a 2-vCPU x86-64 host) the replay costs LRU 113–162,
//! SLRU 111–140, GDSF 197–277 and the derived rule 78–110 ns/request,
//! against 241–380, 235–364, 396–500 and 172–258 with `BTreeSet`
//! indexes and SipHash.
//!
//! The request semantics both implementations follow are documented on
//! [`crate::replay`]; scoring formulas live in [`crate::policy`].

use crate::policy::{
    admission_score, derived_rank, gdsf_priority, DerivedWeights, FreqSketch, ObjPolicyKind,
};
use crate::{ObjCacheConfig, ObjStats};
use std::cmp::Reverse;
use std::collections::hash_map::Entry as Slot;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use workloads::ObjectRequest;

/// A victim-order tuple `(primary, tiebreak, key)`; the minimum goes first.
type Tuple = (u64, u64, u64);

/// Residency-map hasher: one splitmix64 finalisation per `u64` key. Object
/// keys come from simulated traffic, not from an adversary, so SipHash's
/// collision resistance buys nothing here. No result depends on the map's
/// iteration order (only [`ObjectCache::check_invariants`] iterates it,
/// for sums).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut state = self.0 ^ key;
        self.0 = simrng::splitmix64(&mut state);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

#[derive(Clone, Copy, Debug)]
struct Entry {
    size: u32,
    expires_at: u64,
    freq: u32,
    last_seq: u64,
    /// SLRU: false = probation, true = protected.
    protected: bool,
    /// GDSF `H` — also reused to store the derived rule's mapped priority.
    rank: u64,
}

impl Entry {
    /// The policy's reaction to a hit at request `seq`: recency, frequency,
    /// SLRU promotion, and the GDSF / derived rank recomputed from this
    /// moment's inflation and TTL slack.
    fn touch(&mut self, policy: ObjPolicyKind, inflation: u64, seq: u64, now_ms: u64) {
        self.freq = self.freq.saturating_add(1);
        self.last_seq = seq;
        match policy {
            ObjPolicyKind::Lru => {}
            // Probation hit promotes; protected hit just refreshes.
            ObjPolicyKind::Slru => self.protected = true,
            ObjPolicyKind::Gdsf => self.rank = gdsf_priority(inflation, self.freq, self.size),
            ObjPolicyKind::DerivedRlr(w) => {
                let remaining = self.expires_at.saturating_sub(now_ms);
                self.rank = derived_rank(inflation, &w, self.freq, self.size, remaining);
            }
        }
    }

    /// This entry's victim-order tuple under `policy`.
    fn tuple(&self, policy: ObjPolicyKind, key: u64) -> Tuple {
        match policy {
            ObjPolicyKind::Lru | ObjPolicyKind::Slru => (self.last_seq, 0, key),
            ObjPolicyKind::Gdsf | ObjPolicyKind::DerivedRlr(_) => (self.rank, self.last_seq, key),
        }
    }

    /// The liveness rule: `t`, popped from the `protected` segment's heap,
    /// is this entry's current tuple there.
    fn is_indexed_by(&self, policy: ObjPolicyKind, protected: bool, t: &Tuple) -> bool {
        self.protected == protected && self.tuple(policy, t.2) == *t
    }
}

/// Smallest growth step of a victim heap's buffer, in tuples.
const HEAP_MIN_GROW: usize = 16;

/// A min-heap victim index with lazy deletion: stale tuples stay in the
/// heap until they surface or a compaction drops them.
#[derive(Clone, Debug, Default)]
struct LazyHeap {
    heap: BinaryHeap<Reverse<Tuple>>,
    /// Resident entries whose current tuple is in this heap.
    live: usize,
    /// The most `live` has ever been; bounds the buffer's capacity.
    peak_live: usize,
}

impl LazyHeap {
    /// Adds a live tuple. Before the buffer would grow, drops the tuples
    /// `is_live` rejects if that frees at least a quarter of it; otherwise
    /// grows it by half (at least [`HEAP_MIN_GROW`]). Growth thus happens
    /// only with more than three quarters of the buffer live, which keeps
    /// the capacity within `2 × peak_live + HEAP_MIN_GROW`.
    fn push(&mut self, t: Tuple, is_live: impl FnMut(&Tuple) -> bool) {
        let len = self.heap.len();
        if len == self.heap.capacity() {
            let stale = len - self.live;
            if stale > 0 && stale * 4 >= len {
                let mut is_live = is_live;
                self.heap.retain(|Reverse(t)| is_live(t));
            } else {
                self.heap.reserve_exact((len / 2).max(HEAP_MIN_GROW));
            }
        }
        self.heap.push(Reverse(t));
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Pops tuples in order until `take` accepts one (the liveness check),
    /// returning its result; the rejected, stale tuples are dropped. `None`
    /// when no live tuple remains.
    fn pop_live<R>(&mut self, mut take: impl FnMut(Tuple) -> Option<R>) -> Option<R> {
        if self.live == 0 {
            return None;
        }
        while let Some(Reverse(t)) = self.heap.pop() {
            if let Some(r) = take(t) {
                self.live -= 1;
                return Some(r);
            }
        }
        panic!("victim heap lost a live tuple");
    }

    /// The compaction bound [`LazyHeap::push`] maintains.
    fn check(&self, segment: &str) {
        assert!(self.heap.len() >= self.live, "{segment} heap holds fewer tuples than live");
        assert!(
            self.heap.capacity() <= 2 * self.peak_live + HEAP_MIN_GROW,
            "{segment} heap outgrew its compaction bound: capacity {} for peak {} live",
            self.heap.capacity(),
            self.peak_live
        );
    }
}

/// The production-path object cache.
#[derive(Clone, Debug)]
pub struct ObjectCache {
    cfg: ObjCacheConfig,
    policy: ObjPolicyKind,
    entries: KeyMap<Entry>,
    /// Victim order for LRU / GDSF / derived, and SLRU's probation segment.
    main: LazyHeap,
    /// SLRU's protected segment order.
    prot: LazyHeap,
    used: u64,
    protected_bytes: u64,
    /// GDSF inflation `L`.
    inflation: u64,
    sketch: Option<FreqSketch>,
    seq: u64,
    stats: ObjStats,
}

impl ObjectCache {
    pub fn new(cfg: ObjCacheConfig, policy: ObjPolicyKind) -> Self {
        cfg.validate();
        let sketch = match policy {
            ObjPolicyKind::DerivedRlr(_) => Some(FreqSketch::new()),
            _ => None,
        };
        Self {
            cfg,
            policy,
            entries: KeyMap::default(),
            main: LazyHeap::default(),
            prot: LazyHeap::default(),
            used: 0,
            protected_bytes: 0,
            inflation: 0,
            sketch,
            seq: 0,
            stats: ObjStats::default(),
        }
    }

    pub fn stats(&self) -> &ObjStats {
        &self.stats
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident objects.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    fn segment(&mut self, protected: bool) -> &mut LazyHeap {
        if protected {
            &mut self.prot
        } else {
            &mut self.main
        }
    }

    /// Indexes a resident entry's current tuple in its segment's heap.
    fn index_push(&mut self, t: Tuple, protected: bool) {
        let (entries, policy) = (&self.entries, self.policy);
        let heap = if protected { &mut self.prot } else { &mut self.main };
        heap.push(t, |t| entries.get(&t.2).is_some_and(|e| e.is_indexed_by(policy, protected, t)));
    }

    /// Removes a resident entry whose tuple is still in its heap: its tuple
    /// turns stale, and its bytes are freed.
    fn remove_entry(&mut self, key: u64) -> Entry {
        let e = self.entries.remove(&key).expect("removing a non-resident key");
        self.segment(e.protected).live -= 1;
        self.free(&e);
        e
    }

    fn free(&mut self, e: &Entry) {
        self.used -= e.size as u64;
        if e.protected {
            self.protected_bytes -= e.size as u64;
        }
    }

    /// Demotes protected-LRU entries until the protected segment fits its
    /// byte budget.
    fn rebalance_slru(&mut self) {
        let cap = self.cfg.protected_capacity();
        while self.protected_bytes > cap {
            let (entries, policy) = (&mut self.entries, self.policy);
            let (t, size) = self
                .prot
                .pop_live(|t| {
                    let e = entries.get_mut(&t.2)?;
                    if !e.is_indexed_by(policy, true, &t) {
                        return None;
                    }
                    e.protected = false;
                    Some((t, e.size))
                })
                .expect("protected bytes but no entry");
            self.protected_bytes -= size as u64;
            // Demotion keeps recency, so the tuple moves over unchanged.
            self.index_push(t, false);
        }
    }

    /// Evicts the policy's next victim: SLRU drains probation before
    /// protected; everything else takes the minimum of the main heap.
    fn evict(&mut self) -> Entry {
        let policy = self.policy;
        let take = |entries: &mut KeyMap<Entry>, protected, t: Tuple| match entries.entry(t.2) {
            Slot::Occupied(o) if o.get().is_indexed_by(policy, protected, &t) => Some(o.remove()),
            _ => None,
        };
        let entries = &mut self.entries;
        let e = match self.main.pop_live(|t| take(entries, false, t)) {
            Some(e) => e,
            None => self
                .prot
                .pop_live(|t| take(entries, true, t))
                .expect("eviction with an empty cache"),
        };
        self.free(&e);
        e
    }

    /// Frees space until `need` more bytes fit, counting each removal as an
    /// eviction or (if the victim's TTL already lapsed) an expiration.
    fn make_room(&mut self, need: u64, now_ms: u64) {
        while self.used + need > self.cfg.capacity_bytes {
            let e = self.evict();
            if matches!(self.policy, ObjPolicyKind::Gdsf | ObjPolicyKind::DerivedRlr(_)) {
                // Inflation: future ranks start from the evicted minimum,
                // which is what ages out stale high-frequency entries.
                // Applies to expired victims too (both impls agree).
                self.inflation = e.rank;
            }
            if now_ms >= e.expires_at {
                self.stats.expirations += 1;
                self.stats.expired_bytes += e.size as u64;
            } else {
                self.stats.evictions += 1;
                self.stats.evicted_bytes += e.size as u64;
            }
        }
    }

    fn insert(&mut self, r: &ObjectRequest) {
        let mut e = Entry {
            size: r.size,
            expires_at: r.now_ms + r.ttl_ms,
            freq: 1,
            last_seq: self.seq,
            protected: false,
            rank: 0,
        };
        match self.policy {
            ObjPolicyKind::Gdsf => e.rank = gdsf_priority(self.inflation, 1, r.size),
            ObjPolicyKind::DerivedRlr(w) => {
                e.rank = derived_rank(self.inflation, &w, 1, r.size, r.ttl_ms);
            }
            _ => {}
        }
        self.used += r.size as u64;
        self.entries.insert(r.key, e);
        self.index_push(e.tuple(self.policy, r.key), false);
        self.stats.admitted += 1;
    }

    fn admit(&self, r: &ObjectRequest) -> bool {
        if r.size as u64 > self.cfg.capacity_bytes {
            return false;
        }
        match self.policy {
            ObjPolicyKind::DerivedRlr(w) => {
                let est = self.sketch.as_ref().expect("derived policy without sketch").estimate(r.key);
                self.admission_passes(&w, est, r)
            }
            _ => true,
        }
    }

    fn admission_passes(&self, w: &DerivedWeights, est: u32, r: &ObjectRequest) -> bool {
        admission_score(w, est, r.size, r.ttl_ms) >= w.ad_threshold as i64
    }

    /// Serves one request. See [`crate::replay`] for the full semantics.
    pub fn request(&mut self, r: &ObjectRequest) {
        self.stats.requests += 1;
        if let Some(sketch) = self.sketch.as_mut() {
            sketch.record(r.key);
        }
        if let Some(e) = self.entries.get_mut(&r.key) {
            if r.now_ms < e.expires_at {
                self.stats.hits += 1;
                self.stats.hit_bytes += r.size as u64;
                let was_protected = e.protected;
                e.touch(self.policy, self.inflation, self.seq, r.now_ms);
                let (t, protected, size) = (e.tuple(self.policy, r.key), e.protected, e.size);
                // The old tuple turns stale in place; the new one is pushed.
                self.segment(was_protected).live -= 1;
                if protected && !was_protected {
                    self.protected_bytes += size as u64;
                }
                self.index_push(t, protected);
                if matches!(self.policy, ObjPolicyKind::Slru) {
                    self.rebalance_slru();
                }
                self.seq += 1;
                return;
            }
            // Lazy expiry: the object is gone; fall through to the miss
            // path (re-fetch, subject to admission).
            let e = self.remove_entry(r.key);
            self.stats.expirations += 1;
            self.stats.expired_bytes += e.size as u64;
        }
        self.stats.misses += 1;
        self.stats.miss_bytes += r.size as u64;
        if self.admit(r) {
            self.make_room(r.size as u64, r.now_ms);
            self.insert(r);
        } else {
            self.stats.rejected += 1;
        }
        self.seq += 1;
    }

    /// Internal consistency invariants, asserted by the differential wall:
    /// byte accounting, each heap's live count against the entries in its
    /// segment, and each heap's compaction bound.
    pub fn check_invariants(&self) {
        let sum: u64 = self.entries.values().map(|e| e.size as u64).sum();
        assert_eq!(sum, self.used, "byte accounting drifted");
        assert!(self.used <= self.cfg.capacity_bytes, "over budget");
        let prot: u64 =
            self.entries.values().filter(|e| e.protected).map(|e| e.size as u64).sum();
        assert_eq!(prot, self.protected_bytes, "protected byte accounting drifted");
        let protected = self.entries.values().filter(|e| e.protected).count();
        assert_eq!(self.main.live + self.prot.live, self.entries.len(), "victim index out of sync");
        assert_eq!(self.prot.live, protected, "protected heap out of sync");
        self.main.check("main");
        self.prot.check("protected");
    }
}
