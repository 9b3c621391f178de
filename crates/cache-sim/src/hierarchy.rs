//! The three-level hierarchy: private L1I/L1D/L2 per core over a shared LLC.

use crate::access::{Access, AccessKind};
use crate::cache::SetAssocCache;
use crate::capture::{LlcRecord, LlcTrace};
use crate::event::MemTraffic;
use crate::config::{L2PrefetcherKind, SystemConfig};
use crate::prefetch::{IpStridePrefetcher, KpcPrefetcher, NextLinePrefetcher, PrefetchRequest, Prefetcher};
use crate::replacement::{ReplacementPolicy, TrueLru};
use crate::stats::CacheStats;

/// The deepest level that serviced a memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Hit in L1 (I or D).
    L1,
    /// Hit in the private L2.
    L2,
    /// Hit in the shared LLC.
    Llc,
    /// Serviced by main memory with a DRAM row-buffer hit.
    MemoryRowHit,
    /// Serviced by main memory with a DRAM row-buffer miss.
    Memory,
}

impl ServiceLevel {
    /// Cumulative load-to-use latency in cycles for this service level.
    pub fn latency(self, config: &SystemConfig) -> u32 {
        match self {
            ServiceLevel::L1 => config.l1d.latency,
            ServiceLevel::L2 => config.l1d.latency + config.l2.latency,
            ServiceLevel::Llc => config.l1d.latency + config.l2.latency + config.llc.latency,
            ServiceLevel::MemoryRowHit => {
                config.l1d.latency
                    + config.l2.latency
                    + config.llc.latency
                    + config.memory_row_hit_latency
            }
            ServiceLevel::Memory => {
                config.l1d.latency + config.l2.latency + config.llc.latency + config.memory_latency
            }
        }
    }

    /// Whether this service level engages the long-latency (LLC-and-beyond)
    /// path that the timing model tracks with MSHR/ROB limits.
    pub fn is_long(self) -> bool {
        matches!(
            self,
            ServiceLevel::Llc | ServiceLevel::MemoryRowHit | ServiceLevel::Memory
        )
    }
}

/// The outcome of one LLC access, as seen by the requesting core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcOutcome {
    /// The line was in the LLC.
    Hit,
    /// LLC miss serviced by memory with an open DRAM row.
    MissRowHit,
    /// LLC miss serviced by memory with a closed DRAM row.
    MissRowMiss,
}

impl LlcOutcome {
    /// `true` when the access hit in the LLC.
    pub fn is_hit(self) -> bool {
        self == LlcOutcome::Hit
    }
}

/// The shared last-level cache, with sequence numbering and optional trace
/// capture.
///
/// Every access — from any core, of any kind — receives a monotonically
/// increasing sequence number that offline oracles key on. Because the
/// hierarchy is simulated functionally in program order, this stream is
/// identical regardless of the LLC replacement policy in use.
pub struct SharedLlc<P: ReplacementPolicy = Box<dyn ReplacementPolicy>> {
    cache: SetAssocCache<P>,
    seq: u64,
    capture: Option<LlcTrace>,
    dram: crate::dram::DramModel,
    memory_reads: u64,
    memory_writes: u64,
    /// Background memory traffic recorded for the event timing model:
    /// prefetch fill reads and dirty writebacks (demand reads are charged
    /// by the timing driver directly via their [`ServiceLevel`]). `None`
    /// (the default) keeps the functional hot path free of the tap.
    traffic: Option<Vec<MemTraffic>>,
}

impl<P: ReplacementPolicy> SharedLlc<P> {
    /// Creates the LLC described by `config` with the given policy.
    pub fn new(config: &SystemConfig, policy: P) -> Self {
        Self {
            cache: SetAssocCache::new("LLC", config.llc, policy),
            seq: 0,
            capture: None,
            dram: crate::dram::DramModel::default(),
            memory_reads: 0,
            memory_writes: 0,
            traffic: None,
        }
    }

    /// Starts capturing the access stream (from the next access onward).
    pub fn enable_capture(&mut self) {
        self.capture = Some(LlcTrace::new());
    }

    /// Stops capturing and returns the captured trace, if any.
    pub fn take_capture(&mut self) -> Option<LlcTrace> {
        self.capture.take()
    }

    /// Returns the records captured so far and *keeps capturing*, letting a
    /// streaming consumer drain the buffer periodically so capture memory
    /// stays bounded however long the run. Returns `None` when capture was
    /// never enabled.
    pub fn drain_capture(&mut self) -> Option<LlcTrace> {
        self.capture.as_mut().map(std::mem::take)
    }

    /// Allows the policy's [`crate::Decision::Bypass`] to be honoured.
    pub fn set_allow_bypass(&mut self, allow: bool) {
        self.cache.set_allow_bypass(allow);
    }

    /// Starts recording background memory traffic (prefetch fill reads and
    /// dirty writebacks) for the event timing model. Purely observational:
    /// functional behaviour is unchanged.
    pub fn enable_traffic_tap(&mut self) {
        self.traffic = Some(Vec::new());
    }

    /// Moves the traffic recorded since the last drain into `out` (appends;
    /// does not clear `out`). A no-op when the tap is disabled.
    pub fn drain_traffic(&mut self, out: &mut Vec<MemTraffic>) {
        if let Some(traffic) = &mut self.traffic {
            out.append(traffic);
        }
    }

    /// Performs one LLC access, going to DRAM on a miss.
    pub fn access(&mut self, pc: u64, addr: u64, kind: AccessKind, core: u8) -> LlcOutcome {
        let access = Access { pc, addr, kind, core, seq: self.seq };
        self.seq += 1;
        if let Some(capture) = &mut self.capture {
            capture.push(LlcRecord { pc, line: addr >> 6, kind, core });
        }
        let out = self.cache.access(&access);
        if let Some(wb) = out.writeback {
            self.memory_writes += 1;
            let row_hit = self.dram.access(wb);
            if let Some(traffic) = &mut self.traffic {
                traffic.push(MemTraffic { line: wb, write: true, row_hit });
            }
        }
        if out.hit {
            return LlcOutcome::Hit;
        }
        if kind == AccessKind::Writeback {
            // Writeback misses allocate without a memory read.
            return LlcOutcome::Hit;
        }
        self.memory_reads += 1;
        let row_hit = self.dram.access(addr >> 6);
        // Demand reads are reported through the returned outcome (the
        // timing driver charges them on the critical path); only prefetch
        // fills are background traffic.
        if kind == AccessKind::Prefetch {
            if let Some(traffic) = &mut self.traffic {
                traffic.push(MemTraffic { line: addr >> 6, write: false, row_hit });
            }
        }
        if row_hit {
            LlcOutcome::MissRowHit
        } else {
            LlcOutcome::MissRowMiss
        }
    }

    /// LLC statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Total lines fetched from main memory.
    pub fn memory_reads(&self) -> u64 {
        self.memory_reads
    }

    /// Total dirty lines written to main memory.
    pub fn memory_writes(&self) -> u64 {
        self.memory_writes
    }

    /// The number of accesses seen so far (= next sequence number).
    pub fn accesses_seen(&self) -> u64 {
        self.seq
    }

    /// The underlying cache (for policy inspection).
    pub fn cache(&self) -> &SetAssocCache<P> {
        &self.cache
    }

    /// The DRAM model (row-buffer statistics).
    pub fn dram(&self) -> &crate::dram::DramModel {
        &self.dram
    }

    /// Zeroes statistics after a warm-up phase (contents and sequence
    /// numbering are preserved so captures stay aligned).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
        self.dram.reset_stats();
        self.memory_reads = 0;
        self.memory_writes = 0;
        if let Some(traffic) = &mut self.traffic {
            traffic.clear();
        }
    }
}

impl<P: ReplacementPolicy> std::fmt::Debug for SharedLlc<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLlc")
            .field("cache", &self.cache)
            .field("seq", &self.seq)
            .field("capturing", &self.capture.is_some())
            .finish()
    }
}

/// L2 prefetch fills complete this many L2 accesses after issue, modelling
/// memory latency; a demand access arriving earlier sees a "late prefetch"
/// and is serviced by the LLC (which is filled at issue time).
const L2_PREFETCH_DELAY: u64 = 24;
/// One out of this many L2 prefetch issues is dropped, modelling bandwidth
/// and queue-occupancy losses; dropped lines surface as demand misses.
const L2_PREFETCH_DROP_PERIOD: u64 = 4;
/// Bound on in-flight delayed L2 prefetches.
const L2_PREFETCH_QUEUE: usize = 64;

/// Sentinel for an unoccupied [`PrefetchQueue`] slot. Line addresses are
/// byte addresses shifted right by 6, so a real line can never reach it.
const PREFETCH_SLOT_EMPTY: u64 = u64::MAX;

/// Fixed-capacity FIFO of in-flight delayed L2 prefetches.
///
/// Replaces a `VecDeque<(u64, u64)>`: the line addresses live in one
/// contiguous array whose empty slots hold a sentinel, so the per-issue
/// membership test is a branch-free sweep of the whole array (a reduce-or
/// the compiler turns into vector compares) instead of a short-circuiting
/// scan over strided tuples.
struct PrefetchQueue {
    /// Prefetched line addresses; [`PREFETCH_SLOT_EMPTY`] when unoccupied.
    lines: [u64; L2_PREFETCH_QUEUE],
    /// L2 tick at which each line's fill completes.
    ready: [u64; L2_PREFETCH_QUEUE],
    head: usize,
    len: usize,
}

impl PrefetchQueue {
    fn new() -> Self {
        Self {
            lines: [PREFETCH_SLOT_EMPTY; L2_PREFETCH_QUEUE],
            ready: [0; L2_PREFETCH_QUEUE],
            head: 0,
            len: 0,
        }
    }

    /// Whether `line` is already in flight.
    fn contains(&self, line: u64) -> bool {
        debug_assert_ne!(line, PREFETCH_SLOT_EMPTY);
        self.lines.iter().fold(false, |found, &l| found | (l == line))
    }

    /// The oldest in-flight prefetch, if any.
    fn front(&self) -> Option<(u64, u64)> {
        (self.len > 0).then(|| (self.lines[self.head], self.ready[self.head]))
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.lines[self.head] = PREFETCH_SLOT_EMPTY;
        self.head = (self.head + 1) % L2_PREFETCH_QUEUE;
        self.len -= 1;
    }

    /// Appends an in-flight prefetch, evicting the oldest when full.
    fn push_back(&mut self, line: u64, ready_at: u64) {
        debug_assert_ne!(line, PREFETCH_SLOT_EMPTY);
        if self.len == L2_PREFETCH_QUEUE {
            self.pop_front();
        }
        let tail = (self.head + self.len) % L2_PREFETCH_QUEUE;
        self.lines[tail] = line;
        self.ready[tail] = ready_at;
        self.len += 1;
    }
}

/// One core's private cache hierarchy (L1I, L1D, unified L2) plus its
/// prefetchers (next-line at both L1s, IP-stride at L2, per Table III).
///
/// Prefetch realism: a purely functional simulator would make every
/// prefetch perfectly timely, which erases exactly the demand traffic the
/// paper studies. Two corrections keep the LLC's view realistic: L1
/// next-line prefetches are miss-triggered, and L2 prefetches fill the LLC
/// at issue but fill L2 only `L2_PREFETCH_DELAY` accesses later (with a
/// fraction dropped), so late or dropped prefetches appear at the LLC as
/// demand accesses — the "prefetched line, reused soon or never" dynamic
/// RLR's type priority exploits.
pub struct CoreHierarchy {
    core: u8,
    // L1/L2 always run true LRU (Table III), so their policy calls are
    // monomorphized — no virtual dispatch anywhere in the private levels.
    l1i: SetAssocCache<TrueLru>,
    l1d: SetAssocCache<TrueLru>,
    l2: SetAssocCache<TrueLru>,
    l1_prefetch: Option<NextLinePrefetcher>,
    l2_prefetch: Option<Box<dyn Prefetcher>>,
    prefetch_buf: Vec<PrefetchRequest>,
    /// L2 access counter used to time delayed prefetch fills.
    l2_ticks: u64,
    /// In-flight L2 prefetches awaiting their delayed fill.
    pending_prefetch: PrefetchQueue,
    /// Total L2 prefetches considered for issue (drives the drop pattern).
    prefetch_issued: u64,
}

/// One demand data access of a hierarchy replay, as fed to
/// [`CoreHierarchy::data_access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataRequest {
    /// Program counter of the load/store.
    pub pc: u64,
    /// Byte address accessed.
    pub addr: u64,
    /// `true` for a store (RFO), `false` for a load.
    pub is_store: bool,
}

impl CoreHierarchy {
    /// Builds the private hierarchy for `core`. L1 and L2 use true LRU, as
    /// in the paper (replacement innovation is evaluated at the LLC only).
    pub fn new(core: u8, config: &SystemConfig) -> Self {
        let mut l1d = SetAssocCache::new("L1D", config.l1d, TrueLru::new(&config.l1d));
        l1d.set_rfo_dirties(true);
        Self {
            core,
            l1i: SetAssocCache::new("L1I", config.l1i, TrueLru::new(&config.l1i)),
            l1d,
            l2: SetAssocCache::new("L2", config.l2, TrueLru::new(&config.l2)),
            l1_prefetch: config.prefetchers.then(NextLinePrefetcher::new),
            l2_prefetch: config.prefetchers.then(|| match config.l2_prefetcher {
                L2PrefetcherKind::IpStride => {
                    Box::new(IpStridePrefetcher::default()) as Box<dyn Prefetcher>
                }
                L2PrefetcherKind::KpcP => Box::new(KpcPrefetcher::default()),
            }),
            prefetch_buf: Vec::with_capacity(4),
            l2_ticks: 0,
            pending_prefetch: PrefetchQueue::new(),
            prefetch_issued: 0,
        }
    }

    /// The core id this hierarchy belongs to.
    pub fn core(&self) -> u8 {
        self.core
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L1 instruction cache statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Zeroes private-cache statistics after warm-up.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// Services an L2 access (demand, prefetch, or writeback from L1),
    /// going to the LLC and memory as needed, and running the L2 IP-stride
    /// prefetcher on demand accesses.
    fn access_l2<P: ReplacementPolicy>(
        &mut self,
        pc: u64,
        addr: u64,
        kind: AccessKind,
        llc: &mut SharedLlc<P>,
    ) -> ServiceLevel {
        self.l2_ticks += 1;
        self.drain_ready_prefetches(llc);

        let access = Access { pc, addr, kind, core: self.core, seq: 0 };
        let out = self.l2.access(&access);
        let mut level = ServiceLevel::L2;
        if !out.hit && kind != AccessKind::Writeback {
            level = match llc.access(pc, addr, kind, self.core) {
                LlcOutcome::Hit => ServiceLevel::Llc,
                LlcOutcome::MissRowHit => ServiceLevel::MemoryRowHit,
                LlcOutcome::MissRowMiss => ServiceLevel::Memory,
            };
        }
        if let Some(wb) = out.writeback {
            llc.access(0, wb << 6, AccessKind::Writeback, self.core);
        }

        if kind.is_demand() {
            if let Some(prefetcher) = &mut self.l2_prefetch {
                let mut targets = std::mem::take(&mut self.prefetch_buf);
                targets.clear();
                prefetcher.on_access(pc, addr >> 6, out.hit, &mut targets);
                for &request in &targets {
                    self.prefetch_issued += 1;
                    if self.prefetch_issued.is_multiple_of(L2_PREFETCH_DROP_PERIOD) {
                        continue; // dropped: bandwidth/queue loss
                    }
                    let target = request.line;
                    let pf_addr = target << 6;
                    if self.l2.contains(pf_addr) || self.pending_prefetch.contains(target) {
                        continue;
                    }
                    // The LLC is filled at issue; L2 receives the line after
                    // the delay (late prefetches are caught by the LLC) —
                    // unless the prefetcher marked it low-confidence, in
                    // which case only the LLC is filled (KPC-P semantics).
                    llc.access(pc, pf_addr, AccessKind::Prefetch, self.core);
                    if !request.fill_l2 {
                        continue;
                    }
                    self.pending_prefetch.push_back(target, self.l2_ticks + L2_PREFETCH_DELAY);
                }
                self.prefetch_buf = targets;
            }
        }
        level
    }

    /// Completes delayed L2 prefetch fills whose latency has elapsed.
    fn drain_ready_prefetches<P: ReplacementPolicy>(&mut self, llc: &mut SharedLlc<P>) {
        while let Some((line, ready_at)) = self.pending_prefetch.front() {
            if ready_at > self.l2_ticks {
                break;
            }
            self.pending_prefetch.pop_front();
            let pf_addr = line << 6;
            if self.l2.contains(pf_addr) {
                continue; // a demand access already brought it in
            }
            let pf = Access { pc: 0, addr: pf_addr, kind: AccessKind::Prefetch, core: self.core, seq: 0 };
            let pf_out = self.l2.access(&pf);
            if let Some(wb) = pf_out.writeback {
                llc.access(0, wb << 6, AccessKind::Writeback, self.core);
            }
        }
    }

    /// Writes a dirty L1D victim `line` back into the L2, forwarding the
    /// L2's own dirty victim (if the write-allocate evicted one) to the LLC.
    fn writeback_to_l2<P: ReplacementPolicy>(&mut self, line: u64, llc: &mut SharedLlc<P>) {
        let wb = Access { pc: 0, addr: line << 6, kind: AccessKind::Writeback, core: self.core, seq: 0 };
        if let Some(victim) = self.l2.access(&wb).writeback {
            llc.access(0, victim << 6, AccessKind::Writeback, self.core);
        }
    }

    /// Performs one demand data access (load or store) and returns the
    /// deepest level that serviced it.
    pub fn data_access<P: ReplacementPolicy>(
        &mut self,
        pc: u64,
        addr: u64,
        is_store: bool,
        llc: &mut SharedLlc<P>,
    ) -> ServiceLevel {
        let kind = if is_store { AccessKind::Rfo } else { AccessKind::Load };
        let access = Access { pc, addr, kind, core: self.core, seq: 0 };
        let out = self.l1d.access(&access);
        let level = if out.hit {
            ServiceLevel::L1
        } else {
            self.access_l2(pc, addr, kind, llc)
        };
        if let Some(wb) = out.writeback {
            self.writeback_to_l2(wb, llc);
        }

        if self.l1_prefetch.is_some() && !out.hit {
            let pf_addr = addr + crate::LINE_BYTES;
            if !self.l1d.contains(pf_addr) {
                let pf =
                    Access { pc, addr: pf_addr, kind: AccessKind::Prefetch, core: self.core, seq: 0 };
                let pf_out = self.l1d.access(&pf);
                self.access_l2(pc, pf_addr, AccessKind::Prefetch, llc);
                if let Some(wb) = pf_out.writeback {
                    self.writeback_to_l2(wb, llc);
                }
            }
        }
        level
    }

    /// Performs one instruction fetch for the line containing `pc`.
    pub fn instr_fetch<P: ReplacementPolicy>(&mut self, pc: u64, llc: &mut SharedLlc<P>) -> ServiceLevel {
        let access = Access { pc, addr: pc, kind: AccessKind::Load, core: self.core, seq: 0 };
        let out = self.l1i.access(&access);
        let level = if out.hit {
            ServiceLevel::L1
        } else {
            self.access_l2(pc, pc, AccessKind::Load, llc)
        };
        // Instruction lines are clean; evictions never write back.
        if self.l1_prefetch.is_some() && !out.hit {
            let pf_addr = pc + crate::LINE_BYTES;
            if !self.l1i.contains(pf_addr) {
                let pf =
                    Access { pc, addr: pf_addr, kind: AccessKind::Prefetch, core: self.core, seq: 0 };
                self.l1i.access(&pf);
                self.access_l2(pc, pf_addr, AccessKind::Prefetch, llc);
            }
        }
        level
    }
}

impl std::fmt::Debug for CoreHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreHierarchy")
            .field("core", &self.core)
            .field("l1i", &self.l1i)
            .field("l1d", &self.l1d)
            .field("l2", &self.l2)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (CoreHierarchy, SharedLlc<TrueLru>) {
        let cfg = SystemConfig::paper_single_core();
        let llc = SharedLlc::new(&cfg, TrueLru::new(&cfg.llc));
        (CoreHierarchy::new(0, &cfg), llc)
    }

    #[test]
    fn repeated_access_hits_in_l1() {
        let (mut h, mut llc) = system();
        assert_eq!(h.data_access(0x400, 0x10000, false, &mut llc), ServiceLevel::Memory);
        assert_eq!(h.data_access(0x400, 0x10000, false, &mut llc), ServiceLevel::L1);
    }

    #[test]
    fn llc_sees_l2_misses_only() {
        let (mut h, mut llc) = system();
        h.data_access(0x400, 0x2000_0000, false, &mut llc);
        let before = llc.stats().accesses();
        // This hits in L1, so no LLC traffic at all.
        h.data_access(0x400, 0x2000_0000, false, &mut llc);
        assert_eq!(llc.stats().accesses(), before);
    }

    #[test]
    fn next_line_prefetch_reaches_llc() {
        let cfg = SystemConfig::paper_single_core();
        let mut llc = SharedLlc::new(&cfg, TrueLru::new(&cfg.llc));
        let mut h = CoreHierarchy::new(0, &cfg);
        h.data_access(0x400, 0x3000_0000, false, &mut llc);
        let pf = llc.stats().by_kind[AccessKind::Prefetch.index()].accesses;
        assert!(pf >= 1, "L1 next-line prefetch must propagate to the LLC on a cold region");
    }

    #[test]
    fn prefetchers_can_be_disabled() {
        let cfg = SystemConfig::paper_single_core().without_prefetchers();
        let mut llc = SharedLlc::new(&cfg, TrueLru::new(&cfg.llc));
        let mut h = CoreHierarchy::new(0, &cfg);
        h.data_access(0x400, 0x3000_0000, false, &mut llc);
        assert_eq!(llc.stats().by_kind[AccessKind::Prefetch.index()].accesses, 0);
    }

    #[test]
    fn dirty_lines_write_back_through_the_hierarchy() {
        let cfg = SystemConfig::paper_single_core();
        let mut llc = SharedLlc::new(&cfg, TrueLru::new(&cfg.llc));
        let mut h = CoreHierarchy::new(0, &cfg);
        // Store to one line, then stream enough conflicting lines through the
        // same L1/L2 sets to force the dirty line all the way out.
        h.data_access(0x400, 0, true, &mut llc);
        for i in 1..=4096u64 {
            // Stride by L1-set-aliasing distance to evict quickly.
            h.data_access(0x400, i * 64 * 64, false, &mut llc);
        }
        let wb = llc.stats().by_kind[AccessKind::Writeback.index()].accesses;
        assert!(wb >= 1, "dirty L1 line must eventually be written back to the LLC");
    }

    #[test]
    fn capture_records_the_llc_stream() {
        let (mut h, mut llc) = system();
        llc.enable_capture();
        h.data_access(0x400, 0x4000_0000, false, &mut llc);
        let trace = llc.take_capture().expect("capture was enabled");
        assert!(!trace.is_empty());
        assert_eq!(trace.records()[0].line, 0x4000_0000 >> 6);
    }

    #[test]
    fn drain_capture_keeps_capturing() {
        let (mut h, mut llc) = system();
        assert!(llc.drain_capture().is_none(), "capture not enabled yet");
        llc.enable_capture();
        h.data_access(0x400, 0x4000_0000, false, &mut llc);
        let first = llc.drain_capture().expect("capture enabled");
        assert!(!first.is_empty());
        // Still capturing after the drain: a new line reaches the buffer.
        h.data_access(0x404, 0x5000_0000, false, &mut llc);
        let second = llc.take_capture().expect("capture still enabled");
        assert!(second.records().iter().any(|r| r.line == 0x5000_0000 >> 6));
        assert!(!second.records().iter().any(|r| r.line == 0x4000_0000 >> 6));
    }

    #[test]
    fn instruction_fetches_hit_after_first_touch() {
        let (mut h, mut llc) = system();
        h.instr_fetch(0x40_0000, &mut llc);
        assert_eq!(h.instr_fetch(0x40_0000, &mut llc), ServiceLevel::L1);
    }

    #[test]
    fn service_level_latencies_are_cumulative() {
        let cfg = SystemConfig::paper_single_core();
        assert_eq!(ServiceLevel::L1.latency(&cfg), 4);
        assert_eq!(ServiceLevel::L2.latency(&cfg), 16);
        assert_eq!(ServiceLevel::Llc.latency(&cfg), 42);
        assert_eq!(ServiceLevel::Memory.latency(&cfg), 242);
    }
}
