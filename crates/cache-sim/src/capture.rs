//! In-memory LLC access traces: the `<PC, access type, address>` records the
//! paper's offline pipeline (RL agent, Belady oracle) consumes. The
//! on-disk format lives in the `trace-io` crate.

use crate::access::AccessKind;

/// One captured LLC access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LlcRecord {
    /// Program counter of the triggering instruction (0 for writebacks).
    pub pc: u64,
    /// Line address (byte address >> 6).
    pub line: u64,
    /// Access kind at the LLC.
    pub kind: AccessKind,
    /// Issuing core.
    pub core: u8,
}

/// An ordered LLC access trace.
///
/// The record index *is* the LLC sequence number, so offline oracles keyed
/// by sequence number line up exactly with a re-run of the same workload.
///
/// ```
/// use cache_sim::{AccessKind, LlcRecord, LlcTrace};
///
/// let mut t = LlcTrace::new();
/// t.push(LlcRecord { pc: 1, line: 7, kind: AccessKind::Load, core: 0 });
/// t.push(LlcRecord { pc: 2, line: 9, kind: AccessKind::Load, core: 0 });
/// t.push(LlcRecord { pc: 1, line: 7, kind: AccessKind::Load, core: 0 });
/// let next = t.next_use_table();
/// assert_eq!(next[0], 2);          // line 7 is used again at index 2
/// assert_eq!(next[1], u64::MAX);   // line 9 is never used again
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LlcTrace {
    records: Vec<LlcRecord>,
}

impl LlcTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: LlcRecord) {
        self.records.push(record);
    }

    /// The captured records in access order.
    pub fn records(&self) -> &[LlcRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Shortens the trace to at most `len` records.
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// The records issued by `core`, in their original global order — the
    /// per-core slice of a shared-LLC capture.
    pub fn filter_core(&self, core: u8) -> LlcTrace {
        Self { records: self.records.iter().copied().filter(|r| r.core == core).collect() }
    }

    /// Distinct issuing cores present in the trace, ascending.
    pub fn cores(&self) -> Vec<u8> {
        let mut seen = [false; 256];
        for r in &self.records {
            seen[usize::from(r.core)] = true;
        }
        (0u16..256).filter(|&c| seen[c as usize]).map(|c| c as u8).collect()
    }

    /// For each access index `i`, the index of the *next* access to the same
    /// line, or `u64::MAX` if the line is never referenced again. This is the
    /// oracle used by Belady's algorithm and by the RL reward.
    pub fn next_use_table(&self) -> Vec<u64> {
        let mut next = vec![u64::MAX; self.records.len()];
        let mut last_seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for i in (0..self.records.len()).rev() {
            let line = self.records[i].line;
            if let Some(&j) = last_seen.get(&line) {
                next[i] = j;
            }
            last_seen.insert(line, i as u64);
        }
        next
    }
}

impl FromIterator<LlcRecord> for LlcTrace {
    fn from_iter<T: IntoIterator<Item = LlcRecord>>(iter: T) -> Self {
        Self { records: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: u64) -> LlcRecord {
        LlcRecord { pc: 0x400, line, kind: AccessKind::Load, core: 0 }
    }

    #[test]
    fn next_use_handles_repeats_and_tail() {
        let t: LlcTrace = [rec(1), rec(2), rec(1), rec(1), rec(2)].into_iter().collect();
        assert_eq!(t.next_use_table(), vec![2, 4, 3, u64::MAX, u64::MAX]);
    }

    #[test]
    fn filter_core_keeps_order_and_partitions_the_trace() {
        let t: LlcTrace = (0..10u64)
            .map(|i| LlcRecord { pc: i, line: i * 3, kind: AccessKind::Load, core: (i % 3) as u8 })
            .collect();
        assert_eq!(t.cores(), vec![0, 1, 2]);
        let total: usize = t.cores().iter().map(|&c| t.filter_core(c).len()).sum();
        assert_eq!(total, t.len());
        let c1 = t.filter_core(1);
        assert!(c1.records().iter().all(|r| r.core == 1));
        assert!(c1.records().windows(2).all(|w| w[0].pc < w[1].pc), "order preserved");
        assert!(t.filter_core(9).is_empty());
    }
}
