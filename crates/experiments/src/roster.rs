//! The policy roster: every replacement policy the paper evaluates,
//! constructible by name.

use cache_sim::{Access, CacheConfig, LlcTrace, RandomLite, ReplacementPolicy, TrueLru};
use policies::{Belady, Brrip, Drrip, Eva, Fifo, Hawkeye, KpcR, Pdp, Ship, ShipPp, Srrip};
use rlr::RlrPolicy;

/// Every LLC replacement policy as one concrete enum, so the simulator's
/// hot path dispatches policy callbacks with a jump table (or better, after
/// inlining) instead of a virtual call through `Box<dyn ReplacementPolicy>`.
///
/// This type lives here — not in `cache-sim` — because it must name every
/// concrete policy type, and the policy crates depend on `cache-sim`.
/// [`PolicyKind::build`] constructs it; `SetAssocCache<LlcPolicy>` (via
/// `SingleCoreSystem::new(&config, kind.build(..))`) monomorphizes the
/// cache over it. The `ReplacementPolicy` trait remains the construction
/// boundary: anything that implements it still works boxed through the
/// cache's default `Box<dyn ReplacementPolicy>` parameter.
#[derive(Debug)]
pub enum LlcPolicy {
    /// True LRU.
    Lru(TrueLru),
    /// FIFO.
    Fifo(Fifo),
    /// Pseudo-random.
    Random(RandomLite),
    /// Static RRIP.
    Srrip(Srrip),
    /// Bimodal RRIP.
    Brrip(Brrip),
    /// Dynamic RRIP.
    Drrip(Drrip),
    /// KPC-R.
    KpcR(KpcR),
    /// SHiP.
    Ship(Ship),
    /// SHiP++.
    ShipPp(ShipPp),
    /// Hawkeye.
    Hawkeye(Hawkeye),
    /// PDP.
    Pdp(Pdp),
    /// EVA.
    Eva(Eva),
    /// RLR in any of its variants (optimized / unoptimized / multicore —
    /// all are configurations of [`RlrPolicy`]).
    Rlr(RlrPolicy),
    /// Belady's offline optimal.
    Belady(Box<Belady>),
}

/// Forwards one trait method to whichever policy the enum holds.
macro_rules! dispatch {
    ($self:expr, $p:pat => $body:expr) => {
        match $self {
            LlcPolicy::Lru($p) => $body,
            LlcPolicy::Fifo($p) => $body,
            LlcPolicy::Random($p) => $body,
            LlcPolicy::Srrip($p) => $body,
            LlcPolicy::Brrip($p) => $body,
            LlcPolicy::Drrip($p) => $body,
            LlcPolicy::KpcR($p) => $body,
            LlcPolicy::Ship($p) => $body,
            LlcPolicy::ShipPp($p) => $body,
            LlcPolicy::Hawkeye($p) => $body,
            LlcPolicy::Pdp($p) => $body,
            LlcPolicy::Eva($p) => $body,
            LlcPolicy::Rlr($p) => $body,
            LlcPolicy::Belady($p) => $body,
        }
    };
}

impl ReplacementPolicy for LlcPolicy {
    fn name(&self) -> String {
        dispatch!(self, p => p.name())
    }

    fn on_miss(&mut self, set: u32, access: &Access) {
        dispatch!(self, p => p.on_miss(set, access));
    }

    fn select_victim(&mut self, set: u32, access: &Access) -> u16 {
        dispatch!(self, p => p.select_victim(set, access))
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        dispatch!(self, p => p.on_hit(set, way, access));
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        dispatch!(self, p => p.on_fill(set, way, access));
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        dispatch!(self, p => p.overhead_bits(config))
    }
}

/// A replacement policy selectable by the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// True LRU (the baseline all speedups are relative to).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random.
    Random,
    /// Static RRIP.
    Srrip,
    /// Bimodal RRIP.
    Brrip,
    /// Dynamic RRIP (set dueling).
    Drrip,
    /// KPC-R (non-PC adaptive insertion).
    KpcR,
    /// SHiP (PC-based).
    Ship,
    /// SHiP++ (PC-based).
    ShipPp,
    /// Hawkeye (PC-based, OPTgen).
    Hawkeye,
    /// Protecting Distance based Policy.
    Pdp,
    /// Economic Value Added.
    Eva,
    /// RLR, optimized hardware variant (the paper's contribution).
    Rlr,
    /// RLR without the §IV-C overhead optimizations.
    RlrUnopt,
    /// RLR with the §IV-D multicore extension (4 cores).
    RlrMulticore,
    /// Belady's optimal (needs a captured trace).
    Belady,
}

impl PolicyKind {
    /// The policies of the paper's single-core comparison (Figs. 10–12),
    /// excluding the LRU baseline.
    pub const SINGLE_CORE: [PolicyKind; 7] = [
        PolicyKind::Drrip,
        PolicyKind::KpcR,
        PolicyKind::Ship,
        PolicyKind::Rlr,
        PolicyKind::RlrUnopt,
        PolicyKind::Hawkeye,
        PolicyKind::ShipPp,
    ];

    /// The policies of the 4-core comparison (Fig. 13), excluding LRU;
    /// RLR runs with its multicore extension.
    pub const MULTI_CORE: [PolicyKind; 6] = [
        PolicyKind::Drrip,
        PolicyKind::KpcR,
        PolicyKind::Ship,
        PolicyKind::RlrMulticore,
        PolicyKind::Hawkeye,
        PolicyKind::ShipPp,
    ];

    /// Every implementable policy (excludes Belady's oracle).
    pub const ALL_ONLINE: [PolicyKind; 15] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
        PolicyKind::KpcR,
        PolicyKind::Ship,
        PolicyKind::ShipPp,
        PolicyKind::Hawkeye,
        PolicyKind::Pdp,
        PolicyKind::Eva,
        PolicyKind::Rlr,
        PolicyKind::RlrUnopt,
        PolicyKind::RlrMulticore,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::KpcR => "KPC-R",
            PolicyKind::Ship => "SHiP",
            PolicyKind::ShipPp => "SHiP++",
            PolicyKind::Hawkeye => "Hawkeye",
            PolicyKind::Pdp => "PDP",
            PolicyKind::Eva => "EVA",
            PolicyKind::Rlr => "RLR",
            PolicyKind::RlrUnopt => "RLR(unopt)",
            PolicyKind::RlrMulticore => "RLR",
            PolicyKind::Belady => "Belady",
        }
    }

    /// Whether the policy requires PC information at the LLC (Table I's
    /// "Uses PC" column).
    pub fn uses_pc(self) -> bool {
        matches!(self, PolicyKind::Ship | PolicyKind::ShipPp | PolicyKind::Hawkeye)
    }

    /// Builds the policy for a cache geometry. `trace` is required only for
    /// [`PolicyKind::Belady`].
    ///
    /// # Panics
    ///
    /// Panics if Belady is requested without a trace.
    pub fn build(self, config: &CacheConfig, trace: Option<&LlcTrace>) -> LlcPolicy {
        match self {
            PolicyKind::Lru => LlcPolicy::Lru(TrueLru::new(config)),
            PolicyKind::Fifo => LlcPolicy::Fifo(Fifo::new(config)),
            PolicyKind::Random => LlcPolicy::Random(RandomLite::new(config)),
            PolicyKind::Srrip => LlcPolicy::Srrip(Srrip::new(config)),
            PolicyKind::Brrip => LlcPolicy::Brrip(Brrip::new(config)),
            PolicyKind::Drrip => LlcPolicy::Drrip(Drrip::new(config)),
            PolicyKind::KpcR => LlcPolicy::KpcR(KpcR::new(config)),
            PolicyKind::Ship => LlcPolicy::Ship(Ship::new(config)),
            PolicyKind::ShipPp => LlcPolicy::ShipPp(ShipPp::new(config)),
            PolicyKind::Hawkeye => LlcPolicy::Hawkeye(Hawkeye::new(config)),
            PolicyKind::Pdp => LlcPolicy::Pdp(Pdp::new(config)),
            PolicyKind::Eva => LlcPolicy::Eva(Eva::new(config)),
            PolicyKind::Rlr => LlcPolicy::Rlr(RlrPolicy::optimized(config)),
            PolicyKind::RlrUnopt => LlcPolicy::Rlr(RlrPolicy::unoptimized(config)),
            PolicyKind::RlrMulticore => LlcPolicy::Rlr(RlrPolicy::multicore(4, config)),
            PolicyKind::Belady => LlcPolicy::Belady(Box::new(Belady::from_trace(
                trace.expect("Belady needs a captured LLC trace"),
                config,
            ))),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_online_policy_builds() {
        let cfg = CacheConfig { sets: 64, ways: 8, latency: 1 };
        for kind in PolicyKind::ALL_ONLINE {
            let p = kind.build(&cfg, None);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn pc_flags_match_table_i() {
        assert!(!PolicyKind::Lru.uses_pc());
        assert!(!PolicyKind::Drrip.uses_pc());
        assert!(!PolicyKind::KpcR.uses_pc());
        assert!(!PolicyKind::Rlr.uses_pc());
        assert!(PolicyKind::Ship.uses_pc());
        assert!(PolicyKind::ShipPp.uses_pc());
        assert!(PolicyKind::Hawkeye.uses_pc());
    }

    #[test]
    #[should_panic(expected = "captured LLC trace")]
    fn belady_without_trace_panics() {
        let cfg = CacheConfig { sets: 4, ways: 2, latency: 1 };
        let _ = PolicyKind::Belady.build(&cfg, None);
    }
}
