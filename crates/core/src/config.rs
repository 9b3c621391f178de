//! RLR configuration: every design choice the paper makes (and ablates) is
//! a knob here.

/// What the per-line age counter counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AgeUnit {
    /// Count every set access (the unoptimized design).
    SetAccesses,
    /// Count epochs of `misses_per_epoch` set misses, via a small per-set
    /// counter (the optimized design; the paper uses 8 misses per epoch
    /// tracked by a 3-bit counter).
    MissEpochs {
        /// Set misses per age increment (must be a power of two).
        misses_per_epoch: u32,
    },
}

/// How recency is obtained for tie-breaking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecencyMode {
    /// Exact access order, `log2(ways)` bits per line.
    Exact,
    /// The paper's optimization: the most recently accessed line is the one
    /// with age 0; among equal ages, the lowest way index is evicted.
    AgeApprox,
}

/// Full configuration of an [`crate::RlrPolicy`].
///
/// ```
/// use rlr::RlrConfig;
///
/// let opt = RlrConfig::optimized();
/// assert_eq!(opt.age_bits, 2);
/// let unopt = RlrConfig::unoptimized();
/// assert_eq!(unopt.age_bits, 5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RlrConfig {
    /// Width of the per-line age counter (saturating).
    pub age_bits: u32,
    /// What one age tick means.
    pub age_unit: AgeUnit,
    /// Width of the per-line hit counter (1 = hit register).
    pub hit_bits: u32,
    /// Include the hit priority `P_hit` (ablation: §V-B).
    pub use_hit_priority: bool,
    /// Include the type priority `P_type` (ablation: §V-B).
    pub use_type_priority: bool,
    /// Weight of the age priority in the weighted sum (paper: 8, a 3-bit
    /// left shift).
    pub age_weight: u32,
    /// RD is `rd_multiplier ×` the windowed average preuse distance
    /// (paper: 2.0).
    pub rd_multiplier: f64,
    /// Demand hits per RD update window (paper: 32; power of two so the
    /// average is a shift).
    pub demand_hit_window: u32,
    /// Exclude demand hits whose line was last touched by a prefetch or a
    /// writeback from the RD accumulator. Such touches reset the line's age
    /// just before the demand re-reference, so the measured gap reflects
    /// prefetch timeliness or an L2 round-trip rather than a reuse
    /// distance, and would drag RD far below the real reuse distances. The
    /// needed "last touch was a demand" bit is derivable from the type
    /// register plus the hit register's update rule, so this costs no extra
    /// per-line state.
    pub rd_ignores_non_demand_preuse: bool,
    /// Recency tie-breaking mode.
    pub recency: RecencyMode,
    /// Enable the multicore `P_core` term for this many cores (0 = off).
    pub core_priority_cores: u8,
    /// LLC accesses between core-priority re-rankings (paper: 2000).
    pub core_update_period: u64,
}

impl RlrConfig {
    /// The paper's final hardware design (§IV-C): 16.75 KB on a 2 MB LLC.
    pub fn optimized() -> Self {
        Self {
            age_bits: 2,
            age_unit: AgeUnit::MissEpochs { misses_per_epoch: 8 },
            hit_bits: 1,
            use_hit_priority: true,
            use_type_priority: true,
            age_weight: 8,
            rd_multiplier: 2.0,
            demand_hit_window: 32,
            rd_ignores_non_demand_preuse: true,
            recency: RecencyMode::AgeApprox,
            core_priority_cores: 0,
            core_update_period: 2000,
        }
    }

    /// `RLR(unopt)`: the pre-optimization design (§V-B): 5-bit ages in set
    /// accesses, a 2-bit hit counter, and exact recency.
    pub fn unoptimized() -> Self {
        Self {
            age_bits: 5,
            age_unit: AgeUnit::SetAccesses,
            hit_bits: 2,
            recency: RecencyMode::Exact,
            ..Self::optimized()
        }
    }

    /// The multicore extension (§IV-D) on top of the optimized design.
    pub fn multicore(cores: u8) -> Self {
        Self { core_priority_cores: cores, ..Self::optimized() }
    }

    /// Largest representable age.
    pub fn max_age(&self) -> u64 {
        (1 << self.age_bits) - 1
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a window or epoch size is not a positive power of two, or
    /// if widths are zero.
    pub fn validate(&self) {
        assert!(self.age_bits > 0 && self.age_bits <= 16, "age counter width out of range");
        assert!(
            self.hit_bits > 0 && self.hit_bits <= crate::packed::LineMeta::MAX_HIT_BITS,
            "hit counter width out of range (packed layout holds at most 6 bits)"
        );
        assert!(
            self.demand_hit_window.is_power_of_two(),
            "demand-hit window must be a power of two (hardware shift)"
        );
        assert!(self.rd_multiplier > 0.0, "RD multiplier must be positive");
        // The victim scan packs the total priority into a 10-bit key
        // field; the worst case is age_weight + type + hit + top core rank.
        assert!(
            self.age_weight + 2 + u32::from(self.core_priority_cores.saturating_sub(1)) <= 1023,
            "maximum line priority must fit the victim key's 10-bit field"
        );
        if let AgeUnit::MissEpochs { misses_per_epoch } = self.age_unit {
            assert!(
                misses_per_epoch.is_power_of_two() && misses_per_epoch > 0,
                "misses per epoch must be a positive power of two"
            );
        }
    }
}

impl Default for RlrConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        RlrConfig::optimized().validate();
        RlrConfig::unoptimized().validate();
        RlrConfig::multicore(4).validate();
    }

    #[test]
    fn optimized_matches_paper_parameters() {
        let c = RlrConfig::optimized();
        assert_eq!(c.age_bits, 2);
        assert_eq!(c.hit_bits, 1);
        assert_eq!(c.age_weight, 8);
        assert_eq!(c.demand_hit_window, 32);
        assert_eq!(c.rd_multiplier, 2.0);
        assert_eq!(c.age_unit, AgeUnit::MissEpochs { misses_per_epoch: 8 });
        assert_eq!(c.recency, RecencyMode::AgeApprox);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_window_panics() {
        let mut c = RlrConfig::optimized();
        c.demand_hit_window = 33;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hit counter width")]
    fn hit_counter_wider_than_packed_layout_panics() {
        let mut c = RlrConfig::optimized();
        c.hit_bits = 7;
        c.validate();
    }

    #[test]
    fn max_age_tracks_width() {
        assert_eq!(RlrConfig::optimized().max_age(), 3);
        assert_eq!(RlrConfig::unoptimized().max_age(), 31);
    }
}
