//! Bit-packed codecs for RLR's per-line and per-set metadata (paper §IV-C).
//!
//! The optimized hardware design stores **4 bits per line** — a 2-bit age
//! counter, a 1-bit hit register, and a 1-bit type register — plus a
//! **3-bit miss counter per set** that advances the set's age epoch every
//! 8 misses. Those widths are what make the policy cost 16.75 KB on a
//! 2 MB LLC (Table I).
//!
//! This module is the one place where those layouts are defined:
//!
//! * [`LineMeta`] is the byte-wide packing the simulator actually uses on
//!   its hot path — the hit counter and both type flags of a line live in
//!   a single byte, one of the byte rows [`crate::RlrPolicy`] keeps per
//!   set beside the age row (and, when configured, the exact-recency rank
//!   and core rows).
//! * [`HwLineState`] and [`EpochPhase`] are the true hardware nibble/3-bit
//!   encodings. The simulator keeps each field in a byte of its own and,
//!   like the hardware, ages a whole set's row at once on an epoch
//!   rollover; these codecs pin down — and the property tests verify —
//!   that the state the policy relies on round-trips through the
//!   advertised bit budget.

/// Per-line policy metadata packed into one byte.
///
/// Layout: bits `0..=5` hold the saturating hit counter (wide enough for
/// any [`crate::RlrConfig::hit_bits`] up to [`Self::MAX_HIT_BITS`]),
/// bit 6 records whether the line's last access was a prefetch, and bit 7
/// whether it was a demand access (the RD filter's "last touch was a
/// demand" bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct LineMeta(u8);

impl LineMeta {
    /// Mask of the hit-counter field within [`Self::bits`].
    pub const HIT_MASK: u8 = (1 << Self::MAX_HIT_BITS) - 1;
    /// The "last access was a prefetch" flag within [`Self::bits`].
    pub const PREFETCH_BIT: u8 = 1 << 6;
    const DEMAND_BIT: u8 = 1 << 7;

    /// The raw packed byte, as [`crate::RlrPolicy`]'s meta row stores it.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The metadata a [`Self::bits`] byte holds.
    pub fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Widest hit counter the packed layout can hold.
    pub const MAX_HIT_BITS: u32 = 6;

    /// The state of a line right after a fill: zero hits, access type from
    /// the filling request.
    pub fn filled(prefetch: bool, demand: bool) -> Self {
        let mut m = Self(0);
        m.set_access_type(prefetch, demand);
        m
    }

    /// Hits since insertion (saturation is the caller's policy).
    pub fn hit_count(self) -> u8 {
        self.0 & Self::HIT_MASK
    }

    /// Overwrites the hit counter, leaving the type flags untouched.
    pub fn set_hit_count(&mut self, count: u8) {
        debug_assert!(count <= Self::HIT_MASK, "hit count {count} overflows the packed field");
        self.0 = (self.0 & !Self::HIT_MASK) | (count & Self::HIT_MASK);
    }

    /// Was the last access to this line a prefetch?
    pub fn last_prefetch(self) -> bool {
        self.0 & Self::PREFETCH_BIT != 0
    }

    /// Was the last access to this line a demand access?
    pub fn last_demand(self) -> bool {
        self.0 & Self::DEMAND_BIT != 0
    }

    /// Records the type of the latest access, leaving the hit counter
    /// untouched.
    pub fn set_access_type(&mut self, prefetch: bool, demand: bool) {
        self.0 = (self.0 & Self::HIT_MASK)
            | if prefetch { Self::PREFETCH_BIT } else { 0 }
            | if demand { Self::DEMAND_BIT } else { 0 };
    }
}

/// The paper's 4-bit per-line hardware state: 2-bit age, 1-bit hit
/// register, 1-bit type register.
///
/// Layout (low to high): bits `0..=1` age, bit 2 hit, bit 3 type
/// (1 = last access was a prefetch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HwLineState {
    /// Saturating age in miss epochs, `0..=3`.
    pub age: u8,
    /// Has the line been hit since insertion?
    pub hit: bool,
    /// Was the last access a prefetch?
    pub prefetched: bool,
}

impl HwLineState {
    /// Bits per line in the optimized design.
    pub const BITS: u32 = 4;
    /// Largest representable age (2-bit counter).
    pub const MAX_AGE: u8 = 0b11;

    /// Packs into the low nibble of a byte.
    pub fn pack(self) -> u8 {
        debug_assert!(self.age <= Self::MAX_AGE, "age {} overflows 2 bits", self.age);
        (self.age & Self::MAX_AGE) | (u8::from(self.hit) << 2) | (u8::from(self.prefetched) << 3)
    }

    /// Decodes the low nibble of a byte; higher bits are ignored.
    pub fn unpack(nibble: u8) -> Self {
        Self {
            age: nibble & Self::MAX_AGE,
            hit: nibble & (1 << 2) != 0,
            prefetched: nibble & (1 << 3) != 0,
        }
    }
}

/// The 3-bit per-set miss counter of the optimized design: counts set
/// misses modulo 8; every wrap is an epoch boundary, at which each line
/// in the set ages by one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochPhase(u8);

impl EpochPhase {
    /// Bits per set in the optimized design.
    pub const BITS: u32 = 3;
    /// Misses per epoch (the counter's modulus).
    pub const MODULUS: u8 = 1 << Self::BITS;

    /// Encodes into the low [`Self::BITS`] bits of a byte.
    pub fn pack(self) -> u8 {
        self.0 & (Self::MODULUS - 1)
    }

    /// Decodes the low [`Self::BITS`] bits of a byte; higher bits are
    /// ignored.
    pub fn unpack(bits: u8) -> Self {
        Self(bits & (Self::MODULUS - 1))
    }

    /// Current phase within the epoch, `0..MODULUS`.
    pub fn phase(self) -> u8 {
        self.0
    }

    /// Advances on a set miss; returns `true` when the counter wraps — an
    /// epoch boundary.
    pub fn tick(&mut self) -> bool {
        self.0 = (self.0 + 1) % Self::MODULUS;
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_meta_fields_are_independent() {
        let mut m = LineMeta::filled(true, false);
        assert_eq!(m.hit_count(), 0);
        assert!(m.last_prefetch());
        assert!(!m.last_demand());
        m.set_hit_count(63);
        assert_eq!(m.hit_count(), 63);
        assert!(m.last_prefetch(), "hit-count store must not clobber the flags");
        m.set_access_type(false, true);
        assert_eq!(m.hit_count(), 63, "type store must not clobber the counter");
        assert!(!m.last_prefetch());
        assert!(m.last_demand());
    }

    #[test]
    fn hw_state_uses_one_nibble() {
        let s = HwLineState { age: 3, hit: true, prefetched: true };
        assert!(s.pack() < 16, "must fit in 4 bits");
        assert_eq!(HwLineState::unpack(s.pack()), s);
    }

    #[test]
    fn epoch_phase_wraps_every_eight_ticks() {
        let mut p = EpochPhase::default();
        for _ in 0..7 {
            assert!(!p.tick());
        }
        assert!(p.tick(), "the eighth miss is the epoch boundary");
        assert_eq!(p.phase(), 0);
    }
}
