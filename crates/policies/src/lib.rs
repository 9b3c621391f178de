//! Baseline LLC replacement policies for the RLR reproduction.
//!
//! Implements every comparison policy the paper simulates:
//!
//! * recency family: [`TrueLru`](cache_sim::TrueLru) (from `cache-sim`),
//!   [`Fifo`],
//! * RRIP family: [`Srrip`], [`Brrip`], [`Drrip`] (set dueling),
//! * PC-based state of the art: [`Ship`], [`ShipPp`], [`Hawkeye`],
//! * non-PC adaptive: [`KpcR`], [`Pdp`], [`Eva`],
//! * the offline optimum: [`Belady`] (with its oracle built from a captured
//!   LLC trace).
//!
//! All policies implement [`cache_sim::ReplacementPolicy`] and report their
//! hardware metadata cost via `overhead_bits`, reproducing Table I. The
//! designs the paper cites only in Table I have no simulator here:
//! `experiments::tables::table1` computes their rows as storage formulas.
//!
//! ```
//! use cache_sim::{CacheConfig, ReplacementPolicy};
//! use policies::Drrip;
//!
//! let cfg = CacheConfig::with_capacity_kb(2048, 16, 26);
//! let drrip = Drrip::new(&cfg);
//! // Table I: DRRIP costs 8 KB (plus a PSEL counter) in a 16-way 2 MB cache.
//! assert_eq!(drrip.overhead_bits(&cfg), 8 * 1024 * 8 + 10);
//! ```

mod belady;
mod eva;
mod fifo;
mod hawkeye;
mod kpc;
mod pdp;
mod rrip;
mod ship;
mod shippp;

pub use belady::Belady;
pub use eva::Eva;
pub use fifo::Fifo;
pub use hawkeye::Hawkeye;
pub use kpc::KpcR;
pub use pdp::Pdp;
pub use rrip::{Brrip, Drrip, Srrip};
pub use ship::Ship;
pub use shippp::ShipPp;

/// Hashes a program counter into a signature of `bits` bits, as used by the
/// PC-indexed predictors (SHiP, SHiP++, Hawkeye).
pub(crate) fn pc_signature(pc: u64, bits: u32) -> u64 {
    let mut h = pc >> 2; // drop instruction alignment bits
    h ^= h >> 17;
    h = h.wrapping_mul(0xED5A_D4BB);
    h ^= h >> 11;
    h = h.wrapping_mul(0xAC4C_1B51);
    h ^= h >> 15;
    h & ((1 << bits) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_fit_in_requested_bits() {
        for pc in [0u64, 0x400_000, 0xdead_beef, u64::MAX] {
            assert!(pc_signature(pc, 14) < (1 << 14));
            assert!(pc_signature(pc, 13) < (1 << 13));
        }
    }

    #[test]
    fn signatures_spread_nearby_pcs() {
        let a = pc_signature(0x40_0000, 14);
        let b = pc_signature(0x40_0004, 14);
        let c = pc_signature(0x40_0008, 14);
        assert!(a != b || b != c, "adjacent PCs should not all collide");
    }
}
