//! The evaluation harness: reproduces every table and figure of the RLR
//! paper (HPCA 2021).
//!
//! Each experiment is a function returning one or more [`report::Table`]s
//! that can be printed and saved as CSV. The `rlr-bench` crate exposes one
//! `cargo bench` target per experiment; everything honours the `RLR_SCALE`
//! environment variable (`small` / `medium` / `full`) via [`Scale`].
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table I (storage overhead) | [`tables::table1`] |
//! | Fig. 1 (LLC hit rate incl. RL + Belady) | [`figures::fig1`] |
//! | Fig. 3 (weight heat map) | [`figures::fig3`] |
//! | Fig. 4 (preuse vs reuse gap) | [`figures::fig4`] |
//! | Fig. 5 (victim age by type) | [`figures::fig5`] |
//! | Fig. 6 (victim hits) | [`figures::fig6`] |
//! | Fig. 7 (victim recency) | [`figures::fig7`] |
//! | Fig. 10 (SPEC speedups) | [`figures::fig10`] |
//! | Fig. 11 (CloudSuite speedups) | [`figures::fig11`] |
//! | Fig. 12 (demand MPKI) | [`figures::fig12`] |
//! | Fig. 13 (4-core mixes) | [`figures::fig13`] |
//! | Table IV (overall speedups) | [`tables::table4`] |
//! | §V-B ablations + §IV-C sweeps | [`ablations`] |

pub mod ablations;
pub mod checkpoint;
pub mod corpus;
pub mod doctor;
pub mod fault;
pub mod figures;
pub mod json;
pub mod objects;
pub mod pipeline;
pub mod report;
pub mod roster;
pub mod runner;
pub mod scale;
pub mod tables;
pub mod tenancy;

pub use report::Table;
pub use roster::{LlcPolicy, PolicyKind};
pub use runner::{CellResult, RunnerError, TaskFailure};
pub use scale::Scale;

/// Geometric mean of (1 + x/100) speedup percentages, returned as a
/// percentage — the paper's overall-speedup aggregation.
pub fn geomean_speedup_pct(pcts: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for p in pcts {
        log_sum += (1.0 + p / 100.0).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        ((log_sum / n as f64).exp() - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_identity() {
        let g = geomean_speedup_pct([5.0, 5.0, 5.0]);
        assert!((g - 5.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_handles_negatives_and_empty() {
        assert_eq!(geomean_speedup_pct([]), 0.0);
        let g = geomean_speedup_pct([10.0, -10.0]);
        assert!(g < 0.1 && g > -0.6, "≈ sqrt(1.1*0.9)-1: {g}");
    }
}
