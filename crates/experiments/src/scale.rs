//! Experiment scaling: the paper's 200M-warm-up/1B-measure runs are scaled
//! down by default so the whole evaluation fits on a laptop; `RLR_SCALE=full`
//! approaches paper-scale runs.

/// Experiment scale, selected via the `RLR_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minutes-scale runs (default): qualitative shape reproduction.
    Small,
    /// Tens of minutes: tighter statistics.
    Medium,
    /// Hours: closest to the paper's methodology.
    Full,
}

impl Scale {
    /// Resolves the scale from the `RLR_SCALE` environment variable:
    /// `small` / `medium` / `full` in any case, and unset or empty means
    /// [`Scale::Small`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable on an unrecognized value: a
    /// typo silently falling back to `small` would mislabel every result
    /// the run produces.
    pub fn try_from_env() -> Result<Self, String> {
        let raw = std::env::var_os("RLR_SCALE").unwrap_or_default();
        let raw = raw.to_string_lossy();
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "full" => Ok(Scale::Full),
            _ => Err(format!("RLR_SCALE must be `small`, `medium` or `full`, got `{raw}`")),
        }
    }

    /// [`Scale::try_from_env`] for callers with no error channel.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `RLR_SCALE` value.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Warm-up instructions for single-core runs.
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Small => 2_000_000,
            Scale::Medium => 5_000_000,
            Scale::Full => 20_000_000,
        }
    }

    /// Measured instructions for single-core runs.
    pub fn instructions(self) -> u64 {
        match self {
            Scale::Small => 10_000_000,
            Scale::Medium => 40_000_000,
            Scale::Full => 200_000_000,
        }
    }

    /// Warm-up instructions per core for 4-core runs.
    pub fn mc_warmup(self) -> u64 {
        match self {
            Scale::Small => 500_000,
            Scale::Medium => 2_000_000,
            Scale::Full => 10_000_000,
        }
    }

    /// Measured instructions per core for 4-core runs.
    pub fn mc_instructions(self) -> u64 {
        match self {
            Scale::Small => 3_000_000,
            Scale::Medium => 10_000_000,
            Scale::Full => 50_000_000,
        }
    }

    /// Number of random 4-benchmark SPEC mixes (paper: 100).
    pub fn mix_count(self) -> usize {
        match self {
            Scale::Small => 8,
            Scale::Medium => 30,
            Scale::Full => 100,
        }
    }

    /// LLC trace length (records) for RL training and trace-driven stats.
    pub fn rl_trace_len(self) -> usize {
        match self {
            Scale::Small => 60_000,
            Scale::Medium => 150_000,
            Scale::Full => 400_000,
        }
    }

    /// Training epochs per benchmark for the RL agent.
    pub fn rl_epochs(self) -> usize {
        match self {
            Scale::Small => 3,
            Scale::Medium => 5,
            Scale::Full => 8,
        }
    }

    /// Hidden-layer width for the RL agent (paper: 175).
    pub fn rl_hidden(self) -> usize {
        match self {
            Scale::Small => 64,
            Scale::Medium => 128,
            Scale::Full => 175,
        }
    }

    /// LLC trace length for hill-climbing evaluations.
    pub fn hill_trace_len(self) -> usize {
        match self {
            Scale::Small => 15_000,
            Scale::Medium => 40_000,
            Scale::Full => 100_000,
        }
    }

    /// Maximum features the hill climb may select (paper finds 5).
    pub fn hill_max_features(self) -> usize {
        match self {
            Scale::Small => 5,
            Scale::Medium => 6,
            Scale::Full => 8,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Full => "full",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.instructions() < Scale::Medium.instructions());
        assert!(Scale::Medium.instructions() < Scale::Full.instructions());
        assert!(Scale::Small.mix_count() < Scale::Full.mix_count());
    }

    #[test]
    fn display_names_round_trip() {
        assert_eq!(Scale::Small.to_string(), "small");
        assert_eq!(Scale::Full.to_string(), "full");
    }
}
