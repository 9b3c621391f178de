//! A minimal property-test harness: seeded case generation, shrink-by-
//! halving, and failure-seed reporting.
//!
//! Replaces the external `proptest` dependency for the workspace's
//! invariant suites. A property is a closure from a generated case to
//! `Result<(), String>`; the [`prop_assert!`](crate::prop_assert!) family produces the `Err`
//! side with context. On failure the harness shrinks the case (halving
//! vectors, halving scalars toward zero), then panics with the per-case
//! seed so the exact failure replays under `PROP_SEED`.
//!
//! ```
//! use simrng::prop::{check, Config};
//! use simrng::Rng;
//!
//! check(
//!     "reverse twice is identity",
//!     Config::default(),
//!     |rng| {
//!         let n = rng.gen_range(0..64usize);
//!         (0..n).map(|_| rng.gen_range(0..100u32)).collect::<Vec<_>>()
//!     },
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         simrng::prop_assert_eq!(&w, v);
//!         Ok(())
//!     },
//! );
//! ```

use crate::{splitmix64, SimRng};

/// Harness configuration: number of cases and the base seed.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Generated cases per property (`PROP_CASES` overrides).
    pub cases: u32,
    /// Base seed; each case derives its own seed from it (`PROP_SEED`
    /// overrides, which is how a reported failure is replayed).
    pub seed: u64,
    /// Cap on shrink iterations after a failure.
    pub max_shrink: u32,
}

impl Default for Config {
    fn default() -> Self {
        let env_u64 = |key: &str| -> Option<u64> {
            let raw = std::env::var(key).ok()?;
            let raw = raw.trim();
            raw.strip_prefix("0x")
                .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        };
        Self {
            cases: env_u64("PROP_CASES").map_or(32, |c| c as u32),
            seed: env_u64("PROP_SEED").unwrap_or(0x05EE_DF0C_A5E5),
            max_shrink: 256,
        }
    }
}

impl Config {
    /// A configuration running `cases` cases with the default seed.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases, ..Self::default() }
    }
}

/// Values the harness knows how to shrink toward a minimal counterexample.
///
/// The default implementation offers no candidates (scalars that cannot
/// meaningfully shrink, opaque types). Implementations return *smaller*
/// candidate values; the harness keeps any candidate that still fails and
/// recurses on it.
pub trait Shrink: Sized {
    /// Candidate smaller values, most aggressive first.
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

impl<T: Clone> Shrink for Vec<T> {
    /// Halving: first half, second half, then the vector minus each
    /// quarter — drives the length down by powers of two.
    fn shrink_candidates(&self) -> Vec<Self> {
        let n = self.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut out = vec![self[..n / 2].to_vec(), self[n / 2..].to_vec()];
        if n >= 4 {
            let q = n / 4;
            let mut without_mid = self[..q].to_vec();
            without_mid.extend_from_slice(&self[3 * q..]);
            out.push(without_mid);
        }
        out
    }
}

macro_rules! shrink_halving {
    ($($t:ty),+) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                if *self == 0 { Vec::new() } else { vec![*self / 2, 0] }
            }
        }
    )+};
}

shrink_halving!(u8, u16, u32, u64, usize);

/// Pairs shrink their first element (the usual "sequence + parameter"
/// shape of the workspace's properties).
impl<A: Shrink, B: Clone> Shrink for (A, B) {
    fn shrink_candidates(&self) -> Vec<Self> {
        self.0
            .shrink_candidates()
            .into_iter()
            .map(|a| (a, self.1.clone()))
            .collect()
    }
}

/// Runs `prop` against `config.cases` generated cases.
///
/// # Panics
///
/// Panics with the failing (shrunk) case, its error, and the seed needed to
/// replay it when the property is falsified.
pub fn check<T, G, P>(name: &str, config: Config, mut gen: G, mut prop: P)
where
    T: Shrink + std::fmt::Debug,
    G: FnMut(&mut SimRng) -> T,
    P: FnMut(&T) -> Result<(), String>,
{
    for case in 0..config.cases {
        // Per-case seed: replaying `PROP_SEED=<reported>` with one case
        // regenerates exactly this input.
        let mut salt = config.seed ^ u64::from(case);
        let case_seed = splitmix64(&mut salt);
        let mut rng = SimRng::seed_from_u64(case_seed);
        let input = gen(&mut rng);
        if let Err(error) = prop(&input) {
            let (minimal, error) = shrink(input, error, &mut prop, config.max_shrink);
            panic!(
                "property `{name}` falsified at case {case}\n  \
                 error: {error}\n  \
                 minimal input: {minimal:?}\n  \
                 replay with PROP_SEED={:#x} PROP_CASES={} (base seed {:#x})",
                config.seed, config.cases, config.seed,
            );
        }
    }
}

/// Greedy shrink loop: keep the first still-failing candidate, repeat.
fn shrink<T, P>(mut input: T, mut error: String, prop: &mut P, budget: u32) -> (T, String)
where
    T: Shrink + std::fmt::Debug,
    P: FnMut(&T) -> Result<(), String>,
{
    let mut remaining = budget;
    'outer: while remaining > 0 {
        for candidate in input.shrink_candidates() {
            remaining -= 1;
            if let Err(e) = prop(&candidate) {
                input = candidate;
                error = e;
                continue 'outer;
            }
            if remaining == 0 {
                break;
            }
        }
        break;
    }
    (input, error)
}

/// `assert!` for properties: evaluates to `return Err(..)` on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` for properties.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!($($fmt)+));
        }
    }};
}

/// `assert_ne!` for properties.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn passing_property_completes() {
        check(
            "sum is commutative",
            Config::with_cases(16),
            |rng| (rng.gen_range(0..100u64), rng.gen_range(0..100u64)),
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
    }

    #[test]
    fn failing_property_panics_with_seed_and_minimal_case() {
        let result = std::panic::catch_unwind(|| {
            check(
                "vectors are shorter than 5",
                Config { cases: 64, seed: 1, max_shrink: 256 },
                |rng| {
                    let n = rng.gen_range(0..40usize);
                    (0..n).map(|_| rng.gen_range(0..9u8)).collect::<Vec<_>>()
                },
                |v| {
                    prop_assert!(v.len() < 5, "len {} >= 5", v.len());
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must falsify").downcast::<String>().expect("string panic");
        assert!(msg.contains("falsified"), "message: {msg}");
        assert!(msg.contains("PROP_SEED"), "message: {msg}");
        // Shrink-by-halving lands just past the boundary: 5..=9 elements.
        let shown = msg.split("minimal input: ").nth(1).expect("shows input");
        let commas = shown.split('\n').next().expect("line").matches(',').count();
        assert!((4..=9).contains(&commas), "shrunk vector should be near length 5: {shown}");
    }

    #[test]
    fn same_config_generates_identical_cases() {
        let collect = || {
            let mut cases = Vec::new();
            check(
                "collector",
                Config { cases: 8, seed: 42, max_shrink: 0 },
                |rng| rng.gen_range(0..1_000_000u64),
                |&v| {
                    cases.push(v);
                    Ok(())
                },
            );
            cases
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn scalars_shrink_toward_zero() {
        assert_eq!(100u64.shrink_candidates(), vec![50, 0]);
        assert!(0u32.shrink_candidates().is_empty());
    }
}
