//! Tenant-mix generation for the multi-tenant LLC serving tier.
//!
//! A [`TenantMix`] names N tenants, each with a priority class
//! ([`TenantClass`]), a traffic source ([`TenantSource`]), and a traffic
//! rate. Sources cover the existing corpora: trace-corpus benchmarks
//! (materialized by the experiment harness from captured LLC traces),
//! object-cache traffic ([`ObjectTraffic`] with keys mapped to cache
//! lines), and two self-contained synthetic personalities (a cyclic
//! working-set loop and a polluting sequential scan) that keep the pinned
//! default mix deterministic and corpus-free.
//!
//! [`WeightedInterleave`] merges per-tenant streams into one access
//! sequence, picking the next tenant with a seeded draw proportional to
//! its rate — the same deterministic xoshiro generator every other
//! workload source uses, so a mix replays bit-identically for a fixed
//! seed.

use simrng::{Rng, SimRng};

use crate::objects::{ObjectStream, ObjectTraffic};

/// Lines an object-tenant request may touch at most (large objects are
/// clipped; the LLC-level effect of a multi-line object is a short burst).
const OBJECT_LINES_CAP: u64 = 4;

/// Service class of a tenant: decides its QoS weight and, in partitioned
/// mode, its share of the ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Latency-critical, highest weight.
    Gold,
    /// Standard service.
    Silver,
    /// Best-effort / batch.
    Bronze,
}

impl TenantClass {
    /// The class's weight in aggregate QoS metrics (and in proportional
    /// way partitioning).
    #[must_use]
    pub fn weight(self) -> u32 {
        match self {
            Self::Gold => 4,
            Self::Silver => 2,
            Self::Bronze => 1,
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Gold => "gold",
            Self::Silver => "silver",
            Self::Bronze => "bronze",
        }
    }
}

/// Where a tenant's LLC traffic comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantSource {
    /// A trace-corpus benchmark (SPEC/CloudSuite name). Materialized by
    /// the experiment harness from a captured LLC trace; this crate only
    /// carries the name.
    Benchmark(String),
    /// Object-cache traffic, each request expanded to its object's first
    /// few cache lines.
    Objects(ObjectTraffic),
    /// A cyclic working set of `lines` cache lines — reuse-rich, the
    /// personality of a latency-critical serving tenant.
    Loop {
        /// Working-set size in cache lines.
        lines: u64,
    },
    /// An endless sequential scan — zero reuse, pure pollution.
    Scan,
}

impl TenantSource {
    /// Compact descriptor used in fingerprints.
    #[must_use]
    pub fn descriptor(&self) -> String {
        match self {
            Self::Benchmark(name) => format!("bench:{name}"),
            Self::Objects(t) => format!("objects:{}", t.fingerprint()),
            Self::Loop { lines } => format!("loop:{lines}"),
            Self::Scan => "scan".to_owned(),
        }
    }
}

/// One tenant of a mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Service class (QoS weight).
    pub class: TenantClass,
    /// Traffic source.
    pub source: TenantSource,
    /// Relative traffic rate in the interleave (independent of the class:
    /// a best-effort tenant can be the loudest).
    pub rate: u32,
}

/// A named, seeded tenant mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantMix {
    /// Mix name (reports, checkpoint keys).
    pub name: String,
    /// The tenants, index = tenant id.
    pub tenants: Vec<TenantSpec>,
    /// Interleave seed.
    pub seed: u64,
}

impl TenantMix {
    /// The pinned default 3-class mix the acceptance tests and CI smoke
    /// run: a reuse-rich gold tenant (cyclic working set), a silver
    /// object-cache tenant, and a loud best-effort bronze scanner that
    /// pollutes an unmanaged LLC.
    #[must_use]
    pub fn default_three_class() -> Self {
        let mut objects = ObjectTraffic::internet_default();
        objects.catalog = 4096;
        objects.seed = 0x007e_4a11;
        Self {
            name: "default-3class".to_owned(),
            tenants: vec![
                TenantSpec {
                    name: "gold-serving".to_owned(),
                    class: TenantClass::Gold,
                    source: TenantSource::Loop { lines: 1536 },
                    rate: 2,
                },
                TenantSpec {
                    name: "silver-objects".to_owned(),
                    class: TenantClass::Silver,
                    source: TenantSource::Objects(objects),
                    rate: 1,
                },
                TenantSpec {
                    name: "bronze-scan".to_owned(),
                    class: TenantClass::Bronze,
                    source: TenantSource::Scan,
                    rate: 4,
                },
            ],
            seed: 0x003c_1a55,
        }
    }

    /// Per-tenant QoS weights (class weights, index = tenant id).
    #[must_use]
    pub fn weights(&self) -> Vec<u32> {
        self.tenants.iter().map(|t| t.class.weight()).collect()
    }

    /// Per-tenant traffic rates.
    #[must_use]
    pub fn rates(&self) -> Vec<u32> {
        self.tenants.iter().map(|t| t.rate).collect()
    }

    /// A compact, exact fingerprint of the whole mix, for checkpoint keys.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| format!("{}:{}:r{}:{}", t.name, t.class.name(), t.rate, t.source.descriptor()))
            .collect();
        format!("mix|{}|x{:016x}|{}", self.name, self.seed, tenants.join("|"))
    }
}

/// One LLC-level access of a tenant stream: a demand load of `line`
/// issued from `pc`. (Benchmark-backed tenants replay full record kinds
/// through the experiment harness; the synthetic sources here are demand
/// traffic.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantAccess {
    /// Program counter attributed to the access.
    pub pc: u64,
    /// Cache-line address (byte address >> 6).
    pub line: u64,
}

/// An endless synthetic tenant stream ([`TenantSource::Loop`],
/// [`TenantSource::Scan`], [`TenantSource::Objects`]).
// Boxing `Objects` would add a pointer chase to every tenancy replay access.
#[allow(clippy::large_enum_variant)]
pub enum SyntheticStream {
    /// Cyclic working set.
    Loop {
        /// Working-set size in lines.
        lines: u64,
        /// Next position.
        at: u64,
    },
    /// Sequential scan.
    Scan {
        /// Next line.
        at: u64,
    },
    /// Object requests expanded to line touches.
    Objects {
        /// The request stream.
        stream: ObjectStream,
        /// Remaining (line, count) burst of the current request.
        burst: (u64, u64),
        /// PC salt.
        pc: u64,
    },
}

impl Iterator for SyntheticStream {
    type Item = TenantAccess;

    fn next(&mut self) -> Option<TenantAccess> {
        match self {
            Self::Loop { lines, at } => {
                let line = *at % *lines;
                *at += 1;
                Some(TenantAccess { pc: 0x10_0000 + (line % 7), line })
            }
            Self::Scan { at } => {
                let line = *at;
                *at += 1;
                Some(TenantAccess { pc: 0x20_0000, line })
            }
            Self::Objects { stream, burst, pc } => {
                if burst.1 == 0 {
                    let req = stream.next()?;
                    let touched = (u64::from(req.size) / crate::LINE_BYTES + 1).min(OBJECT_LINES_CAP);
                    *burst = (req.key * OBJECT_LINES_CAP, touched);
                }
                let line = burst.0;
                burst.0 += 1;
                burst.1 -= 1;
                Some(TenantAccess { pc: *pc, line })
            }
        }
    }
}

impl TenantSource {
    /// Materializes the source as an endless [`TenantAccess`] stream, or
    /// `None` for [`TenantSource::Benchmark`] (which needs the trace
    /// corpus — the experiment harness supplies those streams).
    #[must_use]
    pub fn synthetic_stream(&self) -> Option<SyntheticStream> {
        match self {
            Self::Benchmark(_) => None,
            Self::Objects(traffic) => Some(SyntheticStream::Objects {
                stream: traffic.stream(),
                burst: (0, 0),
                pc: 0x30_0000,
            }),
            Self::Loop { lines } => Some(SyntheticStream::Loop { lines: (*lines).max(1), at: 0 }),
            Self::Scan => Some(SyntheticStream::Scan { at: 0 }),
        }
    }
}

/// Deterministic weighted interleaver: each step draws a tenant with
/// probability proportional to its rate and yields that tenant's next
/// item. Exhausted streams drop out of the draw; the iterator ends when
/// every stream has.
pub struct WeightedInterleave<I> {
    streams: Vec<Option<I>>,
    rates: Vec<u64>,
    rng: SimRng,
}

impl<I: Iterator> WeightedInterleave<I> {
    /// Creates the interleave over `streams` with per-stream `rates`.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or every rate is zero.
    pub fn new(streams: Vec<I>, rates: &[u32], seed: u64) -> Self {
        assert_eq!(streams.len(), rates.len(), "one rate per stream");
        assert!(rates.iter().any(|&r| r > 0), "all rates are zero");
        Self {
            streams: streams.into_iter().map(Some).collect(),
            rates: rates.iter().map(|&r| u64::from(r)).collect(),
            rng: SimRng::seed_from_u64(seed ^ 0x7E9A_17C0_11A0_5EED),
        }
    }
}

impl<I: Iterator> Iterator for WeightedInterleave<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<(usize, I::Item)> {
        loop {
            let total: u64 = self
                .streams
                .iter()
                .zip(&self.rates)
                .filter(|(s, _)| s.is_some())
                .map(|(_, &r)| r)
                .sum();
            if total == 0 {
                return None;
            }
            let mut draw = self.rng.gen_range(0..total);
            let pick = self
                .streams
                .iter()
                .zip(&self.rates)
                .position(|(s, &r)| {
                    if s.is_none() {
                        return false;
                    }
                    if draw < r {
                        true
                    } else {
                        draw -= r;
                        false
                    }
                })
                .expect("total covers the live streams");
            match self.streams[pick].as_mut().and_then(Iterator::next) {
                Some(item) => return Some((pick, item)),
                // Stream just ended: retire it and redraw.
                None => self.streams[pick] = None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_pinned_and_fingerprint_stable() {
        let mix = TenantMix::default_three_class();
        assert_eq!(mix.tenants.len(), 3);
        assert_eq!(mix.weights(), vec![4, 2, 1]);
        assert_eq!(mix.fingerprint(), TenantMix::default_three_class().fingerprint());
        assert!(mix.fingerprint().contains("loop:1536"));
    }

    #[test]
    fn interleave_is_deterministic_and_rate_proportional() {
        let mk = || {
            WeightedInterleave::new(
                vec![
                    SyntheticStream::Scan { at: 0 },
                    SyntheticStream::Loop { lines: 8, at: 0 },
                ],
                &[3, 1],
                42,
            )
        };
        let a: Vec<(usize, TenantAccess)> = mk().take(4000).collect();
        let b: Vec<(usize, TenantAccess)> = mk().take(4000).collect();
        assert_eq!(a, b, "interleave replays bit-identically");
        let heavy = a.iter().filter(|(t, _)| *t == 0).count();
        assert!(
            (2700..=3300).contains(&heavy),
            "rate-3 stream got {heavy}/4000 draws, expected about 3000"
        );
    }

    #[test]
    fn interleave_ends_only_when_every_stream_does() {
        let finite: Vec<Vec<u32>> = vec![vec![1, 2], vec![10, 20, 30, 40]];
        let items: Vec<(usize, u32)> =
            WeightedInterleave::new(finite.into_iter().map(Vec::into_iter).collect(), &[1, 1], 7)
                .collect();
        assert_eq!(items.len(), 6, "every item of every stream is yielded");
    }

    #[test]
    fn synthetic_streams_have_their_personalities() {
        let mut lp = TenantSource::Loop { lines: 4 }.synthetic_stream().unwrap();
        let first8: Vec<u64> = (0..8).map(|_| lp.next().unwrap().line).collect();
        assert_eq!(first8, vec![0, 1, 2, 3, 0, 1, 2, 3], "loop wraps");

        let mut scan = TenantSource::Scan.synthetic_stream().unwrap();
        let lines: Vec<u64> = (0..4).map(|_| scan.next().unwrap().line).collect();
        assert_eq!(lines, vec![0, 1, 2, 3], "scan never revisits");

        let traffic = ObjectTraffic::internet_default();
        let mut obj = TenantSource::Objects(traffic).synthetic_stream().unwrap();
        assert!(obj.next().is_some());

        assert!(TenantSource::Benchmark("429.mcf".into()).synthetic_stream().is_none());
    }
}
