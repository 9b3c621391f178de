//! `llc_replay`: RLT1 corpus files streamed through a bare LLC.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

use cache_sim::{SetAssocCache, SystemConfig};
use experiments::runner::{self, ReplaySummary};
use experiments::{PolicyKind, Scale};
use trace_io::TraceReader;

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::wl_sim::{cache_line, llc_policy_metrics, L_LLC};
use crate::{ns_since, ratio, run_cell, CellOutcome, Ctx, Workload};

/// RLT1 decode, as a waterfall layer.
pub const L_TRACE_IO: &str = "trace_io";

/// LLC-only replay of captured traces.
pub struct LlcReplay;

/// Benchmarks whose LLC traces are replayed.
pub const REPLAY_BENCHES: [&str; 4] = ["429.mcf", "450.soplex", "471.omnetpp", "483.xalancbmk"];
/// Policies each trace is replayed under.
pub const REPLAY_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Lru,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::ShipPp,
    PolicyKind::Hawkeye,
    PolicyKind::Rlr,
];
/// Records captured per benchmark.
const RECORDS: usize = 200_000;

/// The RLT1 files written during set-up.
pub struct ReplayInput {
    files: Vec<(PathBuf, u64)>,
}

/// One pass: per cell, the replay summary and the cache's counters.
pub struct ReplayOut {
    cells: Vec<Option<(ReplaySummary, cache_sim::CacheStats)>>,
    records: u64,
}

fn replay_file(path: &PathBuf, p: PolicyKind) -> (ReplaySummary, cache_sim::CacheStats, u64) {
    let cfg = SystemConfig::paper_single_core();
    let file = std::fs::File::open(path).expect("trace written during set-up");
    let mut reader = TraceReader::new(BufReader::new(file)).expect("valid RLT1 header");
    let mut cache = SetAssocCache::new("LLC", cfg.llc, p.build(&cfg.llc, None));
    let summary = runner::replay_llc_reader(&mut cache, &mut reader).expect("intact container");
    (summary, *cache.stats(), reader.blocks_read())
}

impl Workload for LlcReplay {
    type Input = ReplayInput;
    type Out = ReplayOut;

    fn setup(&self, ctx: &Ctx) -> ReplayInput {
        let dir = ctx.scratch.join("traces");
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let files = REPLAY_BENCHES
            .iter()
            .map(|name| {
                let wl = workloads::spec2006(name).expect("benchmark in the SPEC roster");
                let seed = ctx.reseed(wl.seed());
                let trace = runner::capture_llc_trace(&wl.with_seed(seed), Scale::Small, RECORDS)
                    .expect("capture yields a trace");
                let path = dir.join(format!("{name}.rlt"));
                trace_io::write_trace_file(&path, &trace, trace_io::DEFAULT_BLOCK_LEN)
                    .expect("trace file written");
                crate::calib::tick();
                (path, trace.len() as u64)
            })
            .collect();
        ReplayInput { files }
    }

    fn pass(
        &self,
        _ctx: &Ctx,
        input: &ReplayInput,
        tracer: &mut Tracer,
    ) -> (Vec<CellOutcome>, ReplayOut) {
        let mut cells = Vec::new();
        let mut out = ReplayOut {
            cells: Vec::new(),
            records: 0,
        };
        for (b, (path, records)) in input.files.iter().enumerate() {
            for &p in &REPLAY_POLICIES {
                let name = format!("{}/{}", REPLAY_BENCHES[b], p.name());
                let mut result = None;
                let cell = tracer.span(&format!("cell {name}"), L_LLC, |_| {
                    run_cell(name.clone(), || {
                        let (s, stats, blocks) = replay_file(path, p);
                        result = Some((s, stats));
                        format!(
                            "a{} h{} da{} dh{} blk{blocks} llc[{}]",
                            s.accesses,
                            s.hits,
                            s.demand_accesses,
                            s.demand_hits,
                            cache_line(&stats)
                        )
                    })
                });
                out.records += records;
                out.cells.push(result);
                cells.push(cell);
                crate::calib::tick();
            }
        }
        (cells, out)
    }

    fn work(&self, out: &ReplayOut) -> f64 {
        out.records as f64
    }

    fn summarize(&self, out: &ReplayOut, pass_s: f64, m: &mut Metrics) {
        let np = REPLAY_POLICIES.len();
        let rlr = REPLAY_POLICIES
            .iter()
            .position(|&p| p == PolicyKind::Rlr)
            .expect("RLR in roster");
        let gains: Vec<f64> = (0..REPLAY_BENCHES.len())
            .filter_map(|b| {
                let rate = |p: usize| {
                    out.cells[b * np + p]
                        .as_ref()
                        .map(|(s, _)| s.demand_hit_rate())
                };
                Some((rate(rlr)? - rate(0)?) * 100.0)
            })
            .collect();
        m.set(
            "model.rlr_hit_gain_pp",
            ratio(gains.iter().sum(), gains.len() as f64),
        );
        m.set("llc_maccps", self.work(out) / pass_s / 1e6);
    }

    fn layers(
        &self,
        _ctx: &Ctx,
        input: &ReplayInput,
        out: &ReplayOut,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>> {
        let cfg = SystemConfig::paper_single_core();
        let mut splits = BTreeMap::new();
        let (mut decode_ns, mut records, mut bytes, mut blocks) = (0.0, 0.0, 0.0, 0.0);
        let mut llc_totals = Vec::new();
        let (mut mem_ns, mut stream_ns) = (0.0, 0.0);
        for (b, (path, n)) in input.files.iter().enumerate() {
            // Decode alone: every block, no cache.
            let t = Instant::now();
            let file = std::fs::File::open(path).expect("trace written during set-up");
            let mut reader = TraceReader::new(BufReader::new(file)).expect("valid RLT1 header");
            while let Some(block) = reader.next_block().expect("intact container") {
                black_box(block);
            }
            let dec = ns_since(t);
            decode_ns += dec;
            records += *n as f64;
            blocks += reader.blocks_read() as f64;
            bytes += std::fs::metadata(path).map_or(0, |md| md.len()) as f64;
            // The cache alone: the same records replayed from memory.
            let trace = trace_io::read_trace_file(path).expect("intact container");
            for &p in &REPLAY_POLICIES {
                let mut cache = SetAssocCache::new("LLC", cfg.llc, p.build(&cfg.llc, None));
                let t = Instant::now();
                black_box(runner::replay_llc_trace(&mut cache, &trace));
                let ns = ns_since(t);
                crate::wl_sim::add_total(&mut llc_totals, p, ns, *n as f64);
                let name = format!("cell {}/{}", REPLAY_BENCHES[b], p.name());
                let cell_ns = traced
                    .spans()
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0.0, |s| s.dur_ns() as f64);
                mem_ns += ns;
                stream_ns += cell_ns;
                splits.insert(name, vec![(L_TRACE_IO, ratio(dec, cell_ns).min(1.0))]);
            }
        }
        m.set("trace_io.decode_ns_per_record", ratio(decode_ns, records));
        m.set("trace_io.bytes_per_record", ratio(bytes, records));
        m.set("trace_io.blocks", blocks);
        m.set(
            "trace_io.stream_tax_pct",
            100.0 * (ratio(stream_ns, mem_ns) - 1.0),
        );
        llc_policy_metrics(&llc_totals, m);
        let stats: Vec<&cache_sim::CacheStats> =
            out.cells.iter().flatten().map(|(_, s)| s).collect();
        m.set(
            "llc.accesses",
            stats.iter().map(|s| s.accesses()).sum::<u64>() as f64,
        );
        m.set(
            "llc.evictions",
            stats.iter().map(|s| s.evictions).sum::<u64>() as f64,
        );
        m.set(
            "llc.writebacks",
            stats.iter().map(|s| s.writebacks_out).sum::<u64>() as f64,
        );
        splits
    }
}
