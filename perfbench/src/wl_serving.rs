//! `serving_tiers`: the objcache and tenancy sweeps, cold then warm.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ::tenancy::{IsolationMode, MultiTenantLlc, TenantPolicy};
use cache_sim::{Access, AccessKind, CacheConfig, SetAssocCache, SystemConfig};
use experiments::objects::{self, ObjCellResult};
use experiments::runner::{RunOptions, SweepOptions};
use experiments::tenancy::{self, TenancyCellResult, TenantCellStats};
use experiments::Scale;
use objcache::{ObjCacheConfig, ObjPolicyKind, ObjStats};
use workloads::tenants::{TenantMix, TenantSource};
use workloads::{ObjectRequest, ObjectTraffic, WeightedInterleave};

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::wl_sim::L_WORKLOADS;
use crate::{ns_since, ratio, CellOutcome, Ctx, Workload};

/// Object-cache replay.
pub const L_OBJCACHE: &str = "objcache";
/// Multi-tenant LLC.
pub const L_TENANCY: &str = "tenancy";
/// Checkpoint encode, store, load and decode.
pub const L_CHECKPOINT: &str = "experiments::checkpoint";

/// The two serving-tier sweeps.
pub struct ServingTiers;

/// Object requests per objcache cell (the CLI default).
const REQUESTS: u64 = 200_000;
/// Object-cache capacity, MiB (the CLI default).
const CAPACITY_MIB: u64 = 256;
/// The learned-priority rank table `rlr tenancy compare` uses by default.
const RANKS: [u32; 3] = [4, 1, 0];

/// The scenario the sweeps generate their streams from.
pub struct ServingInput {
    traffic: ObjectTraffic,
    cfg: ObjCacheConfig,
    policies: Vec<ObjPolicyKind>,
    mix: TenantMix,
    llc: CacheConfig,
    accesses: u64,
    modes: Vec<IsolationMode>,
}

/// One pass: cold results and the time of each cold sweep.
pub struct ServingOut {
    obj: Vec<(ObjPolicyKind, ObjCellResult)>,
    ten: Vec<(IsolationMode, TenancyCellResult)>,
    obj_cold_s: f64,
    ten_cold_s: f64,
}

fn obj_line(s: &ObjStats) -> String {
    format!(
        "r{} h{} m{} hb{} mb{} ad{} rj{} ev{} evb{} ex{} exb{}",
        s.requests,
        s.hits,
        s.misses,
        s.hit_bytes,
        s.miss_bytes,
        s.admitted,
        s.rejected,
        s.evictions,
        s.evicted_bytes,
        s.expirations,
        s.expired_bytes
    )
}

fn tenant_line(stats: &[TenantCellStats]) -> String {
    stats
        .iter()
        .map(|s| {
            format!(
                "a{} h{} da{} dh{} o{} po{} mc{} mt{} p50{} p99{}",
                s.accesses,
                s.hits,
                s.demand_accesses,
                s.demand_hits,
                s.occupancy,
                s.peak_occupancy,
                s.miss_count,
                s.miss_ticks,
                s.lat_p50,
                s.lat_p99
            )
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// The tenancy cells' interleaved stream, rebuilt from the mix the way the
/// sweep builds it (synthetic tenants, each relocated by `(t+1) << 40`).
fn tenant_accesses(mix: &TenantMix, n: u64) -> Vec<(u8, u64, u64, AccessKind)> {
    let streams: Vec<_> = mix
        .tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let salt = (t as u64 + 1) << 40;
            let stream = spec
                .source
                .synthetic_stream()
                .expect("the benchmark mix is synthetic");
            stream.map(move |a| (a.pc ^ salt, a.line ^ salt))
        })
        .collect();
    WeightedInterleave::new(streams, &mix.rates(), mix.seed)
        .take(n as usize)
        .map(|(t, (pc, line))| (t as u8, pc, line, AccessKind::Load))
        .collect()
}

fn sweep_opts(dir: &Path) -> SweepOptions {
    SweepOptions {
        jobs: Some(1),
        run: RunOptions::none(),
        cache_dir: Some(dir.to_path_buf()),
    }
}

fn fresh_dir(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
}

impl Workload for ServingTiers {
    type Input = ServingInput;
    type Out = ServingOut;

    fn setup(&self, ctx: &Ctx) -> ServingInput {
        let mut traffic = ObjectTraffic::internet_default();
        traffic.seed = ctx.reseed(traffic.seed);
        let mut mix = TenantMix::default_three_class();
        mix.seed = ctx.reseed(mix.seed);
        for spec in &mut mix.tenants {
            if let TenantSource::Objects(t) = &mut spec.source {
                t.seed = ctx.reseed(t.seed);
            }
        }
        let llc = tenancy::default_llc();
        let accesses = tenancy::accesses_for(Scale::Small);
        let modes = tenancy::standard_modes(&mix, &llc, RANKS.to_vec());
        ServingInput {
            traffic,
            cfg: ObjCacheConfig::with_capacity_mib(CAPACITY_MIB),
            policies: ObjPolicyKind::roster(),
            mix,
            llc,
            accesses,
            modes,
        }
    }

    fn pass(
        &self,
        ctx: &Ctx,
        input: &ServingInput,
        tracer: &mut Tracer,
    ) -> (Vec<CellOutcome>, ServingOut) {
        let dir = ctx.scratch.join("cells");
        fresh_dir(&dir);
        let (obj_opts, ten_opts) = (
            sweep_opts(&dir.join("objcache")),
            sweep_opts(&dir.join("tenancy")),
        );
        let i = &input;
        let obj_sweep =
            || objects::run_object_sweep(&i.traffic, REQUESTS, i.cfg, &i.policies, &obj_opts);
        let ten_sweep = || {
            tenancy::run_tenancy_sweep(
                &i.mix,
                &i.modes,
                &i.llc,
                i.accesses,
                Scale::Small,
                &ten_opts,
            )
        };

        let t = Instant::now();
        let obj = tracer.span("objcache sweep cold", L_OBJCACHE, |_| obj_sweep());
        let obj_cold_s = t.elapsed().as_secs_f64();
        crate::calib::tick();
        let t = Instant::now();
        let ten = tracer.span("tenancy sweep cold", L_TENANCY, |_| ten_sweep());
        let ten_cold_s = t.elapsed().as_secs_f64();
        crate::calib::tick();
        let obj_warm = tracer.span("objcache sweep warm", L_CHECKPOINT, |_| obj_sweep());
        crate::calib::tick();
        let ten_warm = tracer.span("tenancy sweep warm", L_CHECKPOINT, |_| ten_sweep());

        let mut cells = Vec::new();
        for ((p, cold), (_, warm)) in obj.iter().zip(&obj_warm) {
            let name = format!("objcache/{}", p.name());
            let line = cold.as_ref().map(obj_line).map_err(ToString::to_string);
            let warm_ok = matches!((cold, warm), (Ok(a), Ok(b)) if a == b);
            cells.push(CellOutcome {
                name: format!("{name} warm"),
                counters: warm_check(&line, warm_ok),
            });
            cells.push(CellOutcome {
                name,
                counters: line,
            });
        }
        for ((mode, cold), (_, warm)) in ten.iter().zip(&ten_warm) {
            let name = format!("tenancy/{}", mode.name());
            let line = cold
                .as_ref()
                .map(|s| tenant_line(s))
                .map_err(ToString::to_string);
            let warm_ok = matches!((cold, warm), (Ok(a), Ok(b)) if a == b);
            cells.push(CellOutcome {
                name: format!("{name} warm"),
                counters: warm_check(&line, warm_ok),
            });
            cells.push(CellOutcome {
                name,
                counters: line,
            });
        }
        (
            cells,
            ServingOut {
                obj,
                ten,
                obj_cold_s,
                ten_cold_s,
            },
        )
    }

    fn work(&self, out: &ServingOut) -> f64 {
        (REQUESTS * out.obj.len() as u64
            + tenancy::accesses_for(Scale::Small) * out.ten.len() as u64) as f64
    }

    fn summarize(&self, out: &ServingOut, _pass_s: f64, m: &mut Metrics) {
        let rlr = out
            .obj
            .iter()
            .find(|(p, _)| matches!(p, ObjPolicyKind::DerivedRlr(_)));
        if let Some((_, Ok(s))) = rlr {
            m.set("model.obj_miss_byte_ratio", s.miss_byte_ratio());
        }
        let learned = out
            .ten
            .iter()
            .find(|(mode, _)| matches!(mode, IsolationMode::LearnedPriority(_)));
        if let Some((_, Ok(stats))) = learned {
            let weights = TenantMix::default_three_class().weights();
            m.set(
                "model.tenant_weighted_miss_pct",
                100.0 * tenancy::weighted_rate(stats, &weights),
            );
        }
        let n = tenancy::accesses_for(Scale::Small);
        m.set(
            "obj_mreqps",
            (REQUESTS * out.obj.len() as u64) as f64 / out.obj_cold_s / 1e6,
        );
        m.set(
            "tenant_maccps",
            (n * out.ten.len() as u64) as f64 / out.ten_cold_s / 1e6,
        );
    }

    fn layers(
        &self,
        ctx: &Ctx,
        input: &ServingInput,
        out: &ServingOut,
        traced: &Tracer,
        m: &mut Metrics,
    ) -> BTreeMap<String, Vec<(&'static str, f64)>> {
        let span_ns = |name: &str| {
            traced
                .spans()
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.dur_ns() as f64)
        };
        // The cells' inputs, materialised for the lower-level replays.
        let requests: Vec<ObjectRequest> =
            input.traffic.stream().take(REQUESTS as usize).collect();
        let accesses = tenant_accesses(&input.mix, input.accesses);
        let n_req = requests.len() as f64;
        let n_acc = accesses.len() as f64;

        // Generation alone, once per cell, as each cell regenerates its input.
        let t = Instant::now();
        black_box(input.traffic.stream().take(REQUESTS as usize).count());
        let obj_gen = ns_since(t) * input.policies.len() as f64;
        let t = Instant::now();
        black_box(tenant_accesses(&input.mix, input.accesses).len());
        let ten_gen = ns_since(t) * input.modes.len() as f64;

        // Each cache alone over the materialised stream.
        for p in &input.policies {
            let t = Instant::now();
            black_box(objcache::replay(
                input.cfg,
                *p,
                requests.iter().copied(),
            ));
            let name = match p {
                ObjPolicyKind::Lru => "objcache.lru.ns_per_request",
                ObjPolicyKind::Slru => "objcache.slru.ns_per_request",
                ObjPolicyKind::Gdsf => "objcache.gdsf.ns_per_request",
                ObjPolicyKind::DerivedRlr(_) => "objcache.rlr.ns_per_request",
            };
            m.set(name, ns_since(t) / n_req);
        }
        let mut cfg = SystemConfig::paper_single_core();
        cfg.llc = input.llc;
        let tenants = input.mix.tenants.len() as u8;
        for mode in &input.modes {
            let mut sys = MultiTenantLlc::new(&cfg, tenants, mode.clone());
            let t = Instant::now();
            for &(tenant, pc, line, kind) in &accesses {
                sys.access(tenant, pc, line << 6, kind);
            }
            black_box(sys.qos_all());
            let name = match mode {
                IsolationMode::Shared => "tenancy.shared.ns_per_access",
                IsolationMode::WayPartition(_) => "tenancy.way_partition.ns_per_access",
                IsolationMode::LearnedPriority(_) => "tenancy.learned_priority.ns_per_access",
            };
            m.set(name, ns_since(t) / n_acc);
        }
        let mut bare = SetAssocCache::new(
            "bare",
            input.llc,
            TenantPolicy::new(&input.llc, 1, IsolationMode::Shared),
        );
        let t = Instant::now();
        for (seq, &(_, pc, line, kind)) in accesses.iter().enumerate() {
            black_box(bare.access(&Access {
                pc,
                addr: line << 6,
                kind,
                core: 0,
                seq: seq as u64,
            }));
        }
        let bare_ns = ns_since(t) / n_acc;
        m.set("tenancy.bare.ns_per_access", bare_ns);
        let shared = m.get("tenancy.shared.ns_per_access").unwrap_or(0.0);
        m.set(
            "tenancy.overhead_pct",
            100.0 * (ratio(shared, bare_ns) - 1.0),
        );
        if let Some((_, Ok(s))) = out
            .obj
            .iter()
            .find(|(p, _)| matches!(p, ObjPolicyKind::DerivedRlr(_)))
        {
            m.set(
                "objcache.admit_pct",
                100.0 * ratio(s.admitted as f64, s.misses as f64),
            );
        }

        // Checkpoint codecs and I/O alone, for every cold cell.
        let dir = ctx.scratch.join("checkpoint-probe");
        fresh_dir(&dir);
        let obj_keys: Vec<_> = input
            .policies
            .iter()
            .map(|p| objects::obj_cell_key(&input.traffic, REQUESTS, &input.cfg, p))
            .collect();
        let ten_keys: Vec<_> = input
            .modes
            .iter()
            .map(|mode| tenancy::tenancy_cell_key(&input.mix, mode, &input.llc, input.accesses))
            .collect();
        let t = Instant::now();
        for (key, (_, cell)) in obj_keys.iter().zip(&out.obj) {
            if let Ok(s) = cell {
                objects::store_obj_cell(&dir, key, s);
            }
        }
        let obj_store = ns_since(t);
        let t = Instant::now();
        for (key, (_, cell)) in ten_keys.iter().zip(&out.ten) {
            if let Ok(s) = cell {
                tenancy::store_tenancy_cell(&dir, key, s);
            }
        }
        let ten_store = ns_since(t);
        let t = Instant::now();
        for key in &obj_keys {
            black_box(objects::load_obj_cell(&dir, key));
        }
        for key in &ten_keys {
            black_box(tenancy::load_tenancy_cell(&dir, key));
        }
        let load = ns_since(t);
        let bytes: u64 = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|md| md.len())
                    .sum()
            })
            .unwrap_or(0);
        m.set("checkpoint.store_ms", (obj_store + ten_store) / 1e6);
        m.set("checkpoint.load_ms", load / 1e6);
        m.set("checkpoint.bytes", bytes as f64);
        m.set("runner.cells", 2.0 * (out.obj.len() + out.ten.len()) as f64);
        let retries: u32 = out
            .obj
            .iter()
            .filter_map(|(_, c)| c.as_ref().err())
            .chain(out.ten.iter().filter_map(|(_, c)| c.as_ref().err()))
            .map(|f| f.attempts.saturating_sub(1))
            .sum();
        m.set("runner.retries", f64::from(retries));

        let mut splits = BTreeMap::new();
        let obj_span = span_ns("objcache sweep cold");
        let ten_span = span_ns("tenancy sweep cold");
        splits.insert(
            "objcache sweep cold".to_owned(),
            vec![
                (L_WORKLOADS, ratio(obj_gen, obj_span)),
                (L_CHECKPOINT, ratio(obj_store, obj_span)),
            ],
        );
        splits.insert(
            "tenancy sweep cold".to_owned(),
            vec![
                (L_WORKLOADS, ratio(ten_gen, ten_span)),
                (L_CHECKPOINT, ratio(ten_store, ten_span)),
            ],
        );
        splits
    }
}

fn warm_check(cold: &Result<String, String>, warm_ok: bool) -> Result<String, String> {
    match cold {
        Ok(line) if warm_ok => Ok(line.clone()),
        Ok(_) => Err("warm pass differs from the cold pass".to_owned()),
        Err(e) => Err(e.clone()),
    }
}
