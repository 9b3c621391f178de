//! On-disk cell format stability: checkpoints written by earlier builds
//! must keep resuming. Every committed `results/cache/sweep/` cell and one
//! pinned cell per family (bytes as written before the sweep families
//! shared a codec) must decode under its key and re-encode to the same
//! bytes, and each family's sweep must find a cell planted under the
//! pinned key instead of recomputing it.

use std::fs;
use std::path::{Path, PathBuf};

use cache_sim::{RunStats, SystemConfig, TimingMode};
use experiments::checkpoint::{decode_cell, encode_cell, Cell, CellCodec, CellKey};
use experiments::json::Json;
use experiments::objects::{obj_cell_key, run_object_sweep};
use experiments::runner::{run_roster_resilient, SingleCoreCell, SweepOptions};
use experiments::tenancy::{default_llc, run_tenancy_sweep, tenancy_cell_key, TenantCellStats};
use experiments::{PolicyKind, Scale};
use objcache::{ObjCacheConfig, ObjPolicyKind, ObjStats};
use tenancy::IsolationMode;
use workloads::{ObjectTraffic, TenantMix};

/// A Small-scale roster cell (416.gamess under LRU, analytic timing).
const ROSTER_CELL: (&str, &str) = (
    "d6ebeef91405206b.json",
    r#"{"cycles":3475046,"dram_row_hits":1,"dram_row_misses":1,"instructions":10000005,"key":"v1|416.gamess|LRU|single|small|i10000000|w2000000|tanalytic","l1d":{"by_kind":[[396882,300133],[228039,183077],[127789,0],[0,0]],"bypasses":0,"evictions":269500,"writebacks_out":95522},"l2":{"by_kind":[[96749,96749],[44962,44962],[127791,127789],[95522,95522]],"bypasses":0,"evictions":0,"writebacks_out":0},"llc":{"by_kind":[[0,0],[0,0],[2,0],[0,0]],"bypasses":0,"evictions":0,"writebacks_out":0},"memory_reads":2,"memory_writes":0}"#,
);

/// The derived-RLR object-cache cell of the default trace, 64 MiB, 40k
/// requests, with synthetic counters (including `u64::MAX`).
const OBJ_CELL: (&str, &str) = (
    "6995f02d3c3655fa.json",
    r#"{"admitted":12000,"evicted_bytes":123456789,"evictions":9876,"expirations":321,"expired_bytes":0,"hit_bytes":1099511627776,"hits":23456,"key":"v1|objcache|RLR-derived[w8/1/1|a8/1/0|t51]|obj|c500000|z900|r10000|s1024-1048576|t2-600|f40000/8000/60/64|x00000000c0ffee00|cap67108864|p80|n40000","miss_bytes":18446744073709551615,"misses":16544,"rejected":4544,"requests":40000}"#,
);

/// The learned-priority `[4, 1, 0]` tenancy cell of the default mix on the
/// default LLC, 60k accesses, with synthetic per-tenant rows.
const TENANCY_CELL: (&str, &str) = (
    "9726f583526ef215.json",
    r#"{"key":"v1|tenancy|learned-priority[4, 1, 0]|mix|default-3class|x00000000003c1a55|gold-serving:gold:r2:loop:1536|silver-objects:silver:r1:objects:obj|c4096|z900|r10000|s1024-1048576|t2-600|f40000/8000/60/64|x00000000007e4a11|bronze-scan:bronze:r4:scan|llc s256 w8 l26|n60000","tenants":[[10,9,8,7,6,5,4,3,2,1],[1010,1009,1008,1007,1006,1005,1004,1003,1002,1001],[18446744073709551615,18446744073709551614,18446744073709551613,18446744073709551612,18446744073709551611,18446744073709551610,18446744073709551609,18446744073709551608,18446744073709551607,18446744073709551606]]}"#,
);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlr_cell_format_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Decodes `text` under its own embedded key, checks the key hashes to
/// `file_name`, and checks re-encoding reproduces `text` byte for byte.
fn round_trip<T: CellCodec>(file_name: &str, text: &str) -> (CellKey, T) {
    let embedded = Json::parse(text).expect("cell is JSON");
    let key = embedded.get("key").and_then(Json::as_str).expect("embedded key");
    let key = CellKey::new(key.to_owned());
    assert_eq!(key.file_name(), file_name, "file name is the key's hash");
    let out: T = decode_cell(text, &key).unwrap_or_else(|| panic!("{file_name} decodes"));
    assert_eq!(encode_cell(&key, &out), text, "{file_name} re-encodes to identical bytes");
    (key, out)
}

#[test]
fn committed_sweep_cells_round_trip_byte_for_byte() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/cache/sweep");
    let mut cells: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("committed sweep cells")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 12, "the committed fixture set");
    for path in &cells {
        let text = fs::read_to_string(path).expect("readable cell");
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf8 name");
        round_trip::<RunStats>(name, &text);
    }
}

#[test]
fn cli_compare_keys_match_the_committed_cells() {
    let workload = workloads::by_name("429.mcf").expect("roster benchmark");
    let config = SystemConfig::paper_single_core().with_timing(TimingMode::Event);
    let cell = SingleCoreCell {
        bench: "429.mcf",
        workload: &workload,
        policy: PolicyKind::Rlr,
        config: &config,
        warmup: 2_000_000,
        instructions: 10_000_000,
        origin: "cli",
    };
    let key = cell.key();
    assert_eq!(key.key, "v1|429.mcf|RLR|cli|i10000000|w2000000|tevent");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/cache/sweep");
    assert!(committed.join(key.file_name()).exists(), "`rlr compare --timing event` resumes it");
}

#[test]
fn roster_sweep_resumes_from_a_pinned_cell() {
    let (name, text) = ROSTER_CELL;
    let (_, pinned) = round_trip::<RunStats>(name, text);
    // Plant a marked copy: the sweep returning the mark proves it loaded
    // the cell rather than simulating.
    let marked = text.replace("\"cycles\":3475046", "\"cycles\":1");
    let dir = scratch_dir("roster");
    fs::write(dir.join(name), marked).expect("plant cell");
    let opts = SweepOptions { jobs: Some(1), cache_dir: Some(dir.clone()), ..SweepOptions::none() };
    let sweep = run_roster_resilient(&["416.gamess"], &[PolicyKind::Lru], Scale::Small, &opts)
        .expect("known benchmark");
    let loaded = sweep[0].1[0].1.as_ref().expect("cell ok");
    assert_eq!(*loaded, RunStats { cycles: 1, ..pinned });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn objcache_cell_format_is_pinned() {
    let (name, text) = OBJ_CELL;
    let (key, stats) = round_trip::<ObjStats>(name, text);
    let traffic = ObjectTraffic::internet_default();
    let cfg = ObjCacheConfig::with_capacity_mib(64);
    let policy = ObjPolicyKind::parse("rlr").expect("pinned rule");
    assert_eq!(obj_cell_key(&traffic, 40_000, &cfg, &policy), key);
    assert_eq!(stats.miss_bytes, u64::MAX);
    assert_eq!(stats.hit_bytes, 1 << 40);
    let dir = scratch_dir("obj");
    fs::write(dir.join(name), text).expect("plant cell");
    let opts = SweepOptions { jobs: Some(1), cache_dir: Some(dir.clone()), ..SweepOptions::none() };
    let swept = run_object_sweep(&traffic, 40_000, cfg, &[policy], &opts);
    assert_eq!(swept[0].1.as_ref().expect("cell ok"), &stats, "the sweep loads the pinned cell");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tenancy_cell_format_is_pinned() {
    let (name, text) = TENANCY_CELL;
    let (key, stats) = round_trip::<Vec<TenantCellStats>>(name, text);
    let mix = TenantMix::default_three_class();
    let mode = IsolationMode::LearnedPriority(vec![4, 1, 0]);
    let llc = default_llc();
    assert_eq!(tenancy_cell_key(&mix, &mode, &llc, 60_000), key);
    assert_eq!(stats.len(), 3);
    assert_eq!((stats[1].accesses, stats[1].lat_p99), (1010, 1001), "row fields in order");
    assert_eq!(stats[2].accesses, u64::MAX);
    let dir = scratch_dir("tenancy");
    fs::write(dir.join(name), text).expect("plant cell");
    let opts = SweepOptions { jobs: Some(1), cache_dir: Some(dir.clone()), ..SweepOptions::none() };
    let swept = run_tenancy_sweep(&mix, &[mode], &llc, 60_000, Scale::Small, &opts);
    assert_eq!(swept[0].1.as_ref().expect("cell ok"), &stats, "the sweep loads the pinned cell");
    let _ = fs::remove_dir_all(&dir);
}
