//! Smoke tests of the experiment harness: tables are well-formed and the
//! cheap experiments produce sane values.

use experiments::{geomean_speedup_pct, tables, PolicyKind, Scale};

#[test]
fn table1_contains_every_headline_policy() {
    let table = tables::table1();
    let rendered = table.render();
    for name in ["LRU", "DRRIP", "KPC-R", "SHiP", "SHiP++", "Hawkeye", "RLR", "Glider"] {
        assert!(rendered.contains(name), "Table I must list {name}");
    }
    // The paper's headline: RLR costs 16.75 KB.
    assert!(rendered.contains("16.75"));
    // And it must be marked as not using the PC.
    let rlr_row = table
        .rows()
        .iter()
        .find(|r| r[0] == "RLR")
        .expect("RLR row exists");
    assert_eq!(rlr_row[1], "no");
}

#[test]
fn single_core_roster_matches_figure_10() {
    let names: Vec<&str> = PolicyKind::SINGLE_CORE.iter().map(|p| p.name()).collect();
    assert_eq!(names, ["DRRIP", "KPC-R", "SHiP", "RLR", "RLR(unopt)", "Hawkeye", "SHiP++"]);
}

#[test]
fn scales_parse_from_env_convention() {
    // Not setting the variable defaults to Small; explicit values resolve.
    assert_eq!(Scale::from_env(), Scale::Small);
}

#[test]
fn geomean_matches_hand_computation() {
    // 10% and 21% speedups: geomean = sqrt(1.1 * 1.21) - 1 = 15.37%.
    let g = geomean_speedup_pct([10.0, 21.0]);
    assert!((g - 15.3687).abs() < 1e-3, "geomean = {g}");
}

#[test]
fn csv_artifacts_are_written() {
    let table = tables::table1();
    let dir = std::env::temp_dir().join("rlr_smoke_csv");
    let path = table.write_csv(&dir).expect("csv written");
    let content = std::fs::read_to_string(path).expect("readable");
    assert!(content.lines().count() > 10);
    assert!(content.starts_with("policy,"));
}

/// The committed Table I CSV is the pin: every row, including the three
/// storage-formula rows (MPPPB, Glider, Counter(AIP)), must render byte for
/// byte as it is stored under `results/`.
#[test]
fn table1_csv_matches_the_committed_artifact() {
    let dir = std::env::temp_dir().join(format!("rlr_table1_pin_{}", std::process::id()));
    let path = tables::table1().write_csv(&dir).expect("csv written");
    let written = std::fs::read(&path).expect("readable");
    let _ = std::fs::remove_dir_all(&dir);
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table_i__hardware_overhead__16_way_2mb_llc.csv"
    ))
    .expect("committed Table I CSV");
    assert_eq!(
        String::from_utf8_lossy(&written),
        String::from_utf8_lossy(&committed),
        "Table I drifted from results/"
    );
}
