//! Performance-over-time tracking: turns the bench targets' JSON
//! artifacts (`results/bench/<target>.json`) into an append-only history
//! and a trend table, so throughput regressions show up as a report, not
//! as an archaeology project over old terminal scrollback.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use crate::json::Json;
use crate::report::{results_dir, Table};

/// One benchmark row extracted from a bench target's JSON artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRow {
    /// Row name, e.g. `ci_smoke/packed`.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: u64,
    /// Median throughput in accesses per second.
    pub accesses_per_sec: u64,
}

/// One recorded point of a target's performance history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The bench target (e.g. `ci_smoke`).
    pub target: String,
    /// Caller-supplied label (a commit, a date, `ci`...).
    pub label: String,
    /// The rows at that point.
    pub rows: Vec<BenchRow>,
}

fn bench_dir() -> PathBuf {
    results_dir().join("bench")
}

fn history_path() -> PathBuf {
    bench_dir().join("history.jsonl")
}

fn parse_rows(doc: &Json) -> Option<Vec<BenchRow>> {
    let rows = doc.get("rows")?.as_arr()?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(BenchRow {
            name: row.get("name")?.as_str()?.to_owned(),
            median_ns: row.get("median_ns")?.as_u64()?,
            accesses_per_sec: row.get("accesses_per_sec")?.as_u64()?,
        });
    }
    Some(out)
}

/// Loads the *current* rows of a bench target from
/// `results/bench/<target>.json`, or `None` if the target has not been
/// run (or wrote something unparseable).
pub fn load_bench_rows(target: &str) -> Option<Vec<BenchRow>> {
    let text = fs::read_to_string(bench_dir().join(format!("{target}.json"))).ok()?;
    parse_rows(&Json::parse(&text).ok()?)
}

fn snapshot_json(snapshot: &Snapshot) -> Json {
    Json::obj([
        ("target", Json::Str(snapshot.target.clone())),
        ("label", Json::Str(snapshot.label.clone())),
        (
            "rows",
            Json::Arr(
                snapshot
                    .rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.clone())),
                            ("median_ns", Json::U64(r.median_ns)),
                            ("accesses_per_sec", Json::U64(r.accesses_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_snapshot(line: &str) -> Option<Snapshot> {
    let doc = Json::parse(line).ok()?;
    Some(Snapshot {
        target: doc.get("target")?.as_str()?.to_owned(),
        label: doc.get("label")?.as_str()?.to_owned(),
        rows: parse_rows(&doc)?,
    })
}

/// Appends the target's current bench rows to the history
/// (`results/bench/history.jsonl`, one JSON object per line) under
/// `label`. Returns the recorded snapshot.
///
/// # Errors
///
/// Returns `Ok(None)` when the target has no parseable JSON artifact, or
/// an I/O error if the history file cannot be appended.
pub fn record_snapshot(target: &str, label: &str) -> std::io::Result<Option<Snapshot>> {
    let Some(rows) = load_bench_rows(target) else {
        return Ok(None);
    };
    let snapshot =
        Snapshot { target: target.to_owned(), label: label.to_owned(), rows };
    fs::create_dir_all(bench_dir())?;
    let mut f = fs::OpenOptions::new().create(true).append(true).open(history_path())?;
    // JSONL: `Json::encode` emits no raw newlines, so one line per record.
    writeln!(f, "{}", snapshot_json(&snapshot).encode().replace('\n', " "))?;
    Ok(Some(snapshot))
}

/// Loads the recorded history of one target, oldest first. Corrupt or
/// foreign lines are skipped — a torn append must not take down the
/// report.
pub fn history(target: &str) -> Vec<Snapshot> {
    let Ok(text) = fs::read_to_string(history_path()) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(parse_snapshot)
        .filter(|s| s.target == target)
        .collect()
}

/// How many history points the trend table shows.
const TREND_WINDOW: usize = 5;

/// Builds the perf-over-time table for one target: one row per benchmark
/// name, one column per recorded snapshot (most recent [`TREND_WINDOW`]),
/// plus the relative change of the latest snapshot against the previous
/// one. Returns `None` when nothing has been recorded.
pub fn trend_table(target: &str) -> Option<Table> {
    let all = history(target);
    if all.is_empty() {
        return None;
    }
    let window = &all[all.len().saturating_sub(TREND_WINDOW)..];
    let latest = window.last().expect("window is non-empty");
    let mut headers = vec!["Benchmark".to_owned()];
    headers.extend(window.iter().map(|s| format!("{} (Macc/s)", s.label)));
    headers.push("Δ vs prev".to_owned());
    let mut table = Table::new(format!("Perf over time: {target}"), headers);
    let lookup = |s: &Snapshot, name: &str| -> Option<u64> {
        s.rows.iter().find(|r| r.name == name).map(|r| r.accesses_per_sec)
    };
    for row in &latest.rows {
        let mut cells = vec![row.name.clone()];
        for s in window {
            cells.push(match lookup(s, &row.name) {
                Some(aps) => Table::fmt(aps as f64 / 1e6),
                None => "-".to_owned(),
            });
        }
        let delta = if window.len() >= 2 {
            match lookup(&window[window.len() - 2], &row.name) {
                Some(prev) if prev > 0 => {
                    let pct = (row.accesses_per_sec as f64 / prev as f64 - 1.0) * 100.0;
                    format!("{pct:+.1}%")
                }
                _ => "-".to_owned(),
            }
        } else {
            "-".to_owned()
        };
        cells.push(delta);
        table.push_row(cells);
    }
    table.push_note(format!(
        "{} snapshot(s) recorded; latest label `{}`. Record with `rlr perf-report --record <label>` \
         after a bench run.",
        all.len(),
        latest.label
    ));
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lines_round_trip() {
        let snap = Snapshot {
            target: "hotpath".to_owned(),
            label: "pr-5".to_owned(),
            rows: vec![
                BenchRow { name: "a".to_owned(), median_ns: 10, accesses_per_sec: 1_000_000 },
                BenchRow { name: "b".to_owned(), median_ns: 20, accesses_per_sec: 500_000 },
            ],
        };
        let line = snapshot_json(&snap).encode().replace('\n', " ");
        assert_eq!(parse_snapshot(&line), Some(snap));
    }

    #[test]
    fn corrupt_history_lines_are_skipped() {
        assert_eq!(parse_snapshot("{not json"), None);
        assert_eq!(parse_snapshot(r#"{"target": "x"}"#), None, "missing fields");
    }
}
