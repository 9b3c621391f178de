//! `rlr doctor`: scan the results tree, classify every artifact, repair
//! what can be repaired, quarantine what cannot.
//!
//! Long sweeps leave their value on disk — sweep checkpoint cells and
//! corpus containers — and a crash (or bad media) can damage any of them.
//! The doctor walks one results root and applies a uniform policy:
//!
//! * **Orphaned scratch files** (`.{name}.tmp.{pid}.{n}` crash residue) are
//!   deleted ([`crate::checkpoint::sweep_orphans`]).
//! * **Checkpoint cells** (`cache/sweep/*.json`) must parse and embed a
//!   key whose FNV-1a hash matches their file name; anything else is
//!   quarantined (resume already treats it as a miss, so removal only
//!   costs a recomputation, never correctness).
//! * **Corpus containers** (`corpus/*.rlt`) are verified block by block;
//!   a damaged container is salvaged ([`trace_io::salvage_file`]) — the
//!   original moves to `quarantine/` and the recovered blocks are
//!   republished atomically in its place. A container with nothing to
//!   salvage is quarantined only.
//!
//! Every quarantine preserves the damaged bytes beside the artifact (see
//! [`crate::corpus::quarantine_file`]); nothing is silently destroyed
//! except scratch orphans, which were never addressable by any reader.
//! Running with `repair = false` (`rlr doctor --dry-run`) reports the
//! same classification without touching the filesystem.

use std::fs;
use std::path::{Path, PathBuf};

use crate::checkpoint::{self, write_atomic};
use crate::corpus::quarantine_file;
use crate::json::Json;
use crate::report::Table;

/// What the doctor concluded (and did) about one artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactStatus {
    /// Verified clean; untouched.
    Ok,
    /// Was damaged; a repaired replacement is now in place (original
    /// quarantined).
    Repaired,
    /// Damaged beyond repair; moved to `quarantine/`.
    Quarantined,
    /// Damaged, but this was a dry run (or the repair itself failed) —
    /// nothing was changed.
    Damaged,
}

impl ArtifactStatus {
    fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Repaired => "repaired",
            Self::Quarantined => "quarantined",
            Self::Damaged => "damaged",
        }
    }
}

/// One scanned artifact.
#[derive(Debug)]
pub struct ArtifactReport {
    /// Where it lives.
    pub path: PathBuf,
    /// Artifact family (checkpoint cell, corpus container, ...).
    pub kind: &'static str,
    /// Verdict (and action taken, when repairing).
    pub status: ArtifactStatus,
    /// Human-readable specifics: what was wrong, what was recovered.
    pub detail: String,
}

/// Everything one doctor pass found.
#[derive(Debug, Default)]
pub struct DoctorReport {
    /// Per-artifact verdicts, in scan order.
    pub artifacts: Vec<ArtifactReport>,
    /// Orphaned scratch files deleted (counted, not listed — they carry
    /// no recoverable content).
    pub orphans_removed: usize,
}

impl DoctorReport {
    fn count(&self, status: ArtifactStatus) -> usize {
        self.artifacts.iter().filter(|a| a.status == status).count()
    }

    /// `true` when nothing needed (or needs) attention.
    pub fn all_clean(&self) -> bool {
        self.orphans_removed == 0 && self.artifacts.iter().all(|a| a.status == ArtifactStatus::Ok)
    }

    /// Renders the summary table `rlr doctor` prints: one row per
    /// artifact that needed attention, totals in the notes.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "doctor",
            vec!["artifact".to_owned(), "kind".to_owned(), "status".to_owned(), "detail".to_owned()],
        );
        for a in &self.artifacts {
            if a.status == ArtifactStatus::Ok {
                continue;
            }
            table.push_row(vec![
                a.path.display().to_string(),
                a.kind.to_owned(),
                a.status.label().to_owned(),
                a.detail.clone(),
            ]);
        }
        table.push_note(format!(
            "{} ok, {} repaired, {} quarantined, {} damaged; {} orphaned scratch file(s) removed",
            self.count(ArtifactStatus::Ok),
            self.count(ArtifactStatus::Repaired),
            self.count(ArtifactStatus::Quarantined),
            self.count(ArtifactStatus::Damaged),
            self.orphans_removed,
        ));
        table.render()
    }
}

/// Files of `dir` with extension `ext`, sorted for a deterministic report;
/// skips subdirectories (and with them every `quarantine/`).
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    files.sort();
    files
}

/// Quarantines `path` if `repair`, reporting the outcome either way.
fn quarantine_or_flag(
    report: &mut DoctorReport,
    path: &Path,
    kind: &'static str,
    repair: bool,
    problem: String,
) {
    let (status, detail) = if !repair {
        (ArtifactStatus::Damaged, format!("{problem} (dry run)"))
    } else {
        match quarantine_file(path) {
            Ok(dest) => {
                (ArtifactStatus::Quarantined, format!("{problem}; moved to {}", dest.display()))
            }
            Err(e) => (ArtifactStatus::Damaged, format!("{problem}; quarantine failed: {e}")),
        }
    };
    report.artifacts.push(ArtifactReport { path: path.to_owned(), kind, status, detail });
}

fn check_checkpoint_cells(report: &mut DoctorReport, dir: &Path, repair: bool) {
    if repair {
        report.orphans_removed += checkpoint::sweep_orphans(dir);
    } else if let Ok(entries) = fs::read_dir(dir) {
        report.orphans_removed += entries
            .flatten()
            .filter(|e| checkpoint::is_scratch_name(&e.file_name().to_string_lossy()))
            .count();
    }
    for path in files_with_ext(dir, "json") {
        // A valid cell embeds its full key string, and its file name is
        // the key's 16-hex-digit FNV-1a hash — both checkable without
        // knowing which sweep wrote it.
        let verdict = fs::read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|v| match v.get("key").and_then(Json::as_str) {
                None => Err("no embedded key".to_owned()),
                Some(key) => {
                    let expected = checkpoint::CellKey::new(key.to_owned()).file_name();
                    if path.file_name().and_then(|n| n.to_str()) == Some(expected.as_str()) {
                        Ok(())
                    } else {
                        Err(format!("embedded key hashes to {expected}, not this file name"))
                    }
                }
            });
        match verdict {
            Ok(()) => report.artifacts.push(ArtifactReport {
                path,
                kind: "checkpoint cell",
                status: ArtifactStatus::Ok,
                detail: String::new(),
            }),
            Err(problem) => {
                quarantine_or_flag(report, &path, "checkpoint cell", repair, problem)
            }
        }
    }
}

fn check_corpus_containers(report: &mut DoctorReport, dir: &Path, repair: bool) {
    for path in files_with_ext(dir, "rlt") {
        let scan = fs::File::open(&path)
            .map_err(trace_io::TraceIoError::from)
            .and_then(|f| trace_io::scan(std::io::BufReader::new(f)));
        let problem = match scan {
            Ok(summary) => {
                report.artifacts.push(ArtifactReport {
                    path,
                    kind: "corpus container",
                    status: ArtifactStatus::Ok,
                    detail: format!("{} records", summary.records),
                });
                continue;
            }
            Err(e) => e.to_string(),
        };
        if !repair {
            report.artifacts.push(ArtifactReport {
                path,
                kind: "corpus container",
                status: ArtifactStatus::Damaged,
                detail: format!("{problem} (dry run)"),
            });
            continue;
        }
        // Salvage first, then quarantine the original, then republish the
        // survivors — so the damaged bytes are preserved as evidence and
        // the live name only ever holds a verifying container.
        match trace_io::salvage_file(&path) {
            Ok((salvage, bytes)) if salvage.recovered_records > 0 => {
                let outcome = quarantine_file(&path)
                    .map_err(|e| format!("quarantine failed: {e}"))
                    .and_then(|dest| {
                        write_atomic(&path, &bytes)
                            .map_err(|e| format!("republish failed: {e}"))
                            .map(|()| dest)
                    });
                match outcome {
                    Ok(dest) => report.artifacts.push(ArtifactReport {
                        path,
                        kind: "corpus container",
                        status: ArtifactStatus::Repaired,
                        detail: format!(
                            "{problem}; recovered {}/{} blocks ({} records), original at {}",
                            salvage.recovered_blocks,
                            salvage.blocks.len(),
                            salvage.recovered_records,
                            dest.display()
                        ),
                    }),
                    Err(e) => report.artifacts.push(ArtifactReport {
                        path,
                        kind: "corpus container",
                        status: ArtifactStatus::Damaged,
                        detail: format!("{problem}; {e}"),
                    }),
                }
            }
            Ok(_) => quarantine_or_flag(
                report,
                &path,
                "corpus container",
                repair,
                format!("{problem}; nothing salvageable"),
            ),
            Err(e) => quarantine_or_flag(
                report,
                &path,
                "corpus container",
                repair,
                format!("{problem}; salvage failed: {e}"),
            ),
        }
    }
}

/// Scans the results tree under `root` (normally
/// [`crate::report::results_dir`]) and applies the repair policy described
/// in the module docs. With `repair = false` the same classification is
/// reported but the filesystem is left untouched.
pub fn run(root: &Path, repair: bool) -> DoctorReport {
    let mut report = DoctorReport::default();
    // Every checkpoint family keeps its cells in its own subdirectory of
    // `cache/` (`sweep`, `objcache`, `tenancy`, ...). Cells embed their
    // key regardless of which sweep wrote them, so one walk classifies
    // them all; sorted so the report order is deterministic.
    let mut families: Vec<PathBuf> = fs::read_dir(root.join("cache"))
        .map(|entries| entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    families.sort();
    for dir in &families {
        check_checkpoint_cells(&mut report, dir, repair);
    }
    check_corpus_containers(&mut report, &root.join("corpus"), repair);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("rlr_doctor_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn empty_root_is_clean() {
        let root = scratch_root("empty");
        let report = run(&root, true);
        assert!(report.all_clean());
        assert!(report.artifacts.is_empty());
    }

    #[test]
    fn dry_run_reports_without_touching() {
        let root = scratch_root("dry");
        let sweep = root.join("cache").join("sweep");
        fs::create_dir_all(&sweep).expect("mkdir");
        let bad = sweep.join("00000000deadbeef.json");
        fs::write(&bad, b"not json at all").expect("write");
        fs::write(sweep.join(".x.json.tmp.1"), b"").expect("orphan");
        let report = run(&root, false);
        assert_eq!(report.count(ArtifactStatus::Damaged), 1);
        assert_eq!(report.orphans_removed, 1, "dry run still counts orphans");
        assert!(bad.exists(), "dry run must not move anything");
        assert!(sweep.join(".x.json.tmp.1").exists(), "dry run must not delete orphans");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn repairs_quarantine_and_leave_valid_cells() {
        let root = scratch_root("repair");
        let sweep = root.join("cache").join("sweep");
        // One valid cell (key hash matches file name)...
        let key = crate::checkpoint::cell_key("429.mcf", "lru", "doctor-test");
        let stats = cache_sim::RunStats::default();
        crate::checkpoint::store_cell(&sweep, &key, &stats);
        // ...one with a mismatched name, one with garbage, one orphan.
        let text = crate::checkpoint::encode_cell(&key, &stats);
        fs::write(sweep.join("0123456789abcdef.json"), text).expect("mismatched");
        fs::write(sweep.join("ffffffffffffffff.json"), b"{broken").expect("garbage");
        fs::write(sweep.join(".y.json.tmp.7"), b"torn").expect("orphan");
        let report = run(&root, true);
        assert_eq!(report.count(ArtifactStatus::Ok), 1);
        assert_eq!(report.count(ArtifactStatus::Quarantined), 2);
        assert_eq!(report.orphans_removed, 1);
        assert!(sweep.join(key.file_name()).exists(), "valid cell untouched");
        assert!(!sweep.join("0123456789abcdef.json").exists());
        assert!(sweep.join("quarantine").join("0123456789abcdef.json").exists());
        // Doctor is idempotent: a second pass finds a clean tree.
        assert!(run(&root, true).all_clean());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn walks_every_checkpoint_family() {
        let root = scratch_root("families");
        // A valid tenancy cell and a torn one, plus a broken objcache
        // cell: doctor must classify all of them, not just cache/sweep.
        let tenancy_dir = root.join("cache").join("tenancy");
        let mix = workloads::TenantMix::default_three_class();
        let llc = crate::tenancy::default_llc();
        let key = crate::tenancy::tenancy_cell_key(
            &mix,
            &tenancy::IsolationMode::Shared,
            &llc,
            1_000,
        );
        let stats = vec![crate::tenancy::TenantCellStats::default(); 3];
        crate::tenancy::store_tenancy_cell(&tenancy_dir, &key, &stats);
        let full = crate::checkpoint::encode_cell(&key, &stats);
        fs::create_dir_all(&tenancy_dir).expect("mkdir");
        fs::write(tenancy_dir.join("00000000torncell.json"), &full[..full.len() / 2])
            .expect("torn cell");
        let obj_dir = root.join("cache").join("objcache");
        fs::create_dir_all(&obj_dir).expect("mkdir");
        fs::write(obj_dir.join("ffffffffffffffff.json"), b"{broken").expect("garbage");
        let report = run(&root, true);
        assert_eq!(report.count(ArtifactStatus::Ok), 1, "{report:?}");
        assert_eq!(report.count(ArtifactStatus::Quarantined), 2, "{report:?}");
        assert!(tenancy_dir.join(key.file_name()).exists(), "valid cell untouched");
        assert!(tenancy_dir.join("quarantine").join("00000000torncell.json").exists());
        assert!(obj_dir.join("quarantine").join("ffffffffffffffff.json").exists());
        assert!(run(&root, true).all_clean());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn render_summarises_counts() {
        let root = scratch_root("render");
        let report = run(&root, true);
        let text = report.render();
        assert!(text.contains("0 repaired"));
        assert!(text.contains("orphaned scratch"));
    }
}
