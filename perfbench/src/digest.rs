//! Cell digests: every cell's functional counters, hashed, pinned on the
//! default seed in `digests/<workload>.txt`.
//!
//! On the default seed (0) each cell's digest must equal the pinned one; on
//! any other seed the digests are only recorded (in the run's scratch
//! directory), since the inputs differ. On every seed, each later pass and
//! the traced pass must reproduce the first pass's counters exactly.
//!
//! To re-pin after a change that is meant to alter simulated results, run
//! the workload with `--seed 0` and copy `digests-seed0.txt` from its
//! scratch directory over `digests/<workload>.txt`, keeping the first two
//! columns.

use crate::{CellOutcome, Ctx};

/// The pinned digests of one workload: `cell<TAB>digest` lines.
pub fn pinned(workload: &str) -> &'static str {
    match workload {
        "sim_1core" => include_str!("../digests/sim_1core.txt"),
        "sim_4core_event" => include_str!("../digests/sim_4core_event.txt"),
        "llc_replay" => include_str!("../digests/llc_replay.txt"),
        "rl_train" => include_str!("../digests/rl_train.txt"),
        "serving_tiers" => include_str!("../digests/serving_tiers.txt"),
        _ => "",
    }
}

/// FNV-1a digest of a counter line, as 16 hex digits.
pub fn digest(counters: &str) -> String {
    format!("{:016x}", trace_io::fnv1a(counters.as_bytes()))
}

/// Compares `cells` with a pinned table; returns one message per failed
/// cell (a panic, a missing pin, or a mismatch).
pub fn verify(cells: &[CellOutcome], pinned: &str) -> Vec<String> {
    let table: Vec<(&str, &str)> = pinned
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let mut it = l.split('\t');
            Some((it.next()?, it.next()?))
        })
        .collect();
    let mut failures = Vec::new();
    for cell in cells {
        match &cell.counters {
            Err(why) => failures.push(format!("{}: failed: {why}", cell.name)),
            Ok(counters) => match table.iter().find(|(name, _)| *name == cell.name) {
                None => failures.push(format!("{}: no pinned digest", cell.name)),
                Some((_, want)) if *want != digest(counters) => failures.push(format!(
                    "{}: digest {} != pinned {want} ({counters})",
                    cell.name,
                    digest(counters)
                )),
                Some(_) => {}
            },
        }
    }
    failures
}

/// Checks the first pass's cells: against the pins on seed 0, and on every
/// seed for panics. Writes the run's digests to its scratch directory.
pub fn check(ctx: &Ctx, cells: &[CellOutcome]) -> Vec<String> {
    let mut lines = String::new();
    for cell in cells {
        if let Ok(counters) = &cell.counters {
            lines.push_str(&format!(
                "{}\t{}\t{counters}\n",
                cell.name,
                digest(counters)
            ));
        }
    }
    let _ = std::fs::write(
        ctx.scratch.join(format!("digests-seed{}.txt", ctx.seed)),
        lines,
    );
    if ctx.seed == 0 {
        verify(cells, pinned(&ctx.workload))
    } else {
        cells
            .iter()
            .filter_map(|c| {
                c.counters
                    .as_ref()
                    .err()
                    .map(|why| format!("{}: failed: {why}", c.name))
            })
            .collect()
    }
}

/// Compares a later pass with the first; returns one message per cell
/// whose counters differ or that failed.
pub fn compare(label: &str, first: &[CellOutcome], later: &[CellOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, cell) in later.iter().enumerate() {
        match (first.get(i), &cell.counters) {
            (_, Err(why)) => failures.push(format!("{}: {label} failed: {why}", cell.name)),
            (Some(a), Ok(_)) if a == cell => {}
            _ => failures.push(format!(
                "{}: {label} counters differ from the first pass",
                cell.name
            )),
        }
    }
    if later.len() != first.len() {
        failures.push(format!(
            "{label}: {} cells, first pass had {}",
            later.len(),
            first.len()
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, counters: &str) -> CellOutcome {
        CellOutcome {
            name: name.to_owned(),
            counters: Ok(counters.to_owned()),
        }
    }

    #[test]
    fn verify_accepts_matches_and_names_every_failed_cell() {
        let pins = format!("a\t{}\nb\t{}\n", digest("1 2 3"), digest("4 5"));
        assert!(verify(&[cell("a", "1 2 3"), cell("b", "4 5")], &pins).is_empty());
        let bad = verify(
            &[
                cell("a", "1 2 4"),
                cell("c", "9"),
                CellOutcome {
                    name: "b".into(),
                    counters: Err("boom".into()),
                },
            ],
            &pins,
        );
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(
            bad[0].starts_with("a: digest")
                && bad[1].starts_with("c: no pinned")
                && bad[2].contains("boom")
        );
    }

    #[test]
    fn compare_flags_changed_missing_and_failed_cells() {
        let first = [cell("a", "1"), cell("b", "2")];
        assert!(compare("x", &first, &first).is_empty());
        assert_eq!(
            compare("x", &first, &[cell("a", "1"), cell("b", "3")]).len(),
            1
        );
        assert_eq!(compare("x", &first, &[cell("a", "1")]).len(), 1);
    }

    #[test]
    fn digest_is_stable_fnv1a() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("1"), digest("2"));
    }
}
