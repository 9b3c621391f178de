//! Inputs that a command cannot honour are user errors: `rlr` prints an
//! `error:` line and exits 1. It neither panics nor runs while silently
//! dropping what it was asked for.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../trace-io/tests/data/golden_429mcf.rlt");

fn rlr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlr")).args(args).output().expect("spawn rlr")
}

fn assert_user_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn run_rejects_belady() {
    let out = rlr(&["run", "429.mcf", "--policy", "belady", "--instructions", "1000", "--warmup", "0"]);
    assert_user_error(&out, "Belady is replay-only; use `rlr replay`");
}

#[test]
fn replay_has_no_hidden_option() {
    let out = rlr(&["replay", GOLDEN, "--policy", "lru", "--hidden", "7"]);
    assert_user_error(&out, "unknown option --hidden");
}

#[test]
fn train_from_a_file_rejects_records() {
    let agent: PathBuf =
        std::env::temp_dir().join(format!("rlr-train-records-{}.mlp", std::process::id()));
    let agent_arg = agent.to_str().expect("utf-8 path");
    let out = rlr(&["train", GOLDEN, "--out", agent_arg, "--records", "10", "--epochs", "1"]);
    let written = agent.exists();
    let _ = std::fs::remove_file(&agent);
    let _ = std::fs::remove_file(format!("{agent_arg}.ck"));
    assert!(!written, "no agent is written when --records is rejected");
    assert_user_error(&out, "--records");
}

#[test]
fn characterize_rejects_zero_entries() {
    let out = rlr(&["characterize", "429.mcf", "--entries", "0"]);
    assert_user_error(&out, "--entries must be positive");
}

#[test]
fn train_rejects_a_zero_hidden_width() {
    let agent: PathBuf =
        std::env::temp_dir().join(format!("rlr-train-hidden-{}.mlp", std::process::id()));
    let agent_arg = agent.to_str().expect("utf-8 path");
    let out = rlr(&[
        "train", "429.mcf", "--out", agent_arg, "--hidden", "0", "--records", "2000", "--epochs", "1",
    ]);
    let written = agent.exists();
    let _ = std::fs::remove_file(&agent);
    let _ = std::fs::remove_file(format!("{agent_arg}.ck"));
    assert!(!written, "no agent is written when --hidden is rejected");
    assert_user_error(&out, "--hidden must be positive");
}

/// Runs `rlr` with `args` plus `--out <existing file>` and returns the
/// output and whether the file still holds the bytes it held before.
fn run_against_an_existing_out(tag: &str, args: &[&str]) -> (Output, bool) {
    let out_path: PathBuf =
        std::env::temp_dir().join(format!("rlr-block-{tag}-{}.rlt", std::process::id()));
    let before = b"an existing file that a rejected command must not touch";
    std::fs::write(&out_path, before).expect("write the existing --out file");
    let mut full = args.to_vec();
    full.extend(["--out", out_path.to_str().expect("utf-8 path")]);
    let out = rlr(&full);
    let kept = std::fs::read(&out_path).is_ok_and(|after| after == before);
    let _ = std::fs::remove_file(&out_path);
    (out, kept)
}

#[test]
fn trace_capture_rejects_an_oversized_block_before_opening_out() {
    let (out, kept) = run_against_an_existing_out(
        "capture",
        &["trace", "capture", "429.mcf", "--records", "10", "--block", "1048577"],
    );
    assert_user_error(&out, "--block must be between 1 and 1048576 records");
    assert!(kept, "a rejected --block must leave the existing --out file as it was");
}

#[test]
fn trace_capture_mix_rejects_a_zero_block_before_simulating() {
    let (out, kept) = run_against_an_existing_out(
        "mix",
        &["trace", "capture", "--mix", "429.mcf,450.soplex", "--records", "10", "--block", "0"],
    );
    assert_user_error(&out, "--block must be between 1 and 1048576 records");
    assert!(kept, "a rejected --block must leave the existing --out file as it was");
}

#[test]
fn trace_export_rejects_out_of_range_blocks() {
    for (tag, args) in [
        ("export0", ["trace", "export", "429.mcf", "--records", "10", "--block", "0"]),
        ("exportcore", ["trace", "export", GOLDEN, "--core", "0", "--block", "1048577"]),
    ] {
        let (out, kept) = run_against_an_existing_out(tag, &args);
        assert_user_error(&out, "--block must be between 1 and 1048576 records");
        assert!(kept, "[{tag}] a rejected --block must leave the existing --out file as it was");
    }
}
