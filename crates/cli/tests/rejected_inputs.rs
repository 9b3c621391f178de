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
