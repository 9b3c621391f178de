//! A file in the retired fixed-width `LLCT` trace layout is a user input
//! error: `rlr replay`, `rlr trace info` and `rlr train` print an `error:`
//! line that names the bad magic and exit 1, never panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a one-record `LLCT` file (magic, `u64` count, one 18-byte
/// record) unique to `tag` and returns its path.
fn old_trace(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rlr-llct-{tag}-{}.trace", std::process::id()));
    let mut bytes = b"LLCT".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 18]);
    std::fs::write(&path, bytes).expect("write the old trace");
    path
}

/// Runs `rlr` with `args` on a fresh old trace; `{}` in `args` stands for
/// its path.
fn rlr_on_old_trace(tag: &str, args: &[&str]) -> Output {
    let path = old_trace(tag);
    let path_arg = path.to_str().expect("utf-8 path");
    let args: Vec<&str> = args.iter().map(|&a| if a == "{}" { path_arg } else { a }).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_rlr")).args(&args).output().expect("spawn rlr");
    let _ = std::fs::remove_file(&path);
    out
}

fn assert_bad_magic(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(stderr.contains(r#"not an RLT1 trace (magic "LLCT")"#), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn replay_rejects_an_old_trace() {
    assert_bad_magic(&rlr_on_old_trace("replay-belady", &["replay", "{}"]));
    assert_bad_magic(&rlr_on_old_trace("replay-lru", &["replay", "{}", "--policy", "lru"]));
}

#[test]
fn trace_info_rejects_an_old_trace() {
    assert_bad_magic(&rlr_on_old_trace("info", &["trace", "info", "{}"]));
}

#[test]
fn train_rejects_an_old_trace() {
    let out_path = std::env::temp_dir().join(format!("rlr-llct-train-{}.mlp", std::process::id()));
    let out = rlr_on_old_trace("train", &["train", "{}", "--out", out_path.to_str().expect("utf-8")]);
    assert!(!out_path.exists(), "no agent is written for a bad trace");
    assert_bad_magic(&out);
}
