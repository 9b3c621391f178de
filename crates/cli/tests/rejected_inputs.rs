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

/// Runs `rlr objcache <action> <args>` with a private results directory,
/// so a run that is wrongly accepted leaves no checkpoints behind.
fn objcache(tag: &str, action: &str, args: &[&str]) -> Output {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rlr-objcache-{tag}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rlr"))
        .args(["objcache", action, "--requests", "100"])
        .args(args)
        .env("RLR_RESULTS_DIR", &dir)
        .output()
        .expect("spawn rlr");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn objcache_rejects_a_flash_share_over_100_percent() {
    for action in ["run", "compare", "derive"] {
        let out = objcache(
            &format!("share-{action}"),
            action,
            &["--flash-share", "500"],
        );
        assert_user_error(&out, "--flash-share is a percentage, at most 100");
    }
}

#[test]
fn objcache_rejects_a_skew_that_is_not_finite_and_non_negative() {
    for (action, skew) in [
        ("run", "nan"),
        ("run", "-0.5"),
        ("compare", "inf"),
        ("derive", "NaN"),
    ] {
        let out = objcache(&format!("skew-{action}"), action, &["--skew", skew]);
        assert_user_error(&out, "--skew must be finite and non-negative");
    }
}

#[test]
fn objcache_rejects_a_capacity_beyond_2_pow_64_bytes() {
    // 2^44 + 1 MiB used to wrap to 1 MiB and run.
    let out = objcache("capacity", "run", &["--capacity-mib", "17592186044417"]);
    assert_user_error(&out, "--capacity-mib 17592186044417 exceeds 2^64 bytes");
    assert!(
        out.stdout.is_empty(),
        "nothing runs: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn replay_rejects_an_agent_without_the_agent_policy() {
    let out = rlr(&["replay", GOLDEN, "--policy", "lru", "--agent", "/nonexistent.mlp"]);
    assert_user_error(&out, "--agent applies only to --policy agent");
}

#[test]
fn trace_export_of_a_benchmark_rejects_core() {
    let (out, kept) = run_against_an_existing_out(
        "benchcore",
        &["trace", "export", "429.mcf", "--records", "10", "--core", "3"],
    );
    assert_user_error(&out, "--core applies only to a trace-file source");
    assert!(kept, "a rejected --core must leave the existing --out file as it was");
}

#[test]
fn trace_export_of_a_container_rejects_records() {
    let (out, kept) = run_against_an_existing_out(
        "filerecords",
        &["trace", "export", GOLDEN, "--core", "0", "--records", "10"],
    );
    assert_user_error(&out, "--records applies to a benchmark export");
    assert!(kept, "a rejected --records must leave the existing --out file as it was");
}

#[test]
fn trace_verify_rejects_out_without_repair() {
    let (out, kept) = run_against_an_existing_out("verifyout", &["trace", "verify", GOLDEN]);
    assert_user_error(&out, "--out applies only with --repair");
    assert!(kept, "a rejected --out must leave the existing file as it was");
}

#[test]
fn tenancy_run_rejects_ranks_outside_learned_priority() {
    for mode in [None, Some("way-partition")] {
        let mut args = vec!["tenancy", "run", "--accesses", "100", "--ranks", "1,2"];
        args.extend(mode.iter().flat_map(|m| ["--mode", *m]));
        let out = rlr(&args);
        assert_user_error(&out, "--ranks applies only to --mode learned-priority");
    }
}

#[test]
fn train_rejects_zero_epochs_and_zero_records() {
    for (tag, flag, args) in [
        ("epochs", "--epochs must be positive", ["--epochs", "0", "--records", "2000"]),
        ("records", "--records must be positive", ["--records", "0", "--epochs", "1"]),
    ] {
        let agent: PathBuf =
            std::env::temp_dir().join(format!("rlr-train-zero-{tag}-{}.mlp", std::process::id()));
        let agent_arg = agent.to_str().expect("utf-8 path");
        let mut full = vec!["train", "429.mcf", "--out", agent_arg];
        full.extend(args);
        let out = rlr(&full);
        let written = agent.exists();
        let _ = std::fs::remove_file(&agent);
        let _ = std::fs::remove_file(format!("{agent_arg}.ck"));
        assert!(!written, "[{tag}] no agent is written when the flag is rejected");
        assert_user_error(&out, flag);
    }
}

#[test]
fn run_rejects_zero_instructions() {
    let out = rlr(&["run", "416.gamess", "--instructions", "0"]);
    assert_user_error(&out, "--instructions must be positive");
}

#[test]
fn compare_rejects_zero_instructions() {
    let out =
        rlr(&["compare", "429.mcf", "--policies", "FIFO", "--instructions", "0", "--warmup", "0"]);
    assert_user_error(&out, "--instructions must be positive");
}

#[test]
fn objcache_run_rejects_zero_requests() {
    let out = rlr(&["objcache", "run", "--requests", "0"]);
    assert_user_error(&out, "--requests must be positive");
}

#[test]
fn objcache_compare_rejects_zero_requests_and_writes_no_csv() {
    let dir = std::env::temp_dir().join(format!("rlr-objcache-zero-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rlr"))
        .args(["objcache", "compare", "--requests", "0"])
        .env("RLR_RESULTS_DIR", &dir)
        .env("RLR_CHECKPOINT", "0")
        .output()
        .expect("spawn rlr");
    let wrote = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!wrote, "a rejected sweep writes nothing under the results directory");
    assert_user_error(&out, "--requests must be positive");
}
