//! A bad `RLR_SCALE` value is a user input error, reported like a bad
//! flag: an `error:` line and exit status 1, before any simulation and
//! never a panic. Falling back to `small` would mislabel the run.

use std::process::{Command, Output};

fn rlr(scale_env: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlr"))
        .args(args)
        .env("RLR_SCALE", scale_env)
        .output()
        .expect("spawn rlr")
}

fn assert_scale_error(out: &Output, raw: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!(
            "error: RLR_SCALE must be `small`, `medium` or `full`, got `{raw}`"
        )),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn misspelled_rlr_scale_is_an_error_not_a_panic() {
    // `--accesses` is given, so the scale's default budget is not needed;
    // the run would still be labelled with the scale it resolved.
    let out = rlr("fulll", &["tenancy", "run", "--accesses", "1000"]);
    assert_scale_error(&out, "fulll");
}

#[test]
fn mix_capture_rejects_a_bad_scale_before_writing() {
    let path =
        std::env::temp_dir().join(format!("rlr-scale-env-{}.rlt", std::process::id()));
    let out_arg = path.to_str().expect("utf-8 path");
    let out = rlr(
        "huge",
        &["trace", "capture", "429.mcf,470.lbm", "--mix", "--records", "100", "--out", out_arg],
    );
    let written = path.exists();
    let _ = std::fs::remove_file(&path);
    assert_scale_error(&out, "huge");
    assert!(!written, "no trace is written when RLR_SCALE is rejected");
}

#[test]
fn valid_and_empty_rlr_scale_values_run() {
    for raw in ["Small", ""] {
        let out = rlr(raw, &["tenancy", "run", "--accesses", "2000"]);
        assert!(
            out.status.success(),
            "RLR_SCALE={raw:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
