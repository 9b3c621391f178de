//! A bad `RLR_TIMING` value is a user input error, reported like a bad
//! `--timing` flag: an `error:` line and exit status 1, never a panic.

use std::process::Command;

fn rlr_run(timing_env: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rlr"))
        .args(["run", "429.mcf", "--instructions", "1000", "--warmup", "0"])
        .args(extra)
        .env("RLR_TIMING", timing_env)
        .output()
        .expect("spawn rlr")
}

#[test]
fn misspelled_rlr_timing_is_an_error_not_a_panic() {
    let out = rlr_run("evnt", &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: RLR_TIMING must be `analytic` or `event`, got `evnt`"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn timing_flag_overrides_the_env_and_valid_env_values_run() {
    let flag = rlr_run("evnt", &["--timing", "event"]);
    assert!(flag.status.success(), "stderr: {}", String::from_utf8_lossy(&flag.stderr));
    let env = rlr_run("Event", &[]);
    assert!(env.status.success(), "stderr: {}", String::from_utf8_lossy(&env.stderr));
    assert!(String::from_utf8_lossy(&env.stdout).contains("timing       event"));
}
