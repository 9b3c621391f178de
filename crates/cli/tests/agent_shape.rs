//! A well-formed `MLP1` network whose widths fit no agent for the paper
//! LLC is a user input error: `rlr analyze --agent` and `rlr replay
//! --policy agent` print an `error:` line and exit 1, never panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes a 10→4→16 network (the paper encoder wants 334 inputs) to a
/// file unique to `tag` and returns its path.
fn narrow_net(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rlr-{tag}-{}.mlp", std::process::id()));
    let mut bytes = Vec::new();
    rl::Mlp::new(10, 4, 16, 1).save(&mut bytes).expect("in-memory save");
    std::fs::write(&path, bytes).expect("write the network");
    path
}

fn rlr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlr")).args(args).output().expect("spawn rlr")
}

fn assert_shape_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: load "), "stderr: {stderr}");
    assert!(stderr.contains("network has 10 inputs"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn analyze_rejects_a_net_of_the_wrong_width() {
    let net = narrow_net("analyze");
    let out = rlr(&["analyze", "--agent", net.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&net);
    assert_shape_error(&out);
}

#[test]
fn replay_rejects_a_net_of_the_wrong_width() {
    let net = narrow_net("replay");
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/../trace-io/tests/data/golden_429mcf.rlt");
    let out = rlr(&["replay", trace, "--policy", "agent", "--agent", net.to_str().expect("utf-8")]);
    let _ = std::fs::remove_file(&net);
    assert_shape_error(&out);
}
