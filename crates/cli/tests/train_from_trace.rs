//! `rlr train` takes any existing file as a trace, whatever its name:
//! a container that `rlr trace capture` just wrote to `*.rlt` trains
//! instead of being looked up as a benchmark name.

use std::process::{Command, Output};

fn rlr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlr")).args(args).output().expect("spawn rlr")
}

fn assert_ok(out: &Output) {
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn train_reads_a_captured_rlt_container() {
    let dir = std::env::temp_dir().join(format!("rlr-train-rlt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    let trace = dir.join("mcf.rlt");
    let agent = dir.join("agent.mlp");
    let trace_arg = trace.to_str().expect("utf-8 path");
    let agent_arg = agent.to_str().expect("utf-8 path");

    let capture = rlr(&["trace", "capture", "429.mcf", "--out", trace_arg, "--records", "4000"]);
    assert_ok(&capture);
    let train = rlr(&["train", trace_arg, "--out", agent_arg, "--epochs", "1"]);
    let agent_written = agent.is_file();
    let _ = std::fs::remove_dir_all(&dir);
    assert_ok(&train);
    assert!(agent_written, "train must save the agent");
}
