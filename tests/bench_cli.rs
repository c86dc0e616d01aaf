//! The `bench` binary's command line: an unknown mode word must be
//! refused before anything runs or any `BENCH_*.json` is written.

use std::process::Command;

#[test]
fn unknown_mode_prints_usage_and_exits_2() {
    let dir = std::env::temp_dir().join(format!("scc-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["recovry", "--smoke"])
        .current_dir(&dir)
        .output()
        .expect("spawn bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown bench mode 'recovry'"), "{stderr}");
    assert!(stderr.contains("usage: bench"), "{stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "an unknown mode wrote {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
