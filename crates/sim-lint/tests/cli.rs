//! End-to-end CLI tests: the exit-code contract (0 clean / 1 violations /
//! 2 internal error) and the report formats CI consumes. These run the
//! real binary against throwaway workspaces so a regression in argument
//! parsing or exit mapping fails here, not in CI.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sim-lint");

/// A fresh scratch workspace root, deleted when dropped.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("sim-lint-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        Scratch { root }
    }

    /// Writes `src` at `rel` under the scratch root, creating parents.
    fn file(&self, rel: &str, src: &str) -> &Scratch {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).expect("create parents");
        fs::write(&path, src).expect("write fixture file");
        self
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn sim-lint")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("sim-lint terminated by signal")
}

const CLEAN_LIB: &str =
    "pub fn next_ready(now: u64, latency: u64) -> u64 { now.saturating_add(latency) }\n";

const DIRTY_LIB: &str = "pub fn next_ready(cycle: u64, latency: u64) -> u64 { cycle + latency }\n";

#[test]
fn clean_workspace_exits_zero() {
    let s = Scratch::new("clean");
    s.file("crates/dram-sim/src/lib.rs", CLEAN_LIB);
    let out = run(&["--workspace", "--root", s.path().to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 0, "stderr: {stderr}");
    assert!(stderr.contains("workspace clean"), "stderr: {stderr}");
}

#[test]
fn violations_exit_one_with_diagnostics_on_stdout() {
    let s = Scratch::new("dirty");
    s.file("crates/dram-sim/src/lib.rs", DIRTY_LIB);
    let out = run(&["--workspace", "--root", s.path().to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1, "stdout: {stdout}");
    assert!(stdout.contains("cycle-arith"), "stdout: {stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("violation(s)"),
        "violation count goes to stderr"
    );
}

#[test]
fn unreadable_workspace_exits_two_not_one() {
    // An empty root has nothing to lint: that is a broken lint run, never a
    // green one, and must be distinguishable from "violations found".
    let s = Scratch::new("empty");
    let out = run(&["--workspace", "--root", s.path().to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 2, "stderr: {stderr}");
    assert!(stderr.contains("no Rust sources"), "stderr: {stderr}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(exit_code(&run(&["--workspace", "--frobnicate"])), 2);
    assert_eq!(
        exit_code(&run(&[])),
        2,
        "missing --workspace is a usage error"
    );
    assert_eq!(exit_code(&run(&["--workspace", "--root"])), 2);
    assert_eq!(exit_code(&run(&["--workspace", "--sarif"])), 2);
}

#[test]
fn json_report_carries_schema_version() {
    let s = Scratch::new("json");
    s.file("crates/dram-sim/src/lib.rs", DIRTY_LIB);
    let out = run(&[
        "--workspace",
        "--json",
        "--root",
        s.path().to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 1);
    assert!(stdout.contains("\"schema_version\":1"), "stdout: {stdout}");
    assert!(stdout.contains("\"diagnostics\":["), "stdout: {stdout}");
    assert!(stdout.contains("cycle-arith"), "stdout: {stdout}");
}

#[test]
fn sarif_export_writes_a_2_1_0_log() {
    let s = Scratch::new("sarif");
    s.file("crates/dram-sim/src/lib.rs", DIRTY_LIB);
    let sarif_path = s.path().join("lint.sarif");
    let out = run(&[
        "--workspace",
        "--sarif",
        sarif_path.to_str().unwrap(),
        "--root",
        s.path().to_str().unwrap(),
    ]);
    assert_eq!(
        exit_code(&out),
        1,
        "SARIF export must not mask the exit code"
    );
    let log = fs::read_to_string(&sarif_path).expect("SARIF file written");
    assert!(log.contains("\"version\": \"2.1.0\""), "{log}");
    assert!(log.contains("\"name\": \"sim-lint\""), "{log}");
    assert!(log.contains("cycle-arith"), "{log}");
    assert!(log.contains("crates/dram-sim/src/lib.rs"), "{log}");
}

#[test]
fn unwritable_sarif_path_exits_two() {
    let s = Scratch::new("sarif-bad");
    s.file("crates/dram-sim/src/lib.rs", CLEAN_LIB);
    let bad = s.path().join("no-such-dir/lint.sarif");
    let out = run(&[
        "--workspace",
        "--sarif",
        bad.to_str().unwrap(),
        "--root",
        s.path().to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2);
}
