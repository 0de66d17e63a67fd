//! The `figures` binary exits with status 2, the message and the usage
//! line on a bad command line, before it simulates or writes anything.
//! `tests/figures.rs` at the workspace root covers each rejected argument.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_the_message_and_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("20k")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid instruction count \"20k\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage: figures"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing written");
}
