//! Bad flag values are usage errors: the `experiments` binary names
//! the flag on stderr and exits with code 2 before running anything,
//! instead of panicking mid-run (exit code 101).

use std::process::Command;

/// Runs `experiments fig1 <args>` and asserts a usage error naming
/// `flag`; returns stderr.
fn rejects(args: &[&str], flag: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("fig1")
        .args(args)
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} ran a figure");
    stderr
}

#[test]
fn zero_worlds_is_a_usage_error() {
    let stderr = rejects(&["--worlds", "0"], "--worlds");
    assert!(stderr.contains("1..=1048576"), "{stderr}");
}

#[test]
fn worlds_past_the_wire_cap_is_a_usage_error() {
    let stderr = rejects(&["--worlds", "1048577"], "--worlds");
    assert!(stderr.contains("got 1048577"), "{stderr}");
}

#[test]
fn retired_backend_flag_is_a_usage_error() {
    let stderr = rejects(&["--backend", "kdtree"], "--backend");
    assert!(stderr.contains("unknown argument: --backend"), "{stderr}");
}

#[test]
fn retired_kernel_flag_is_a_usage_error() {
    let stderr = rejects(&["--kernel", "avx512"], "--kernel");
    assert!(stderr.contains("unknown argument: --kernel"), "{stderr}");
}
