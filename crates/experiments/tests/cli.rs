//! Argument handling of the `experiments` binary: bad input is a usage
//! error (exit code 2 with the usage text), never a panic.

use std::process::Command;

#[test]
fn zero_seeds_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--seeds", "0", "--fast", "fig11"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
