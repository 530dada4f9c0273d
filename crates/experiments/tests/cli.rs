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

/// A scratch directory of this test binary, emptied first.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlion-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_names_every_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for opt in ["--seeds N", "--fast", "--out DIR", "--md FILE"] {
        assert!(stderr.contains(opt), "usage lacks {opt}: {stderr}");
    }
}

#[test]
fn a_repeated_id_runs_once_and_verdicts_render_last() {
    let dir = scratch("repeat");
    let md = dir.join("REPORT.md");
    std::fs::write(
        &md,
        "# head\n<!-- RESULTS START -->\nstale\n<!-- RESULTS END -->\ntail\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--fast", "verdicts", "table1", "table2", "table1", "--out"])
        .arg(&dir)
        .arg("--md")
        .arg(&md)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== table1 ").count(), 1, "{stdout}");
    let report = std::fs::read_to_string(&md).unwrap();
    assert_eq!(report.matches("== table1 ").count(), 1, "{report}");
    assert!(!report.contains("stale"));
    assert!(report.starts_with("# head\n") && report.ends_with("<!-- RESULTS END -->\ntail\n"));
    let at = |s: &str| report.find(s).unwrap();
    assert!(at("== table1 ") < at("== table2 ") && at("== table2 ") < at("== verdicts "));
    assert!(report.contains("`experiments --seeds 1 --fast`"));
}

#[test]
fn a_report_without_markers_is_an_error_not_a_panic() {
    let dir = scratch("nomarkers");
    let md = dir.join("REPORT.md");
    std::fs::write(&md, "# no markers here\n").unwrap();
    for file in [md.clone(), dir.join("missing.md")] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--fast", "table1", "--out"])
            .arg(&dir)
            .arg("--md")
            .arg(&file)
            .output()
            .expect("spawn experiments");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("experiments: "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        // It fails before running anything.
        assert!(out.stdout.is_empty());
    }
    assert_eq!(std::fs::read_to_string(&md).unwrap(), "# no markers here\n");
}
