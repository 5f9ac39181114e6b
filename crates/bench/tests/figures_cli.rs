//! Command-line contract of the `figures` binary: a known figure prints
//! and exits 0; an unknown name or an extra argument is rejected with the
//! usage on stderr and exit status 2.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn known_figure_prints_and_succeeds() {
    let out = figures(&["table3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table III"), "stdout: {stdout}");
}

#[test]
fn unknown_figure_is_rejected_with_usage() {
    let out = figures(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may be printed on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown figure \"fig99\""),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: figures ["), "stderr: {stderr}");
}

#[test]
fn extra_argument_is_rejected_with_usage() {
    let out = figures(&["fig1", "fig8"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may be printed on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: figures ["), "stderr: {stderr}");
}
