//! The bench binaries refuse arguments they do not take, so a mistyped or
//! removed flag (`irlint --json`, `fig2 --bogus`) fails with a usage line
//! and exit code 2 instead of running as if it were absent. Every refusal
//! happens before any work starts.

use std::process::Command;

/// Runs `exe` with `args` and checks that it refused them: exit code 2,
/// nothing on stdout, and a usage line for `bin` on stderr.
fn assert_refused(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("the binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: exit code");
    assert!(out.stdout.is_empty(), "{bin} {args:?}: printed a report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with(&format!("usage: {bin} ")), "{bin} {args:?}: stderr {stderr:?}");
}

#[test]
fn irlint_rejects_arguments_with_a_usage_line() {
    for arg in ["--json", "--bogus", "extra"] {
        assert_refused("irlint", env!("CARGO_BIN_EXE_irlint"), &[arg]);
    }
}

#[test]
fn codec_speed_rejects_arguments_with_a_usage_line() {
    for arg in ["--bogus", "extra"] {
        assert_refused("codec_speed", env!("CARGO_BIN_EXE_codec_speed"), &[arg]);
    }
}

#[test]
fn figure_bins_reject_anything_but_one_frontier() {
    for (bin, exe) in [("fig2", env!("CARGO_BIN_EXE_fig2")), ("fig3", env!("CARGO_BIN_EXE_fig3"))] {
        for args in [&["--bogus"][..], &["--json"], &["bfs"], &["proximity", "extra"]] {
            assert_refused(bin, exe, args);
        }
    }
}

#[test]
fn coverage_matrix_rejects_anything_but_one_json_path() {
    let exe = env!("CARGO_BIN_EXE_coverage_matrix");
    for args in [&["--bogus"][..], &["out.txt"], &["--bogus", "out.json"], &["a.json", "b.json"]] {
        assert_refused("coverage_matrix", exe, args);
    }
}
