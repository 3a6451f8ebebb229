//! The bench binaries that take no options refuse any argument, so a
//! mistyped or removed flag (`irlint --json`) fails instead of running as
//! if it were absent.

use std::process::Command;

#[test]
fn irlint_rejects_arguments_with_a_usage_line() {
    for arg in ["--json", "--bogus", "extra"] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_irlint")).arg(arg).output().expect("irlint runs");
        assert_eq!(out.status.code(), Some(2), "irlint {arg}: exit code");
        assert!(out.stdout.is_empty(), "irlint {arg}: printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: irlint"), "irlint {arg}: stderr {stderr:?}");
    }
}
