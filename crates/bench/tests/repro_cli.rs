//! `repro` treats its command line as hostile input: a flag with a
//! missing or unparsable value, an unknown flag of a service subcommand,
//! an unreadable or malformed fuzz script and an unknown experiment name
//! all print the usage and exit 2 (1 under `query`, where 2 means
//! "down") — never a panic (exit 101), never a silent exit 0.

use std::process::Command;

/// Runs the built `repro` binary; returns (exit code, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_command_lines_print_usage_and_exit_2() {
    let garbage = std::env::temp_dir().join(format!("repro-cli-{}.script", std::process::id()));
    std::fs::write(&garbage, "not a kepler-fuzz-script\n").expect("write scratch script");
    let garbage_path = garbage.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 15] = [
        &["--seed"],
        &["--seed", "many"],
        &["--fuzz-seed"],
        &["--fuzz-seed", "-1"],
        &["--fuzz-script"],
        &["--fuzz-script", "/nonexistent/kepler.script"],
        &["--fuzz-script", garbage_path],
        &["serve", "--seed"],
        &["serve", "--store"],
        &["serve", "--frobnicate"],
        &["stats", "--dump"],
        &["stats", "--store"],
        // The retired benchmark flag is an unknown experiment now.
        &["--bench"],
        &["fig99"],
        &["--compact", "fig8b", "fig99"],
    ];
    for args in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?} exited {code:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?} printed no usage: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    let _ = std::fs::remove_file(&garbage);
}

/// `query` reserves exit 2 for "down", so its bad command lines exit 1
/// like its other errors — with the reason and the usage on stderr.
#[test]
fn query_bad_command_line_exits_1_with_usage() {
    for args in [&["query", "--store"][..], &["query", "--frobnicate", "facility:5"], &["query"]] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(1), "{args:?} exited {code:?}: {stderr}");
        assert!(stderr.contains("repro: query:"), "{args:?} gave no reason: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?} printed no usage: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
}
