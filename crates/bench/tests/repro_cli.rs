//! `repro` treats its command line as hostile input: a flag with a
//! missing or unparsable value, an unknown flag of a service subcommand,
//! an unreadable or malformed fuzz script (or a well-formed one staging
//! a facility its world lacks) and an unknown experiment name all print
//! the usage and exit 2 (1 under `query`, where 2 means "down") — never
//! a panic (exit 101), never a silent exit 0.

use kepler::netsim::fuzz::{FailureKind, ScenarioScript};
use std::path::PathBuf;
use std::process::Command;

/// Runs the built `repro` binary; returns (exit code, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Writes a scratch script; returns its path.
fn scratch_script(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("repro-cli-{}-{name}.script", std::process::id()));
    std::fs::write(&path, text).expect("write scratch script");
    path
}

/// `text` with the value of its `key = …` line replaced.
fn with_value(text: &str, key: &str, value: &str) -> String {
    let prefix = format!("{key} = ");
    let line = |l: &str| if l.starts_with(&prefix) { format!("{prefix}{value}") } else { l.into() };
    text.lines().map(line).collect::<Vec<_>>().join("\n")
}

#[test]
fn bad_command_lines_print_usage_and_exit_2() {
    let garbage = scratch_script("garbage", "not a kepler-fuzz-script\n");
    // Well-formed, but staging a facility its generated world lacks.
    let absent = scratch_script(
        "absent",
        &with_value(&ScenarioScript::generate(3).render(), "facility", "4000000"),
    );
    // A facility id past `u32`: an error, not a wrap to facility 6.
    let cascade = ScenarioScript::generate_kind(3, Some(FailureKind::Cascade)).render();
    let wrapped = scratch_script("wrapped", &with_value(&cascade, "facilities", "4294967302"));
    let paths = [&garbage, &absent, &wrapped].map(|p| p.to_str().expect("utf-8 temp path"));
    let cases: [&[&str]; 17] = [
        &["--seed"],
        &["--seed", "many"],
        &["--fuzz-seed"],
        &["--fuzz-seed", "-1"],
        &["--fuzz-script"],
        &["--fuzz-script", "/nonexistent/kepler.script"],
        &["--fuzz-script", paths[0]],
        &["--fuzz-script", paths[1]],
        &["--fused", "--fuzz-script", paths[2]],
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
    for path in [garbage, absent, wrapped] {
        let _ = std::fs::remove_file(path);
    }
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
