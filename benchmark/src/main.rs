//! The bytes-to-queryable-incident benchmark. See `README.md` beside
//! `Cargo.toml` for the command, the metrics and how to read the output.

mod drive;
mod json;
mod layers;
mod stats;
mod workload;

use drive::{drive_archive, machine_speed, out_dir, CpuClock, PassOutcome, Tracer};
use json::{result_line, Metric};
use stats::{median, summarize, Dist, Summary};
use std::path::Path;
use std::process::{Command, ExitCode};
use workload::{Built, Spec, SMOKE, WORKLOADS};

/// Set-ups per untraced run, the first before the warm-up pass and the rest
/// after the last one; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes of an untraced run.
const MIN_PASSES: usize = 15;
/// Fewest pooled commit stalls: a 99th percentile needs ten samples beyond it.
const MIN_STALLS: usize = 1_000;
/// Fewest untraced passes of a traced run (the ladder's last rung).
const MIN_TRACED_RUN_PASSES: usize = 5;

const USAGE: &str = "usage: kepler-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke]
  --workload  feed_dense | five_year | live_fused | five_year_readers (default: all four,
              one process each, untraced then traced)
  --seed      seed of the collector side (default: the workload's pinned seed)
  --seconds   timed region of a run, in seconds (default 10)
  --trace     1 adds the traced pass, the ladder and the layer replays, and prints the
              per-layer metrics instead of the end-to-end ones
  --smoke     compact five-year study, fan-out 2, one pass";

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: None, seconds: 10.0, trace: None, smoke: false };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3_600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kepler-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match (&args.workload, args.smoke) {
        (None, true) => SMOKE,
        (None, false) => return run_all(&args),
        (Some(name), _) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(spec) => *spec,
            None => {
                eprintln!("kepler-benchmark: no workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    run_one(spec, &args)
}

/// Runs the four workloads, one child process each, untraced then traced
/// unless `--trace` picks one. Waits for every child.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut failed = false;
    for spec in &WORKLOADS {
        for trace in args.trace.map_or(vec![false, true], |t| vec![t]) {
            let mut child = Command::new(&exe);
            child.args(["--workload", spec.name, "--trace", if trace { "1" } else { "0" }]);
            child.args(["--seconds", &args.seconds.to_string()]);
            if let Some(seed) = args.seed {
                child.args(["--seed", &seed.to_string()]);
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "kepler-benchmark: {} (trace {trace}) ended with {status}",
                        spec.name
                    );
                    failed = true;
                }
                Err(e) => {
                    eprintln!("kepler-benchmark: cannot start {}: {e}", spec.name);
                    failed = true;
                }
            }
            println!();
        }
    }
    ExitCode::from(u8::from(failed))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Filesystem type of the mount `path` lives on, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (mount, fs) = (fields.nth(1)?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
}

/// `rustc --version`, or "unknown".
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out at the repository root, read from `.git` there
/// (a driver's checkout has none), or "unknown".
fn commit() -> String {
    let git = out_dir().join("../../.git");
    let read = |path: &str| std::fs::read_to_string(git.join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(reference).unwrap_or_default(),
        None => head,
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        hash => hash.chars().take(12).collect(),
    }
}

fn print_environment(built: &Built, seconds: f64, trace: bool, store_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let (rustc, commit) = (rustc_version(), commit());
    let spec = &built.spec;
    println!("workload {}: {}", spec.name, spec.why);
    println!(
        "environment: nproc {nproc}, {rustc}, commit {commit}, store {} ({}), seed {}, \
         --seconds {seconds}, trace {}, threads {}",
        store_dir.display(),
        filesystem_of(store_dir),
        built.seed,
        u8::from(trace),
        1 + usize::from(spec.reader),
    );
    let fp = built.fingerprint;
    let pin = match spec.pinned {
        Some(pin) if pin.fnv.is_some() && built.seed == spec.default_seed => "pinned",
        Some(_) => "records and bytes pinned, hash not",
        None => "unpinned",
    };
    println!(
        "fingerprint: {} records, {} bytes, {} collectors, fnv1a64 {:#018x} ({pin})",
        fp.records,
        fp.bytes,
        built.archives.len(),
        fp.fnv
    );
}

fn print_summary_row(name: &str, unit: &str, s: &Summary) {
    println!(
        "  {name:<22} {:>14.3} {unit:<10} q1 {:.3}  q3 {:.3}  spread {:.1} %  n {}",
        s.median,
        s.q1,
        s.q3,
        s.spread() * 100.0,
        s.n
    );
}

/// Builds the workload; returns it with the on-CPU seconds that took, at
/// reference speed.
fn timed_setup(spec: Spec, seed: u64) -> std::io::Result<(Built, f64)> {
    let clock = CpuClock::for_this_thread()?;
    let (speed_before, start) = (machine_speed(&clock), clock.now_ns());
    let built = Built::new(spec, seed);
    let secs = clock.secs_since(start);
    Ok((built, secs * (speed_before + machine_speed(&clock)) / 2.0))
}

/// Untraced passes until `seconds` of replay are timed and `enough` says so.
fn timed_passes(
    built: &Built,
    store_dir: &Path,
    seconds: f64,
    stalls_us: &mut Vec<f64>,
    enough: impl Fn(usize, usize) -> bool,
) -> Vec<PassOutcome> {
    let mut passes: Vec<PassOutcome> = Vec::new();
    let mut timed = 0.0;
    while timed < seconds || !enough(passes.len(), stalls_us.len()) {
        let pass = drive_archive(built, store_dir, stalls_us, None);
        timed += pass.secs;
        let failed = pass.failure.is_some();
        passes.push(pass);
        if failed {
            break;
        }
    }
    passes
}

/// Operations attempted and failed over `passes`: a pass the oracle rejects
/// fails every record it offered — at least one, so that a pass which failed
/// before its first record still counts.
fn operations(passes: &[&PassOutcome]) -> (u64, u64) {
    let attempted = passes.iter().map(|p| p.records.max(1)).sum();
    let failed = passes.iter().filter(|p| p.failure.is_some()).map(|p| p.records.max(1)).sum();
    (attempted, failed)
}

/// The end-to-end metrics of an untraced run, as `BENCHMARK.json` lists them.
fn end_to_end_metrics(rate: f64, stalls: &Dist, read_ns: f64, rss: f64, setup: f64) -> Vec<Metric> {
    vec![
        Metric::new("replay_recs_per_s", "records/s", rate),
        Metric::new("commit_stall_p50_us", "us", stalls.p50),
        Metric::new("commit_stall_p99_us", "us", stalls.p99),
        Metric::new("query_read_ns", "ns/read", read_ns),
        Metric::new("peak_rss_mb", "MiB", rss),
        Metric::new("setup_s", "s", setup),
    ]
}

/// Summary over `passes` of what `f` reads off each.
fn over_passes(passes: &[PassOutcome], f: fn(&PassOutcome) -> f64) -> Summary {
    summarize(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Prints what the timed passes measured, in both modes. Returns the
/// summaries of `replay_recs_per_s` and `query_read_ns`.
fn print_passes(passes: &[PassOutcome], stalls: &Dist) -> (Summary, Summary) {
    let rate = over_passes(passes, |p| p.records as f64 / (p.cpu_secs * p.speed));
    let reads = over_passes(passes, |p| p.query_ns_per_read);
    let last = passes.last().expect("at least one timed pass");
    println!(
        "passes: 1 warm-up + {} timed, {:.2} s of replay; per pass {} commits, {} transitions, \
         {} alerts",
        passes.len(),
        passes.iter().map(|p| p.secs).sum::<f64>(),
        last.commits,
        last.transitions,
        last.alerts_delivered
    );
    println!("end to end (on-CPU time at reference speed; median over passes, stalls pooled):");
    print_summary_row("replay_recs_per_s", "records/s", &rate);
    let thin = if stalls.p99_supported() { "" } else { "  (fewer than 10 samples beyond p99)" };
    println!("  {:<22} {:>14.3} {:<10} n {}", "commit_stall_p50_us", stalls.p50, "us", stalls.n);
    println!(
        "  {:<22} {:>14.3} {:<10} n {}{thin}",
        "commit_stall_p99_us", stalls.p99, "us", stalls.n
    );
    print_summary_row("query_read_ns", "ns/read", &reads);
    (rate, reads)
}

/// Prints what this machine's wall clock made of the same passes: the rate
/// with the disk in it, the share of a pass the driving thread was off the
/// CPU (blocked in `fsync` and `rename`, or preempted), and the machine
/// speed the end-to-end values are scaled by.
fn print_wall(passes: &[PassOutcome]) {
    println!("the same passes on this machine's wall clock:");
    let wall_rate = over_passes(passes, |p| p.records as f64 / p.secs);
    print_summary_row("wall records/s", "records/s", &wall_rate);
    print_summary_row(
        "off-CPU share",
        "ratio",
        &over_passes(passes, |p| 1.0 - p.cpu_secs / p.secs),
    );
    print_summary_row("machine speed", "x", &over_passes(passes, |p| p.speed));
    if let Some(rate) = passes.last().and_then(|p| p.reader_reads_per_s) {
        println!("  {:<22} {rate:>14.0} reads/s beside ingest (last pass)", "reader thread");
    }
}

/// The traced pass, the ladder and the replays of a `--trace 1` run.
/// Returns the traced pass, the per-layer metrics and a failure, if any.
fn traced_run(
    built: &Built,
    store_dir: &Path,
    passes: &[PassOutcome],
) -> (PassOutcome, Vec<Metric>, Option<String>) {
    let mut tracer = Tracer::new(built.fingerprint.records);
    let traced = drive_archive(built, store_dir, &mut Vec::new(), Some(&mut tracer));
    let path = out_dir().join(format!("{}.trace.jsonl", built.spec.name));
    let written = layers::write_trace(&path, &tracer.spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()));
    println!(
        "trace: {} spans in {}; totals of the traced pass:",
        tracer.spans.len(),
        path.display()
    );
    for (name, total) in layers::span_totals(&tracer.spans) {
        println!("  {name:<22} {total:>10.4} s");
    }
    drop(tracer);
    let untraced_secs = median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>());
    let last = passes.last().expect("at least one timed pass");
    let ledger = layers::measure(built, untraced_secs, traced.secs, last);
    println!("ledger (self seconds per pass; untraced pass {untraced_secs:.4} s):");
    for (layer, self_secs) in &ledger.rows {
        println!("  {layer:<50} {self_secs:>9.4} s {:>6.1} %", self_secs / untraced_secs * 100.0);
    }
    println!("per layer:");
    for m in &ledger.metrics {
        println!("  {:<40} {:>16.3} {}", m.name, m.value, m.unit);
    }
    (traced, ledger.metrics, written.err().or(ledger.failure))
}

fn run_one(spec: Spec, args: &Args) -> ExitCode {
    let trace = args.trace.unwrap_or(false);
    let seed = args.seed.unwrap_or(spec.default_seed);
    let store_dir = out_dir().join(format!("store-{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("kepler-benchmark: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }

    // Set-up, before any clock of a pass starts.
    let (built, first_setup) = match timed_setup(spec, seed) {
        Ok(setup) => setup,
        Err(e) => {
            eprintln!("kepler-benchmark: no on-CPU clock: {e}");
            return ExitCode::from(2);
        }
    };
    let mut setups = vec![first_setup];
    print_environment(&built, args.seconds, trace, &store_dir);
    let evaluation = built.evaluation();
    println!(
        "reference: {} reports over {} closed bins; TP {} FP {} FN {} against ground truth{}",
        built.reference.reports.len(),
        built.reference.bins_closed,
        evaluation.true_positives,
        evaluation.false_positives,
        evaluation.false_negatives,
        if spec.pinned_eval.is_some() && seed == spec.default_seed { " (pinned)" } else { "" },
    );
    if let Err(drift) = built.drift().and_then(|()| built.quality_drift(&evaluation)) {
        eprintln!("kepler-benchmark: {drift}");
        return ExitCode::from(2);
    }

    // One discarded warm-up pass, then the timed ones.
    let mut stalls_us = Vec::new();
    let warm_up = drive_archive(&built, &store_dir, &mut stalls_us, None);
    stalls_us.clear();
    // What one set-up and one replay need. Sampled here because later passes
    // and set-ups add only allocator slack, which differs from run to run.
    let rss = peak_rss_mb();
    let passes = if warm_up.failure.is_some() {
        Vec::new()
    } else if trace {
        let enough = |passes, _| passes >= MIN_TRACED_RUN_PASSES;
        timed_passes(&built, &store_dir, args.seconds / 4.0, &mut stalls_us, enough)
    } else if args.smoke {
        timed_passes(&built, &store_dir, 0.0, &mut stalls_us, |passes, _| passes >= 1)
    } else {
        let enough = |passes, stalls| passes >= MIN_PASSES && stalls >= MIN_STALLS;
        timed_passes(&built, &store_dir, args.seconds, &mut stalls_us, enough)
    };
    let mut checked: Vec<&PassOutcome> = std::iter::once(&warm_up).chain(&passes).collect();

    let mut traced = None;
    let mut metrics = Vec::new();
    let mut failure = None;
    if checked.iter().all(|p| p.failure.is_none()) {
        let stalls = Dist::of(&stalls_us);
        let (rate, reads) = print_passes(&passes, &stalls);
        if trace {
            print_wall(&passes);
            let (pass, layer_metrics, failed) = traced_run(&built, &store_dir, &passes);
            (traced, metrics, failure) = (Some(pass), layer_metrics, failed);
        } else {
            let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
            for _ in 1..repeats {
                setups.extend(timed_setup(spec, seed).map(|(_, secs)| secs));
            }
            let setup = summarize(&setups);
            print_summary_row("setup_s", "s", &setup);
            println!("  {:<22} {rss:>14.3} MiB", "peak_rss_mb");
            print_wall(&passes);
            metrics = end_to_end_metrics(rate.median, &stalls, reads.median, rss, setup.median);
        }
    }
    let _ = drive::remove_dir(&store_dir);

    checked.extend(&traced);
    let (attempted, failed) = operations(&checked);
    for why in checked.iter().filter_map(|p| p.failure.as_deref()).chain(failure.as_deref()) {
        eprintln!("kepler-benchmark: {}: {why}", spec.name);
    }
    let correct = failed == 0 && failure.is_none();
    println!("operations: {failed} failed of {attempted} attempted");
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::from(u8::from(!correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` promises a driver these workloads, names and units.
    #[test]
    fn benchmark_json_lists_what_a_run_prints() {
        let contract = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            let entry = format!("\"name\": \"{}\",\n      \"why\": \"{}\"", w.name, w.why);
            assert!(contract.contains(&entry), "{} is not listed with its why", w.name);
        }
        let built = Built::new(SMOKE, 1);
        let dir = out_dir().join(format!("test-contract-{}", std::process::id()));
        let pass = drive_archive(&built, &dir, &mut Vec::new(), None);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(pass.failure, None);
        let mut printed = end_to_end_metrics(1.0, &Dist::of(&[1.0]), 1.0, 1.0, 1.0);
        printed.extend(layers::measure(&built, pass.secs, pass.secs, &pass).metrics);
        for m in &printed {
            let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
            assert!(contract.contains(&entry), "{} [{}] is not listed", m.name, m.unit);
        }
        let listed = contract.matches("\"unit\": ").count();
        assert_eq!(listed, printed.len(), "BENCHMARK.json lists a metric no run prints");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let args =
            parse(&["--workload", "five_year", "--seed", "9", "--seconds", "2", "--trace", "1"])
                .expect("the driver's arguments parse");
        assert_eq!(
            (args.workload.as_deref(), args.seed, args.trace),
            (Some("five_year"), Some(9), Some(true))
        );
        assert_eq!(args.seconds, 2.0);
        for bad in
            [&["--seed"][..], &["--seed", "x"], &["--trace", "2"], &["--seconds", "0"], &["--fast"]]
        {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
