//! Figure/table reproduction harness.
//!
//! One subcommand per artifact of the paper's evaluation:
//!
//! ```sh
//! cargo run --release -p kepler-bench --bin repro -- all
//! cargo run --release -p kepler-bench --bin repro -- fig1 fig8b
//! cargo run --release -p kepler-bench --bin repro -- --compact val
//! ```
//!
//! Absolute numbers depend on the synthetic world's scale; the *shapes*
//! (who wins, by what factor, where crossovers fall) are the target, as
//! the printed `(paper: …)` lines state; ROADMAP item 5 adds the checked ledger.

use kepler::core::events::{OutageReport, OutageScope};
use kepler::core::metrics::{evaluate, Evaluation, TruthOutage};
use kepler::core::system::ClassCounts;
use kepler::core::KeplerConfig;
use kepler::docmine::LocationTag;
use kepler::fuzz_harness::check;
use kepler::glue::{detector_for, truth_outages_observed, FusionOptions, Stack};
use kepler::netsim::dataplane::{default_pairs, DataplaneSim};
use kepler::netsim::scenario::amsix::{AmsIxScenario, AmsIxStudy, OUTAGE_DURATION, OUTAGE_START};
use kepler::netsim::scenario::five_year::{build as build_five_year, FiveYearConfig, STUDY_START};
use kepler::netsim::scenario::london::{LondonScenario, LondonStudy};
use kepler::netsim::traffic::TrafficSim;
use kepler::netsim::world::{World, WorldConfig};
use kepler::topology::Continent;
use kepler_bench::{pct, quantile, sparkline};
use std::collections::BTreeMap;
use std::path::PathBuf;

struct Ctx {
    seed: u64,
    compact: bool,
}

struct FiveYearRun {
    scenario: kepler::netsim::scenario::Scenario,
    reports: Vec<OutageReport>,
    truth: Vec<TruthOutage>,
    eval: Evaluation,
    counts: ClassCounts,
}

#[derive(Default)]
struct Cache {
    five: Option<FiveYearRun>,
    amsix: Option<AmsIxStudy>,
    london: Option<LondonStudy>,
}

impl Cache {
    fn five(&mut self, ctx: &Ctx) -> &FiveYearRun {
        if self.five.is_none() {
            let cfg = if ctx.compact {
                FiveYearConfig::compact(ctx.seed)
            } else {
                FiveYearConfig::standard(ctx.seed)
            };
            eprintln!("[building five-year scenario...]");
            let scenario = build_five_year(cfg);
            eprintln!("[stream: {} records; running detector...]", scenario.output.records.len());
            let config = KeplerConfig::default();
            let mut detector = detector_for(&scenario, config.clone());
            for r in scenario.records() {
                detector.process_record(&r);
            }
            let truth = truth_outages_observed(&scenario, &config, &detector);
            let counts = detector.class_counts();
            let reports = detector.finish();
            let eval = evaluate(&reports, &truth, 1800);
            self.five = Some(FiveYearRun { scenario, reports, truth, eval, counts });
        }
        self.five.as_ref().expect("just built")
    }

    fn amsix(&mut self, ctx: &Ctx) -> &AmsIxStudy {
        if self.amsix.is_none() {
            eprintln!("[building AMS-IX scenario...]");
            let cfg = if ctx.compact {
                WorldConfig::tiny(ctx.seed)
            } else {
                WorldConfig::small(ctx.seed)
            };
            self.amsix = Some(AmsIxScenario::new(ctx.seed).with_config(cfg).build());
        }
        self.amsix.as_ref().expect("just built")
    }

    fn london(&mut self, _ctx: &Ctx) -> &LondonStudy {
        if self.london.is_none() {
            eprintln!("[building London scenario...]");
            self.london = Some(LondonScenario::new(3).with_config(WorldConfig::small(3)).build());
        }
        self.london.as_ref().expect("just built")
    }
}

/// Replays one fuzzer world — from its seed or from a serialized
/// `target/fuzz-artifacts/seed-<N>-<kind>.script` — prints the script, the
/// ground truth, every detector report and every invariant violation,
/// and exits non-zero when any invariant failed. This is the
/// one-command local reproduction for a CI scenario-fuzz failure.
fn fuzz_replay(verdict: kepler::fuzz_harness::FuzzVerdict) -> ! {
    println!("================ fuzz world: seed {} ================", verdict.script.seed);
    println!("{}", verdict.script.render());
    println!("ground truth ({} outage(s)):", verdict.truth.len());
    for t in &verdict.truth {
        println!(
            "  {:?} start={} duration={}s aliases={:?}",
            t.scope, t.start, t.duration, t.aliases
        );
    }
    println!("detector reports ({}):", verdict.reports.len());
    for r in &verdict.reports {
        let sources: Vec<String> = r
            .sources
            .iter()
            .map(|s| format!("{}@{}({:.2})", s.kind, s.first_bin, s.confidence))
            .collect();
        println!(
            "  {:?} start={} end={:?} state={:?} oscillations={} validation={:?} dataplane={:?} sources=[{}]",
            r.scope,
            r.start,
            r.end,
            r.state,
            r.oscillations,
            r.validation,
            r.dataplane_confirmed,
            sources.join(", ")
        );
    }
    println!(
        "signal counters: forecast={} delay={} fused_opens={} corroborations={} suppressed={}",
        verdict.counts.forecast_signals,
        verdict.counts.delay_signals,
        verdict.counts.fused_opens,
        verdict.counts.fused_corroborations,
        verdict.counts.aux_suppressed
    );
    println!(
        "settlement counters: evidence_reused={} probe_confirmed={} probe_refuted={} \
         probe_inconclusive={} degraded_passive={} deferred_revalidated={} dataplane_rejected={}",
        verdict.counts.evidence_reused,
        verdict.counts.probe_confirmed,
        verdict.counts.probe_refuted,
        verdict.counts.probe_inconclusive,
        verdict.counts.degraded_passive,
        verdict.counts.deferred_revalidated,
        verdict.counts.dataplane_rejected
    );
    println!("detection power:");
    print!("{}", kepler::fuzz_harness::PowerReport::from_verdicts([&verdict]).render());
    if verdict.ok() {
        println!("invariants: OK");
        std::process::exit(0);
    }
    println!("invariant violations ({}):", verdict.violations.len());
    for v in &verdict.violations {
        println!("  {v}");
    }
    std::process::exit(1);
}

// ---------------------------------------------------------------------------
// Service subcommands: serve / query / stats over a kepler-serve store
// ---------------------------------------------------------------------------

/// Where `serve` writes and `query`/`stats` read when `--store` is absent.
const DEFAULT_STORE: &str = "target/kepler-serve";

/// Where `serve` leaves its run counters for `stats`, under the store.
const LAST_RUN: &str = "last-run.txt";

/// Runs the detector as a daemon over the AMS-IX case-study stream:
/// durable store under `--store`, alert fan-out to stderr and
/// `<store>/alerts.log`, final report summary. A second invocation over
/// the same store recovers and reports what the first one committed.
fn serve_cmd(args: &[String]) -> ! {
    use kepler::serve::{Channel, Daemon, DaemonConfig, FileSink, LogSink, TokenBucket};
    let mut store = PathBuf::from(DEFAULT_STORE);
    let mut seed = 7u64;
    let mut compact = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = flag_value(&mut it, "--seed"),
            "--compact" => compact = true,
            "--store" => store = flag_value(&mut it, "--store"),
            other => usage_error(&format!("serve: unknown argument {other}")),
        }
    }
    eprintln!("[serve: building AMS-IX scenario (seed {seed})...]");
    let cfg = if compact { WorldConfig::tiny(seed) } else { WorldConfig::small(seed) };
    let study = AmsIxScenario::new(seed).with_config(cfg).build();
    let detector = detector_for(&study.scenario, KeplerConfig::default());
    let config = DaemonConfig::new(store.clone());
    let mut daemon = match Daemon::new(detector, &config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: cannot open store {}: {e}", store.display());
            std::process::exit(1);
        }
    };
    let rec = daemon.recovery().clone();
    if rec.had_snapshot || rec.frames_applied > 0 {
        eprintln!(
            "[serve: recovered snapshot_seq={} +{} WAL frame(s), {} damaged tail byte(s)]",
            rec.snapshot_seq, rec.frames_applied, rec.dropped_bytes
        );
    }
    daemon.add_channel(Channel::new("log", Box::new(LogSink), TokenBucket::new(16, 60)));
    daemon.add_channel(Channel::new(
        "file",
        Box::new(FileSink::new(store.join("alerts.log"))),
        TokenBucket::new(64, 1),
    ));
    let records = study.scenario.records();
    eprintln!("[serve: ingesting {} records...]", records.len());
    if let Err(e) = daemon.run_stream(records) {
        eprintln!("serve: ingest failed: {e}");
        std::process::exit(1);
    }
    match daemon.finish() {
        Ok((reports, summary)) => {
            let run = format!(
                "{} events, {} commits ({} idle), {} transitions, {} compaction(s) ({} deferred over an empty WAL)",
                summary.events,
                summary.commits,
                summary.idle_commits,
                summary.transitions,
                summary.compactions,
                summary.compactions_deferred
            );
            println!("serve: {run}; {} finalized incident(s)", reports.len());
            // The counters live in the daemon, not the store: left beside
            // it for `repro stats`.
            if let Err(e) = std::fs::write(store.join(LAST_RUN), format!("{run}\n")) {
                eprintln!("serve: cannot write {LAST_RUN}: {e}");
            }
            for r in &reports {
                println!("  {r}");
            }
            println!("store: {}", store.display());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve: finish failed: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_scope(spec: &str) -> Option<OutageScope> {
    use kepler::topology::{CityId, FacilityId, IxpId};
    if let Ok(n) = spec.parse::<u32>() {
        return Some(OutageScope::Facility(FacilityId(n)));
    }
    let (kind, id) = spec.split_once(':')?;
    let id: u32 = id.parse().ok()?;
    match kind {
        "facility" | "fac" => Some(OutageScope::Facility(FacilityId(id))),
        "ixp" => Some(OutageScope::Ixp(IxpId(id))),
        "city" => Some(OutageScope::City(CityId(id))),
        _ => None,
    }
}

/// Reads one scope's status from a serve store. Scripting exit codes:
/// 0 = up (no live incident), 2 = down (open), 3 = recovering, 1 = error.
fn query_cmd(args: &[String]) -> ! {
    use kepler::core::events::IncidentState;
    use kepler::serve::{IncidentStore, StatusView};
    // Exit 2 means "down" here, so a bad command line exits 1 like every
    // other query error.
    fn bad_args(what: &str) -> ! {
        eprintln!("repro: query: {what}\n{USAGE}");
        std::process::exit(1);
    }
    let mut store = PathBuf::from(DEFAULT_STORE);
    let mut spec: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => match it.next() {
                Some(dir) => store = PathBuf::from(dir),
                None => bad_args("--store needs a value"),
            },
            other if other.starts_with("--") => bad_args(&format!("unknown argument {other}")),
            other => spec = spec.or(Some(other)),
        }
    }
    let Some(spec) = spec else {
        bad_args("missing scope (facility:N | ixp:N | city:N | N)");
    };
    let Some(scope) = parse_scope(spec) else {
        bad_args(&format!("cannot parse scope {spec:?}"));
    };
    let (state, last_bin, _) = match IncidentStore::recover_state(&store) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("query: cannot read store {}: {e}", store.display());
            std::process::exit(1);
        }
    };
    let view = StatusView::from_state(&state, last_bin, 0);
    match view.status(scope) {
        None => {
            println!("{scope}: up (no incident on record, as of bin {last_bin})");
            std::process::exit(0);
        }
        Some(s) => {
            let since = match s.end {
                Some(end) => format!("{} .. {}", s.started, end),
                None => format!("since {}", s.started),
            };
            println!(
                "{scope}: {} ({since}; near={} far={} oscillations={} validation={}; as of bin {last_bin})",
                s.state, s.affected_near, s.affected_far, s.oscillations, s.validation
            );
            match s.state {
                IncidentState::Open => std::process::exit(2),
                IncidentState::Recovering => std::process::exit(3),
                IncidentState::Closed => std::process::exit(0),
            }
        }
    }
}

/// Summarizes a serve store; `--dump PATH` writes the recovered state as
/// a standalone snapshot file (same format as `snapshot.bin`).
fn stats_cmd(args: &[String]) -> ! {
    use kepler::core::events::IncidentState;
    use kepler::serve::{IncidentStore, StatusView};
    let mut store = PathBuf::from(DEFAULT_STORE);
    let mut dump: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store = flag_value(&mut it, "--store"),
            "--dump" => dump = Some(flag_value(&mut it, "--dump")),
            other => usage_error(&format!("stats: unknown argument {other}")),
        }
    }
    let (state, last_bin, rec) = match IncidentStore::recover_state(&store) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stats: cannot read store {}: {e}", store.display());
            std::process::exit(1);
        }
    };
    let view = StatusView::from_state(&state, last_bin, rec.snapshot_seq);
    let count = |want: IncidentState| view.all().iter().filter(|s| s.state == want).count();
    println!("store: {}", store.display());
    println!(
        "recovery: snapshot={} (seq {}), {} WAL frame(s) applied, {} skipped, {} damaged tail byte(s)",
        rec.had_snapshot, rec.snapshot_seq, rec.frames_applied, rec.frames_skipped, rec.dropped_bytes
    );
    if let Ok(run) = std::fs::read_to_string(store.join(LAST_RUN)) {
        println!("last run: {}", run.trim_end());
    }
    println!("as of bin {last_bin}: {} scope(s) on record", view.len());
    println!(
        "  open {}  recovering {}  closed {}",
        count(IncidentState::Open),
        count(IncidentState::Recovering),
        count(IncidentState::Closed)
    );
    for s in view.live() {
        println!("  live: {} {} since {}", s.scope, s.state, s.started);
    }
    if let Some(path) = dump {
        let bytes = kepler::serve::store::encode_snapshot(&state, rec.snapshot_seq, last_bin);
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("stats: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("dumped {} byte snapshot to {path}", bytes.len());
    }
    std::process::exit(0);
}

const USAGE: &str = "usage: repro [--seed N] [--compact] [--fused] [--fuzz-seed N] [--fuzz-script PATH] <exp>...\n       repro serve [--store DIR] [--seed N] [--compact]\n       repro query <facility:N|ixp:N|city:N|N> [--store DIR]\n       repro stats [--store DIR] [--dump PATH]\n  exps: fig1 fig3 fig5 fig7a fig7b fig7c tab1 fig8a fig8b fig8c fig9a fig9b fig9c fig10a fig10b fig10c fig10d val dict all\n  --fuzz-seed N: replay generated fuzz world N through the invariant checker (exit 1 on violation)\n  --fuzz-script PATH: replay a serialized fuzz artifact (target/fuzz-artifacts/seed-N-KIND.script)\n  --fused: replay fuzz worlds with the multi-signal detector (forecast + delay fusion)\n  serve: run the detector as a daemon over the AMS-IX scenario with a durable store and alert log\n  query: read a scope's status from a serve store (exit 0=up, 2=down, 3=recovering, 1=error)\n  stats: summarize a serve store; --dump writes a serialized snapshot";

/// One figure/table reproduction.
type Experiment = fn(&Ctx, &mut Cache);

/// Every experiment `repro <exp>...` accepts, in `all` order.
const EXPERIMENTS: [(&str, Experiment); 19] = [
    ("fig1", fig1),
    ("fig3", |ctx, _| fig3(ctx)),
    ("fig5", |ctx, _| fig5(ctx)),
    ("fig7a", |ctx, _| fig7a(ctx)),
    ("fig7b", |ctx, _| fig7b(ctx)),
    ("fig7c", fig7c),
    ("tab1", |ctx, _| tab1(ctx)),
    ("fig8a", |ctx, _| fig8a(ctx)),
    ("fig8b", fig8b),
    ("fig8c", fig8c),
    ("fig9a", fig9a),
    ("fig9b", fig9b),
    ("fig9c", fig9c),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig10c", fig10c),
    ("fig10d", fig10d),
    ("val", val),
    ("dict", |ctx, _| dict(ctx)),
];

/// A command line the user got wrong: say what, print the usage, exit 2.
fn usage_error(what: &str) -> ! {
    eprintln!("repro: {what}\n{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, parsed; a missing or unparsable one is a
/// usage error.
fn flag_value<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a valid value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Service subcommands take their own flags; dispatch before the
    // experiment-flag loop.
    match args.first().map(String::as_str) {
        Some("serve") => serve_cmd(&args[1..]),
        Some("query") => query_cmd(&args[1..]),
        Some("stats") => stats_cmd(&args[1..]),
        _ => {}
    }
    let mut ctx = Ctx { seed: 31, compact: false };
    let mut wanted: Vec<String> = Vec::new();
    let mut fused = false;
    let mut fuzz_seed: Option<u64> = None;
    let mut fuzz_script: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => ctx.seed = flag_value(&mut it, "--seed"),
            "--compact" => ctx.compact = true,
            "--fused" => fused = true,
            "--fuzz-seed" => fuzz_seed = Some(flag_value(&mut it, "--fuzz-seed")),
            "--fuzz-script" => fuzz_script = Some(flag_value(&mut it, "--fuzz-script")),
            other => wanted.push(other.to_string()),
        }
    }
    let stack = if fused { Stack::Fused(FusionOptions::default()) } else { Stack::Validated };
    if let Some(seed) = fuzz_seed {
        fuzz_replay(check(&kepler::netsim::fuzz::generated(seed, None), &stack));
    }
    if let Some(path) = fuzz_script {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
        let script = kepler::netsim::fuzz::ScenarioScript::parse(&text)
            .unwrap_or_else(|e| usage_error(&format!("cannot parse {path}: {e}")));
        let fw =
            script.build().unwrap_or_else(|e| usage_error(&format!("cannot build {path}: {e}")));
        fuzz_replay(check(&fw, &stack));
    }
    if wanted.is_empty() {
        usage_error("no experiment named");
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect();
    }
    // Resolve every name before running any: a typo must not cost the
    // minutes the experiments ahead of it take.
    let find = |w: &String| EXPERIMENTS.iter().find(|(name, _)| name == w);
    let plan: Vec<_> = wanted
        .iter()
        .map(|w| find(w).unwrap_or_else(|| usage_error(&format!("unknown experiment: {w}"))))
        .collect();
    let mut cache = Cache::default();
    for (name, run) in plan {
        println!("\n================ {name} ================");
        run(&ctx, &mut cache);
    }
}

fn world_for(ctx: &Ctx) -> World {
    if ctx.compact {
        World::generate(WorldConfig::small(ctx.seed))
    } else {
        World::generate(WorldConfig::paper_scale(ctx.seed))
    }
}

fn mined_dict_for(
    world: &World,
    seed: u64,
) -> (kepler::docmine::CommunityDictionary, kepler::topology::ColocationMap) {
    let corpus = kepler::docmine::corpus::render_corpus(&world.schemes, seed ^ 0xD1C7);
    let colo = world.detector_colomap();
    let miner = kepler::docmine::dictionary::DictionaryMiner::new(&colo, &world.gazetteer);
    let (mut dict, _) = miner.mine(&corpus);
    dict.add_route_servers_from(&colo);
    (dict, colo)
}

// ---------------------------------------------------------------------------
// Figure 1 — detected vs reported outages per semester
// ---------------------------------------------------------------------------
fn fig1(ctx: &Ctx, cache: &mut Cache) {
    let run = cache.five(ctx);
    let reported = run.scenario.reported();
    let semester = |t: u64| (t.saturating_sub(STUDY_START)) / (182 * 86_400 + 43_200);
    let mut bins: BTreeMap<u64, (usize, usize, usize)> = BTreeMap::new();
    for r in &run.reports {
        let e = bins.entry(semester(r.start)).or_default();
        match r.scope {
            OutageScope::Ixp(_) => e.1 += 1,
            _ => e.0 += 1,
        }
    }
    for rep in &reported {
        if let Some(gt) = run.scenario.output.ground_truth.iter().find(|g| g.id == rep.event_id) {
            bins.entry(semester(gt.start)).or_default().2 += 1;
        }
    }
    println!("semester | facilities | IXPs | reported   (paper: peak in 2012H2 = Sandy)");
    for (s, (fac, ixp, rep)) in &bins {
        println!(
            "{:>8} | {:>10} | {:>4} | {:>8}",
            format!("{}H{}", 2012 + s / 2, 1 + s % 2),
            fac,
            ixp,
            rep
        );
    }
    let total = run.reports.len();
    println!(
        "\ntotal detected {} vs reported {} -> {:.1}x under-reporting (paper: 159 vs ~24%, 4x)",
        total,
        reported.len(),
        total as f64 / reported.len().max(1) as f64
    );
}

// ---------------------------------------------------------------------------
// Figure 3 — growth of community adoption 2011–2016
// ---------------------------------------------------------------------------
fn fig3(ctx: &Ctx) {
    let world = world_for(ctx);
    // Adoption-year model: each scheme-running AS starts using communities
    // in some year; the population roughly doubles over 2011–2016 (paper:
    // 2.5K -> 5.5K ASes, 17K -> 50K+ values).
    let cumulative = [0.42f64, 0.50, 0.60, 0.70, 0.84, 1.00];
    let hash01 = |asn: u32| -> f64 {
        let mut x = (asn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        (x % 10_000) as f64 / 10_000.0
    };
    println!("year | ASes using communities | unique community values");
    for (i, year) in (2011..=2016).enumerate() {
        let mut ases = 0usize;
        let mut values = 0usize;
        for s in &world.schemes {
            if hash01(s.asn.0) <= cumulative[i] {
                ases += 1;
                values += s.entries.len() + s.action_values.len();
            }
        }
        println!("{year} | {ases:>22} | {values:>23}");
    }
    println!("(paper: both roughly double over the window; values triple)");
}

// ---------------------------------------------------------------------------
// Figure 5 — geographic spread of trackable infrastructure
// ---------------------------------------------------------------------------
fn fig5(ctx: &Ctx) {
    let world = world_for(ctx);
    let (dict, colo) = mined_dict_for(&world, ctx.seed);
    let mut per: BTreeMap<Continent, (usize, usize, usize)> = BTreeMap::new();
    let mut total = 0usize;
    for e in dict.entries() {
        let cont = match e.tag {
            LocationTag::City(c) => world.gazetteer.by_index(c.0 as usize).map(|g| g.continent),
            LocationTag::Facility(f) => colo.facility(f).map(|f| f.continent),
            LocationTag::Ixp(x) => colo.ixp(x).map(|x| x.continent),
        };
        let Some(cont) = cont else { continue };
        let slot = per.entry(cont).or_default();
        match e.tag {
            LocationTag::City(_) => slot.0 += 1,
            LocationTag::Ixp(_) => slot.1 += 1,
            LocationTag::Facility(_) => slot.2 += 1,
        }
        total += 1;
    }
    println!("continent     | city tags | IXP tags | facility tags | share");
    for c in Continent::ALL {
        let (ct, ix, fa) = per.get(&c).copied().unwrap_or_default();
        println!(
            "{:<13} | {:>9} | {:>8} | {:>13} | {}",
            c.to_string(),
            ct,
            ix,
            fa,
            pct((ct + ix + fa) as f64 / total.max(1) as f64)
        );
    }
    println!("(paper: Europe 66%, North America 24.5%, Africa+South America ~2%)");
}

// ---------------------------------------------------------------------------
// Figure 7a — outage signals vs detection threshold
// ---------------------------------------------------------------------------
fn fig7a(ctx: &Ctx) {
    // The sweep always runs on the compact scenario: 6 full detector runs.
    let scenario = build_five_year(FiveYearConfig::compact(ctx.seed));
    println!("threshold | facility/IXP-level | AS-level | link-level");
    for t in [0.02, 0.05, 0.10, 0.15, 0.25, 0.50] {
        let config = KeplerConfig::default().with_t_fail(t);
        let mut detector = detector_for(&scenario, config);
        for r in scenario.records() {
            detector.process_record(&r);
        }
        let counts = detector.class_counts();
        let reports = detector.finish();
        println!(
            "{:>9} | {:>18} | {:>8} | {:>10}",
            pct(t),
            reports.len(),
            counts.as_level,
            counts.link_level
        );
    }
    println!("(paper: facility/IXP-level plateau from 2% to 15%, drop beyond; 10% chosen)");
}

// ---------------------------------------------------------------------------
// Figure 7b — trackable vs non-trackable facilities
// ---------------------------------------------------------------------------
fn fig7b(ctx: &Ctx) {
    let world = world_for(ctx);
    let (dict, _) = mined_dict_for(&world, ctx.seed);
    let mut small = 0usize; // <6 members at all
    let mut trackable = 0usize;
    let mut missed = 0usize; // >=6 members but <6 mapped
    let mut big_total = 0usize;
    let mut big_trackable = 0usize;
    let mut scatter: Vec<(usize, usize)> = Vec::new();
    for f in world.colo.facilities() {
        let members = world.colo.members_of_facility(f.id);
        let mapped = members.iter().filter(|a| a.is_16bit() && dict.covers_asn(a.0 as u16)).count();
        scatter.push((members.len(), mapped));
        if members.len() < 6 {
            small += 1;
        } else if mapped >= 6 {
            trackable += 1;
        } else {
            missed += 1;
        }
        if members.len() >= 20 {
            big_total += 1;
            if mapped >= 6 {
                big_trackable += 1;
            }
        }
    }
    println!("facilities total: {}", world.colo.facilities().len());
    println!("  <6 members (untrackable in principle): {small}");
    println!("  >=6 members, >=6 mapped (trackable):    {trackable}");
    println!(
        "  >=6 members, <6 mapped (missed):        {missed} ({})",
        pct(missed as f64 / (trackable + missed).max(1) as f64)
    );
    println!(
        "  >=20 members covered: {big_trackable}/{big_total} ({})",
        pct(big_trackable as f64 / big_total.max(1) as f64)
    );
    scatter.sort_by_key(|(m, _)| std::cmp::Reverse(*m));
    println!("\n  members -> mapped (top facilities):");
    for (m, mapped) in scatter.iter().take(10) {
        println!("  {m:>5} -> {mapped}");
    }
    println!("(paper: 1,209/1,742 facilities <6 members; 533 trackable in principle, 130 missed; 98% of >=20-member facilities covered)");
}

// ---------------------------------------------------------------------------
// Figure 7c — fraction of paths with location communities, per month
// ---------------------------------------------------------------------------
fn fig7c(ctx: &Ctx, cache: &mut Cache) {
    let run = cache.five(ctx);
    let dict = run.scenario.mined_dictionary();
    // Month buckets over the final year of the study.
    let year_start = STUDY_START + 4 * 365 * 86_400;
    let mut buckets: BTreeMap<u64, (usize, usize, usize, usize)> = BTreeMap::new();
    for r in run.scenario.output.records.iter() {
        if r.time < year_start {
            continue;
        }
        let month = (r.time - year_start) / (30 * 86_400);
        if month >= 12 {
            continue;
        }
        if let kepler::bgpstream::RecordPayload::Update(u) = &r.payload {
            let Some(attrs) = &u.attrs else { continue };
            let located = attrs.communities.iter().any(|c| dict.locate(*c).is_some());
            for p in &u.announced {
                let e = buckets.entry(month).or_default();
                if p.is_ipv4() {
                    e.0 += 1;
                    e.1 += usize::from(located);
                } else {
                    e.2 += 1;
                    e.3 += usize::from(located);
                }
            }
        }
    }
    println!("month | IPv4 located | IPv6 located");
    for (m, (v4, v4l, v6, v6l)) in &buckets {
        println!(
            "{:>5} | {:>12} | {:>12}",
            m + 1,
            pct(*v4l as f64 / (*v4).max(1) as f64),
            pct(*v6l as f64 / (*v6).max(1) as f64)
        );
    }
    println!("(paper: ~50% of IPv4 and ~30% of IPv6 updates carry location communities)");
}

// ---------------------------------------------------------------------------
// Table 1 — facility coverage per continent
// ---------------------------------------------------------------------------
fn tab1(ctx: &Ctx) {
    let world = world_for(ctx);
    let (dict, _) = mined_dict_for(&world, ctx.seed);
    println!("continent     |  all | >5 members | trackable");
    for cont in Continent::ALL {
        let mut all = 0usize;
        let mut big = 0usize;
        let mut trackable = 0usize;
        for f in world.colo.facilities().iter().filter(|f| f.continent == cont) {
            all += 1;
            let members = world.colo.members_of_facility(f.id);
            if members.len() > 5 {
                big += 1;
                let mapped =
                    members.iter().filter(|a| a.is_16bit() && dict.covers_asn(a.0 as u16)).count();
                if mapped >= 6 {
                    trackable += 1;
                }
            }
        }
        println!("{:<13} | {all:>4} | {big:>10} | {trackable:>9}", cont.to_string());
    }
    println!("(paper: Europe 878/305/243, N.America 529/132/105, Asia/Pac 233/70/46, S.America 76/19/11, Africa 26/6/4)");
}

// ---------------------------------------------------------------------------
// Figure 8a — ground truth vs communities-mapped interconnection facilities
// ---------------------------------------------------------------------------
fn fig8a(ctx: &Ctx) {
    let world = world_for(ctx);
    // The four best-connected scheme-running ASes play the ground-truth
    // providers (the paper got private data from 3 ISPs + 1 CDN).
    let mut candidates: Vec<usize> =
        (0..world.ases.len()).filter(|&i| world.ases[i].scheme.is_some()).collect();
    candidates.sort_by_key(|&i| std::cmp::Reverse(world.ases[i].neighbors.len()));
    let chosen = &candidates[..candidates.len().min(4)];
    let mut gt_hist: BTreeMap<usize, usize> = BTreeMap::new();
    let mut mapped_hist: BTreeMap<usize, usize> = BTreeMap::new();
    let mut links = 0usize;
    let mut fully_missed = 0usize;
    for &i in chosen {
        let node = &world.ases[i];
        let scheme = node.scheme.as_ref().expect("chosen have schemes");
        let tagged: std::collections::BTreeSet<_> = scheme
            .entries
            .iter()
            .filter_map(|e| match &e.target {
                kepler::docmine::SchemeTarget::Facility { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        // City/IXP-granularity entries still locate the link coarsely; a
        // link counts as mapped if any of its facilities is tagged or the
        // scheme has any entry at all covering the near side.
        for (_, adj_idx) in &node.neighbors {
            let adj = &world.adjacencies[adj_idx.0 as usize];
            let gt: std::collections::BTreeSet<_> = adj
                .instances
                .iter()
                .flat_map(|inst| [inst.a_side.facility, inst.b_side.facility])
                .flatten()
                .collect();
            if gt.is_empty() {
                continue;
            }
            links += 1;
            let mapped = gt.iter().filter(|f| tagged.contains(f)).count();
            *gt_hist.entry(gt.len()).or_default() += 1;
            *mapped_hist.entry(mapped).or_default() += 1;
            if mapped == 0 {
                fully_missed += 1;
            }
        }
    }
    println!("facilities per AS link | ground truth | communities-mapped");
    let max = gt_hist.keys().max().copied().unwrap_or(0);
    for k in 0..=max {
        println!(
            "{:>22} | {:>12} | {:>18}",
            k,
            gt_hist.get(&k).copied().unwrap_or(0),
            mapped_hist.get(&k).copied().unwrap_or(0)
        );
    }
    println!(
        "\nlinks: {links}; links with no facility-granular tag: {fully_missed} ({}) — these fall back to city/IXP tags",
        pct(fully_missed as f64 / links.max(1) as f64)
    );
    println!("(paper: <5% of interconnections missed; most AS pairs use a single location)");
}

// ---------------------------------------------------------------------------
// Figure 8b — outage duration CDF, facilities vs IXPs
// ---------------------------------------------------------------------------
fn fig8b(ctx: &Ctx, cache: &mut Cache) {
    let run = cache.five(ctx);
    let mut fac: Vec<f64> = Vec::new();
    let mut ixp: Vec<f64> = Vec::new();
    for r in &run.reports {
        let Some(d) = r.duration() else { continue };
        match r.scope {
            OutageScope::Ixp(_) => ixp.push(d as f64 / 60.0),
            _ => fac.push(d as f64 / 60.0),
        }
    }
    fac.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ixp.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("quantile | facility (min) | IXP (min)");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        println!("{:>8} | {:>14.0} | {:>9.0}", q, quantile(&fac, q), quantile(&ixp, q));
    }
    let mut all: Vec<f64> = fac.iter().chain(ixp.iter()).copied().collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let over_hour = all.iter().filter(|&&d| d > 60.0).count();
    println!(
        "\nmedian {:.0} min; {}/{} over an hour ({})",
        quantile(&all, 0.5),
        over_hour,
        all.len(),
        pct(over_hour as f64 / all.len().max(1) as f64)
    );
    // Uptime lines: 99.9/99.99/99.999% of a year in minutes.
    for (nines, mins) in [("99.9%", 525.6), ("99.99%", 52.56), ("99.999%", 5.256)] {
        let beyond = all.iter().filter(|&&d| d > mins).count();
        println!("  outages breaking {nines} yearly uptime ({mins:.1} min downtime): {beyond}");
    }
    println!("(paper: median 17 min, 40% > 1h, IXP outages longer than facility outages)");
}

// ---------------------------------------------------------------------------
// Figure 8c — AMS-IX outage through three community granularities
// ---------------------------------------------------------------------------
fn fig8c(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.amsix(ctx);
    let scenario = &study.scenario;
    let mut detector = detector_for(scenario, KeplerConfig::default());
    let tags = [
        LocationTag::Facility(study.sara_facility),
        LocationTag::Ixp(study.amsix),
        LocationTag::City(scenario.world.colo.ixp(study.amsix).unwrap().city),
    ];
    for t in tags {
        detector.watch(t);
    }
    for r in scenario.records() {
        detector.process_record(&r);
    }
    println!("t-rel(s) | facility | ixp    | city   (fraction of stable paths changed)");
    let series: Vec<Vec<(u64, f64)>> =
        tags.iter().map(|t| detector.watch_series(*t).unwrap_or(&[]).to_vec()).collect();
    let mut rows: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
    for (i, s) in series.iter().enumerate() {
        for (t, f) in s {
            if *t + 900 >= OUTAGE_START && *t <= OUTAGE_START + OUTAGE_DURATION + 1200 {
                rows.entry(*t).or_insert([0.0; 3])[i] = *f;
            }
        }
    }
    for (t, v) in &rows {
        println!(
            "{:>8} | {:>8.3} | {:>6.3} | {:>6.3}",
            *t as i64 - OUTAGE_START as i64,
            v[0],
            v[1],
            v[2]
        );
    }
    let maxima: Vec<f64> =
        (0..3).map(|i| rows.values().map(|v| v[i]).fold(0.0f64, f64::max)).collect();
    println!(
        "\npeak change fraction: facility {:.2}, ixp {:.2}, city {:.2}",
        maxima[0], maxima[1], maxima[2]
    );
    println!("(paper: visible at all granularities; IXP-tagged paths show the deepest drop)");
}

// ---------------------------------------------------------------------------
// Figure 9a/9b/9c — the London dual-outage case
// ---------------------------------------------------------------------------
fn fig9a(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.london(ctx);
    let scenario = &study.scenario;
    let mut detector = detector_for(scenario, KeplerConfig::default());
    let tags = [
        LocationTag::Facility(study.th_east),
        LocationTag::Ixp(study.linx),
        LocationTag::City(study.city),
    ];
    for t in tags {
        detector.watch(t);
    }
    for r in scenario.records() {
        detector.process_record(&r);
    }
    println!("time(rel to A, h) | TH-East | IXP    | city   | marker");
    let series: Vec<Vec<(u64, f64)>> =
        tags.iter().map(|t| detector.watch_series(*t).unwrap_or(&[]).to_vec()).collect();
    let mut rows: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
    for (i, s) in series.iter().enumerate() {
        for (t, f) in s {
            if *f > 0.0 {
                rows.entry(*t).or_insert([0.0; 3])[i] = *f;
            }
        }
    }
    for (t, v) in &rows {
        let marker = if t.abs_diff(study.time_a) < 900 {
            "A"
        } else if t.abs_diff(study.time_b) < 900 {
            "B (AS-level)"
        } else if t.abs_diff(study.time_c) < 900 {
            "C"
        } else {
            ""
        };
        println!(
            "{:>17.2} | {:>7.3} | {:>6.3} | {:>6.3} | {marker}",
            (*t as i64 - study.time_a as i64) as f64 / 3600.0,
            v[0],
            v[1],
            v[2]
        );
    }
    let reports = detector.finish();
    println!("\nlocalized outages:");
    for r in &reports {
        println!("  {r}");
    }
    println!("(paper: A and C are PoP-level at two different buildings; B is AS-level only)");
}

fn fig9b(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.london(ctx);
    let scenario = &study.scenario;
    let reports = detector_for(scenario, KeplerConfig::default()).run(scenario.records());
    let world = &scenario.world;
    let mut facs = world.colo.facilities_in_city(study.city);
    facs.sort_by_key(|f| std::cmp::Reverse(world.colo.members_of_facility(*f).len()));
    facs.truncate(6);
    println!("facility (in the outage city)  | members affected at A | at C");
    for f in &facs {
        let members = world.colo.members_of_facility(*f);
        let frac = |t: u64| -> f64 {
            let report = reports.iter().find(|r| r.start.abs_diff(t) < 900);
            match report {
                None => 0.0,
                Some(r) => {
                    let aff = r.affected_ases();
                    members.iter().filter(|m| aff.contains(m)).count() as f64
                        / members.len().max(1) as f64
                }
            }
        };
        let name = world.colo.facility(*f).unwrap().name.clone();
        let mark = if *f == study.tc_hex {
            " <- epicenter A"
        } else if *f == study.th_north {
            " <- epicenter C"
        } else {
            ""
        };
        println!(
            "{:<30} | {:>21} | {:>5}{mark}",
            name,
            pct(frac(study.time_a)),
            pct(frac(study.time_c))
        );
    }
    println!("(paper: the affected member subsets identify TC HEX8/9 at A and TH North at C)");
}

fn fig9c(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.london(ctx);
    let scenario = &study.scenario;
    let reports = detector_for(scenario, KeplerConfig::default()).run(scenario.records());
    let world = &scenario.world;
    let epicenter = world.gazetteer.by_index(study.city.0 as usize).unwrap().point;
    let mut dists: Vec<f64> = Vec::new();
    for r in &reports {
        for asn in r.affected_near.union(&r.affected_far) {
            if let Some(node) = world.node(*asn) {
                let home = world.gazetteer.by_index(node.info.home_city.0 as usize).unwrap();
                dists.push(epicenter.distance_km(&home.point));
            }
        }
    }
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("distance bucket (km) | affected ASes | CDF");
    let buckets = [
        (0.0, 50.0),
        (50.0, 500.0),
        (500.0, 1000.0),
        (1000.0, 2500.0),
        (2500.0, 5000.0),
        (5000.0, 99_999.0),
    ];
    let mut cum = 0usize;
    for (lo, hi) in buckets {
        let n = dists.iter().filter(|&&d| d >= lo && d < hi).count();
        cum += n;
        println!(
            "{:>8.0} - {:>6.0}    | {:>13} | {}",
            lo,
            hi,
            n,
            pct(cum as f64 / dists.len().max(1) as f64)
        );
    }
    let local = dists.iter().filter(|&&d| d < 50.0).count();
    println!(
        "\nlocal share: {} (paper: only 44% of affected interfaces were in London)",
        pct(local as f64 / dists.len().max(1) as f64)
    );
}

// ---------------------------------------------------------------------------
// Figure 10a/10b — BGP vs traceroute path changes around the AMS-IX outage
// ---------------------------------------------------------------------------
fn fig10a(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.amsix(ctx);
    let scenario = &study.scenario;
    let dict = scenario.mined_dictionary();
    // Replay the stream: which (collector, peer, prefix) routes carried an
    // AMS-IX-locating community before the outage, and when do they again?
    use kepler::bgpstream::RecordPayload;
    let crosses = |attrs: &kepler::bgp::PathAttributes| {
        attrs
            .communities
            .iter()
            .any(|c| matches!(dict.locate(*c), Some(LocationTag::Ixp(x)) if x == study.amsix))
    };
    let mut state: BTreeMap<(u16, std::net::IpAddr, kepler::bgp::Prefix), bool> = BTreeMap::new();
    let mut baseline: Option<Vec<(u16, std::net::IpAddr, kepler::bgp::Prefix)>> = None;
    let grid: Vec<i64> = vec![-1200, 300, 900, 1800, 3600, 2 * 3600, 4 * 3600, 8 * 3600, 20 * 3600];
    let mut gi = 0usize;
    println!("t-rel | AMS-IX-tagged routes still on baseline");
    for r in scenario.output.records.iter() {
        while gi < grid.len() && (r.time as i64) > OUTAGE_START as i64 + grid[gi] {
            let b = baseline
                .get_or_insert_with(|| state.iter().filter(|(_, &v)| v).map(|(k, _)| *k).collect());
            let on = b.iter().filter(|k| state.get(*k).copied().unwrap_or(false)).count();
            println!(
                "{:>6}s | {:>5} / {} ({})",
                grid[gi],
                on,
                b.len(),
                pct(on as f64 / b.len().max(1) as f64)
            );
            gi += 1;
        }
        if let RecordPayload::Update(u) = &r.payload {
            for p in &u.withdrawn {
                state.insert((r.collector.0, r.peer.addr, *p), false);
            }
            if let Some(attrs) = &u.attrs {
                let c = crosses(attrs);
                for p in &u.announced {
                    state.insert((r.collector.0, r.peer.addr, *p), c);
                }
            }
        }
    }
    // Flush grid points past the end of the stream (steady final state).
    while gi < grid.len() {
        if let Some(b) = &baseline {
            let on = b.iter().filter(|k| state.get(*k).copied().unwrap_or(false)).count();
            println!(
                "{:>6}s | {:>5} / {} ({})",
                grid[gi],
                on,
                b.len(),
                pct(on as f64 / b.len().max(1) as f64)
            );
        }
        gi += 1;
    }
    println!("(paper: ~4h to 95% return; ~5% never return)");
}

fn fig10b(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.amsix(ctx);
    let scenario = &study.scenario;
    let dp = DataplaneSim::new(&scenario.world, &scenario.timeline, scenario.seed);
    let pairs = default_pairs(&scenario.world, scenario.seed, 300);
    let base = dp.campaign(&pairs, OUTAGE_START - 1800);
    let crossing_pairs: Vec<_> =
        base.iter().filter(|p| p.crosses_ixp(study.amsix)).map(|p| p.pair).collect();
    println!("t-rel | traceroute paths still crossing the IXP | rerouted via transit (no IXP hop)");
    for rel in [-1800i64, 300, 1200, 2400, 3600, 2 * 3600, 4 * 3600] {
        let t = (OUTAGE_START as i64 + rel) as u64;
        let paths = dp.campaign(&crossing_pairs, t);
        let on = paths.iter().filter(|p| p.crosses_ixp(study.amsix)).count();
        let transit = paths
            .iter()
            .filter(|p| {
                !p.crosses_ixp(study.amsix)
                    && p.hops.iter().all(|h| {
                        !matches!(h.owner, kepler::netsim::dataplane::IfaceOwner::IxpLan { .. })
                    })
            })
            .count();
        println!(
            "{:>6}s | {:>4}/{} ({:>6}) | {:>4} ({})",
            rel,
            on,
            crossing_pairs.len(),
            pct(on as f64 / crossing_pairs.len().max(1) as f64),
            transit,
            pct(transit as f64 / crossing_pairs.len().max(1) as f64)
        );
    }
    println!("(paper: 85% of traceroute paths back within an hour; 75% of alternates via transit)");
}

fn fig10c(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.amsix(ctx);
    let scenario = &study.scenario;
    let dp = DataplaneSim::new(&scenario.world, &scenario.timeline, scenario.seed);
    let pairs = default_pairs(&scenario.world, scenario.seed, 300);
    let base = dp.campaign(&pairs, OUTAGE_START - 1800);
    let amsix_pairs: Vec<_> =
        base.iter().filter(|p| p.crosses_ixp(study.amsix)).map(|p| p.pair).collect();
    let others: Vec<_> =
        base.iter().filter(|p| p.reached && !p.crosses_ixp(study.amsix)).map(|p| p.pair).collect();
    let rtt_q = |pairs: &[kepler::netsim::dataplane::ProbePair], t: u64| -> (f64, f64, f64) {
        let mut v: Vec<f64> = dp.campaign(pairs, t).iter().filter_map(|p| p.rtt_ms()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.9))
    };
    println!("cohort / phase       | p25 (ms) | median (ms) | p90 (ms)");
    for (label, t) in [
        ("AMS-IX before", OUTAGE_START - 1800),
        ("AMS-IX during", OUTAGE_START + 300),
        ("AMS-IX after ", OUTAGE_START + OUTAGE_DURATION + 1200),
    ] {
        let (a, b, c) = rtt_q(&amsix_pairs, t);
        println!("{label:<20} | {a:>8.1} | {b:>11.1} | {c:>8.1}");
    }
    for (label, t) in
        [("others before", OUTAGE_START - 1800), ("others during", OUTAGE_START + 300)]
    {
        let (a, b, c) = rtt_q(&others, t);
        println!("{label:<20} | {a:>8.1} | {b:>11.1} | {c:>8.1}");
    }
    println!("(paper: median +100 ms for rerouted paths during the outage; recovers after)");
}

fn fig10d(ctx: &Ctx, cache: &mut Cache) {
    let study = cache.amsix(ctx);
    let scenario = &study.scenario;
    let ts = TrafficSim::new(&scenario.world, study.eu_ixp, study.amsix, scenario.seed);
    let series = ts.series(
        OUTAGE_START - 1800,
        OUTAGE_START + 3600,
        120,
        OUTAGE_START,
        OUTAGE_START + OUTAGE_DURATION,
    );
    println!("IPv4 traffic at the remote exchange (Gbps):");
    let values: Vec<f64> = series.iter().map(|p| p.gbps).collect();
    println!("  {}", sparkline(&values));
    for p in series.iter().step_by(5) {
        println!("  t{:+6}s {:>9.1}", p.time as i64 - OUTAGE_START as i64, p.gbps);
    }
    let impact = ts.impact_summary(OUTAGE_START, OUTAGE_START + OUTAGE_DURATION);
    println!(
        "\nmembers losing traffic: {}/{}; top-25 losers carry {} of the loss ({:.0} Gbps total)",
        impact.members_losing,
        impact.members,
        pct(impact.top25_share),
        impact.total_loss_gbps
    );
    println!("(paper: ~10% dip at an IXP 360 km away, overshoot after restore; 136/533 members, top-25 = 83%)");
}

// ---------------------------------------------------------------------------
// §5.3 validation + dictionary statistics
// ---------------------------------------------------------------------------
fn val(ctx: &Ctx, cache: &mut Cache) {
    let run = cache.five(ctx);
    let infra_truth = run.truth.iter().filter(|t| t.is_infrastructure).count();
    println!(
        "ground truth: {} infrastructure outages ({} trackable)",
        infra_truth,
        run.truth.iter().filter(|t| t.is_infrastructure && t.trackable).count()
    );
    println!("detected: {} outages", run.reports.len());
    println!(
        "validation: {} TP, {} FP, {} FN  (precision {:.2}, recall {:.2})",
        run.eval.true_positives,
        run.eval.false_positives,
        run.eval.false_negatives,
        run.eval.precision(),
        run.eval.recall()
    );
    // FP causes: fiber cuts detected at the right place count as FPs.
    let fiber_fps = run
        .eval
        .spurious
        .iter()
        .filter(|&&ri| {
            let r = &run.reports[ri];
            run.truth.iter().any(|t| {
                !t.is_infrastructure
                    && (t.scope == r.scope || t.aliases.contains(&r.scope))
                    && r.start.saturating_sub(1800) <= t.start + t.duration
                    && t.start <= r.end.unwrap_or(u64::MAX) + 1800
            })
        })
        .count();
    println!("  of the FPs, {fiber_fps} are correctly-located non-outage events (the paper's fiber-cut FP cause)");
    println!(
        "signal classes: {} link-level, {} AS-level, {} operator-level, {} PoP-level, {} unresolved",
        run.counts.link_level,
        run.counts.as_level,
        run.counts.operator_level,
        run.counts.pop_level,
        run.counts.unresolved
    );
    let reported = run.scenario.reported();
    println!(
        "publicly reported: {} -> detection advantage {:.1}x (paper: 4x)",
        reported.len(),
        run.reports.len() as f64 / reported.len().max(1) as f64
    );
    println!("(paper: 53/159 externally confirmed, 6 FP fiber cuts, 0 missed full outages, 4 missed small partials)");
}

fn dict(ctx: &Ctx) {
    let world = world_for(ctx);
    let colo = world.detector_colomap();
    let corpus = kepler::docmine::corpus::render_corpus(&world.schemes, ctx.seed ^ 0xD1C7);
    let miner = kepler::docmine::dictionary::DictionaryMiner::new(&colo, &world.gazetteer);
    let (mut dictionary, mining) = miner.mine(&corpus);
    dictionary.add_route_servers_from(&colo);
    let stats = dictionary.stats(&world.gazetteer, &colo);
    println!(
        "dictionary: {} communities by {} ASes and {} route servers",
        stats.communities, stats.ases, stats.route_servers
    );
    println!(
        "coverage: {} cities in {} countries, {} IXPs, {} facilities",
        stats.cities, stats.countries, stats.ixps, stats.facilities
    );
    println!(
        "mining: {} lines, {} outbound dropped, {} unrecognized",
        mining.lines, mining.outbound_dropped, mining.unrecognized
    );
    let report = kepler::docmine::dictionary::validate(&dictionary, &world.schemes);
    println!(
        "validation: precision {:.3}, recall {:.3} ({} wrong tags)",
        report.precision(),
        report.recall(),
        report.wrong_tag
    );
    // Attrition vs an earlier, lower-adoption epoch.
    let mut older =
        if ctx.compact { WorldConfig::small(ctx.seed) } else { WorldConfig::paper_scale(ctx.seed) };
    older.documentation_rate = 0.4;
    let old_world = World::generate(older);
    let old = kepler::docmine::dictionary::dictionary_from_schemes(&old_world.schemes, false);
    let att = kepler::docmine::attrition::compare(&old, &dictionary);
    println!(
        "attrition vs older epoch: {} shared, {} changed meaning ({}), {} retired, {} adopted",
        att.shared,
        att.changed_meaning,
        pct(att.meaning_change_rate()),
        att.retired,
        att.adopted
    );
    println!("(paper: 5,284 communities / 468 ASes / 48 RS; 1.5% of shared values changed meaning since 2008)");
}
