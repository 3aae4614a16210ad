//! The serve daemon end-to-end over a flapping facility.
//!
//! A fuzz-generated world flaps one building down/up for several cycles.
//! The daemon ingests the BGP stream on its bin clock, commits every
//! closed bin to a WAL-backed store, fans lifecycle alerts out through
//! two rate-limited channels, and publishes an O(1) status view that
//! this example queries **mid-outage**, concurrently with ingest.
//!
//! ```sh
//! cargo run --release --example serve_demo [seed]
//! ```
//!
//! Exits non-zero unless (a) a mid-outage query saw the epicenter down
//! while the truth window was open, (b) the captured alert stream is in
//! lifecycle order (Opened first; Recovering only out of Open; Reopened
//! only out of Recovering; nothing after the run's close) with
//! non-decreasing bin stamps, and (c) the run ends with the incident
//! closed — CI runs this as a smoke test.

use kepler::core::events::{IncidentState, OutageScope};
use kepler::core::KeplerConfig;
use kepler::glue::{detector, Stack};
use kepler::netsim::fuzz;
use kepler::serve::store::TransitionKind;
use kepler::serve::{Alert, CallbackSink, Channel, Daemon, DaemonConfig, FileSink, TokenBucket};
use std::sync::{Arc, Mutex};

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(13u64);
    let fw = fuzz::flapping(seed);
    let script = &fw.script;
    let (truth_start, truth_end) = script.script.window();
    let epicenters = script.script.epicenters();
    println!("world (fuzz seed {seed}): {}", script.render().lines().next().unwrap_or(""));
    println!("  flapping facility {:?}, truth window {truth_start} .. {truth_end}", epicenters);

    // Blame may land on the building or be abstracted to its metro.
    let names_epicenter = |scope: OutageScope| match scope {
        OutageScope::Facility(f) => epicenters.contains(&f),
        OutageScope::City(c) => c == fw.city,
        OutageScope::Ixp(_) => false,
    };

    // The script prescribes the hysteresis that rides the flap as one
    // Open <-> Recovering lifecycle instead of N separate incidents.
    let config = KeplerConfig::default().with_hysteresis(script.open_after, script.close_after);

    let dir = std::env::temp_dir().join(format!("kepler-serve-demo-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = Daemon::new(
        detector(&fw.scenario, config, &Stack::Lifecycle),
        &DaemonConfig::new(dir.clone()),
    )
    .expect("store open");

    // Channel 1: capture every alert (generous bucket) for the ordering
    // assertions below.
    let captured: Arc<Mutex<Vec<Alert>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_log = Arc::clone(&captured);
    daemon.add_channel(Channel::new(
        "capture",
        Box::new(CallbackSink(move |a: &Alert| sink_log.lock().unwrap().push(a.clone()))),
        TokenBucket::new(1024, 1),
    ));
    // Channel 2: a deliberately slow pager-style channel (1 alert/min,
    // burst 2) writing to a file — flap storms coalesce here.
    daemon.add_channel(Channel::new(
        "pager",
        Box::new(FileSink::new(dir.join("pager.log"))),
        TokenBucket::new(2, 60),
    ));

    // Ingest record-by-record, querying the shared view mid-stream the
    // way an operator dashboard would.
    let view = daemon.view();
    let mut saw_down_mid_outage = false;
    let mut mid_outage_status = None;
    for rec in fw.scenario.records() {
        let now = rec.time;
        daemon.ingest(rec).expect("ingest");
        if now >= truth_start && now <= truth_end {
            let v = view.load();
            if let Some(s) = v.live().into_iter().find(|s| names_epicenter(s.scope)) {
                saw_down_mid_outage = true;
                if mid_outage_status.is_none() {
                    mid_outage_status = Some(s.clone());
                    println!(
                        "\nmid-outage query at t{:+}s (rel. flap start): {} is {} since {}",
                        now as i64 - truth_start as i64,
                        s.scope,
                        s.state,
                        s.started
                    );
                }
            }
        }
    }
    let (reports, summary) = daemon.finish().expect("finish");

    println!(
        "\nrun: {} events, {} commits ({} idle), {} transitions",
        summary.events, summary.commits, summary.idle_commits, summary.transitions
    );
    for r in &reports {
        println!("  {r}");
    }

    let alerts = captured.lock().unwrap();
    println!("\nalert stream ({} delivered on 'capture'):", alerts.len());
    for a in alerts.iter().filter(|a| names_epicenter(a.transition.scope)) {
        println!("  {a}");
    }
    let pager = std::fs::read_to_string(dir.join("pager.log")).unwrap_or_default();
    println!("pager channel delivered {} lines (rate-limited)", pager.lines().count());

    // Smoke assertions (CI).
    assert!(
        saw_down_mid_outage,
        "the query surface never showed the epicenter down inside the truth window"
    );

    // Alert ordering: the epicenter's lifecycle must be well-formed.
    let kinds: Vec<TransitionKind> = alerts
        .iter()
        .filter(|a| names_epicenter(a.transition.scope))
        .map(|a| a.transition.kind)
        .collect();
    assert!(!kinds.is_empty(), "no alerts for the epicenter");
    assert_eq!(kinds[0], TransitionKind::Opened, "lifecycle must start Opened: {kinds:?}");
    let mut prev = kinds[0];
    for &k in &kinds[1..] {
        let legal = match k {
            TransitionKind::Opened => prev == TransitionKind::Closed,
            TransitionKind::Recovering => {
                prev == TransitionKind::Opened || prev == TransitionKind::Reopened
            }
            TransitionKind::Reopened => prev == TransitionKind::Recovering,
            TransitionKind::Closed => prev != TransitionKind::Closed,
        };
        assert!(legal, "illegal alert transition {prev:?} -> {k:?} in {kinds:?}");
        prev = k;
    }
    // Bin stamps never run backwards across the whole stream.
    for w in alerts.windows(2) {
        assert!(
            w[0].transition.at <= w[1].transition.at,
            "alert stamps regressed: {} then {}",
            w[0].transition.at,
            w[1].transition.at
        );
    }

    // The run must end with the flap resolved: a closed report naming
    // the epicenter, and no live incident left in the final view.
    let closed =
        reports.iter().any(|r| names_epicenter(r.scope) && r.state == IncidentState::Closed);
    assert!(closed, "no Closed report for the epicenter: {reports:?}");
    assert!(view.load().live().is_empty(), "live incidents survived finish");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nserve demo OK: mid-outage queries answered, alerts in lifecycle order");
}
