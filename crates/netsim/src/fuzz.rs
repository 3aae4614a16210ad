//! Seeded scenario-diversity engine: generated worlds × generated failures.
//!
//! The packaged studies in [`crate::scenario`] each freeze one
//! interesting topology. This module is the opposite bet: **hundreds of
//! small random worlds**, each paired with a random failure script —
//! clean single outages, partial-port outages, flapping facilities with
//! configurable duty cycles, correlated multi-building cascades inside
//! one metro, and fabrics whose member lists are padded with
//! remote-peering resellers. CI sweeps a seed range per run; any world
//! that violates a detector invariant is serialized (a failing seed plus
//! its [`ScenarioScript`]) so the exact scenario replays locally with
//! one command.
//!
//! Design rules:
//!
//! * **The script is the artifact.** [`ScenarioScript`] embeds the full
//!   [`WorldConfig`] *and* the concrete stage (facility ids, timings)
//!   chosen at generation time, and round-trips through a line-oriented
//!   text form ([`ScenarioScript::render`] / [`ScenarioScript::parse`]).
//!   Replaying a parsed script rebuilds the identical world — and a
//!   hand-edited script is a first-class way to author a regression
//!   case.
//! * **Generation never sees the detector.** This module only builds
//!   worlds and streams (netsim does not depend on `kepler-core`); the
//!   invariant checker lives in the root crate's fuzz harness.
//! * **Safety over liveness.** Scripts are free to generate outages too
//!   small to detect — the harness checks that the detector never blames
//!   a bystander, never closes early, never confirms an up facility; it
//!   only demands detection where the script guarantees visibility.

use crate::engine::{CollectorSetup, Simulation};
use crate::events::{EventKind, ScheduledEvent};
use crate::scenario::twin::DAY_ONE;
use crate::scenario::Scenario;
use crate::world::{World, WorldConfig};
use kepler_bgp::Asn;
use kepler_topology::{CityId, FacilityId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;

/// Header line of the serialized script format.
const HEADER: &str = "kepler-fuzz-script v1";

/// The failure archetypes the fuzzer composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// One facility, full outage.
    Single,
    /// One facility, a fraction of its ports.
    Partial,
    /// One facility going down and up repeatedly.
    Flapping,
    /// Several facilities in one metro failing in a stagger.
    Cascade,
    /// A fabric-hosting facility fails; the exchange's member list is
    /// padded with remote peers whose home metros must not be blamed.
    Remote,
    /// A facility drains member by member, each withdrawal spaced wider
    /// than a bin: the deviation test dismisses every step as AS-level
    /// churn, only the aggregate presence decline gives it away.
    SlowDrain,
    /// A repeating daily maintenance dip — the same members withdraw at
    /// the same hour every day. Pure seasonality, nothing to detect; the
    /// forecast detector's negative control.
    Seasonal,
    /// A congestion brownout: RTTs through a facility surge while
    /// routing is untouched. Invisible to BGP; only the delay detector
    /// can see it.
    DelaySurge,
}

impl FailureKind {
    /// Stable script-format name of the archetype.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Single => "single",
            FailureKind::Partial => "partial",
            FailureKind::Flapping => "flapping",
            FailureKind::Cascade => "cascade",
            FailureKind::Remote => "remote",
            FailureKind::SlowDrain => "slow-drain",
            FailureKind::Seasonal => "seasonal",
            FailureKind::DelaySurge => "delay-surge",
        }
    }
}

/// A concrete failure plan: facilities and timings fixed at generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureScript {
    /// Full single-facility outage.
    Single {
        /// The building that fails.
        facility: FacilityId,
        /// Outage start (epoch seconds).
        start: u64,
        /// Outage duration in seconds.
        duration: u64,
    },
    /// Partial outage: only a fraction of the building's ports die.
    Partial {
        /// The building that fails.
        facility: FacilityId,
        /// Outage start (epoch seconds).
        start: u64,
        /// Outage duration in seconds.
        duration: u64,
        /// Affected port fraction in percent (integer so the script
        /// text round-trips exactly).
        percent: u8,
    },
    /// A facility flapping with a fixed duty cycle.
    Flapping {
        /// The building that flaps.
        facility: FacilityId,
        /// First down-phase start (epoch seconds).
        start: u64,
        /// Down-phase length in seconds.
        down_secs: u64,
        /// Up-phase length in seconds.
        up_secs: u64,
        /// Number of down phases.
        cycles: u32,
    },
    /// Correlated cascade: same-metro facilities failing in a stagger.
    Cascade {
        /// The buildings that fail, in failure order.
        facilities: Vec<FacilityId>,
        /// First outage start (epoch seconds).
        start: u64,
        /// Delay between consecutive facility failures, seconds.
        stagger_secs: u64,
        /// Per-facility outage duration in seconds.
        duration: u64,
    },
    /// Full outage of a fabric-hosting facility in a world generated
    /// with a high remote-peering rate.
    Remote {
        /// The fabric-hosting building that fails.
        facility: FacilityId,
        /// Outage start (epoch seconds).
        start: u64,
        /// Outage duration in seconds.
        duration: u64,
    },
    /// Staggered per-member withdrawal draining a facility. Each step
    /// deviates a single near-AS — below the localization quorum — so
    /// the deviation test stays silent while the facility's presence
    /// drains to nothing.
    SlowDrain {
        /// The draining building.
        facility: FacilityId,
        /// Members withdrawn, in withdrawal order.
        members: Vec<Asn>,
        /// First withdrawal (epoch seconds).
        start: u64,
        /// Seconds between consecutive withdrawals (kept wider than a
        /// monitor bin so no bin sees two deviating members).
        stagger_secs: u64,
        /// How long the fully-drained state lasts before the members
        /// return.
        hold_secs: u64,
    },
    /// A repeating daily maintenance dip: the same members withdraw at
    /// the same time every day. There is no outage; a seasonal-naive
    /// forecaster must predict the dip after one period and raise
    /// nothing.
    Seasonal {
        /// The building with the maintenance window.
        facility: FacilityId,
        /// Members withdrawn during each dip.
        members: Vec<Asn>,
        /// First dip start (epoch seconds).
        start: u64,
        /// Dip length per day, seconds.
        dip_secs: u64,
        /// Number of daily cycles.
        days: u32,
    },
    /// A congestion brownout raising RTTs through one facility, with the
    /// control plane untouched.
    DelaySurge {
        /// The congested building.
        facility: FacilityId,
        /// Surge start (epoch seconds).
        start: u64,
        /// Surge duration in seconds.
        duration: u64,
        /// Extra milliseconds on every hop entering the building
        /// (integer so the script text round-trips exactly).
        extra_ms: u32,
    },
}

impl FailureScript {
    /// Which archetype this plan is.
    pub fn kind(&self) -> FailureKind {
        match self {
            FailureScript::Single { .. } => FailureKind::Single,
            FailureScript::Partial { .. } => FailureKind::Partial,
            FailureScript::Flapping { .. } => FailureKind::Flapping,
            FailureScript::Cascade { .. } => FailureKind::Cascade,
            FailureScript::Remote { .. } => FailureKind::Remote,
            FailureScript::SlowDrain { .. } => FailureKind::SlowDrain,
            FailureScript::Seasonal { .. } => FailureKind::Seasonal,
            FailureScript::DelaySurge { .. } => FailureKind::DelaySurge,
        }
    }

    /// The facilities this plan takes down, in failure order.
    pub fn epicenters(&self) -> Vec<FacilityId> {
        match self {
            FailureScript::Single { facility, .. }
            | FailureScript::Partial { facility, .. }
            | FailureScript::Flapping { facility, .. }
            | FailureScript::Remote { facility, .. }
            | FailureScript::SlowDrain { facility, .. }
            | FailureScript::Seasonal { facility, .. }
            | FailureScript::DelaySurge { facility, .. } => vec![*facility],
            FailureScript::Cascade { facilities, .. } => facilities.clone(),
        }
    }

    /// (first failure start, last restoration) of the plan.
    pub fn window(&self) -> (u64, u64) {
        match *self {
            FailureScript::Single { start, duration, .. }
            | FailureScript::Partial { start, duration, .. }
            | FailureScript::Remote { start, duration, .. }
            | FailureScript::DelaySurge { start, duration, .. } => (start, start + duration),
            FailureScript::Flapping { start, down_secs, up_secs, cycles, .. } => {
                let period = down_secs + up_secs;
                (start, start + u64::from(cycles.saturating_sub(1)) * period + down_secs)
            }
            FailureScript::Cascade { ref facilities, start, stagger_secs, duration } => {
                let last = start + facilities.len().saturating_sub(1) as u64 * stagger_secs;
                (start, last + duration)
            }
            FailureScript::SlowDrain { ref members, start, stagger_secs, hold_secs, .. } => {
                let last = start + members.len().saturating_sub(1) as u64 * stagger_secs;
                (start, last + hold_secs)
            }
            FailureScript::Seasonal { start, dip_secs, days, .. } => {
                (start, start + u64::from(days.saturating_sub(1)) * 86_400 + dip_secs)
            }
        }
    }

    /// Expands the plan into engine events.
    pub fn events(&self) -> Vec<ScheduledEvent> {
        let full = |facility, start, duration| ScheduledEvent {
            start,
            duration,
            kind: EventKind::FacilityOutage { facility, affected_fraction: 1.0 },
        };
        match *self {
            FailureScript::Single { facility, start, duration }
            | FailureScript::Remote { facility, start, duration } => {
                vec![full(facility, start, duration)]
            }
            FailureScript::Partial { facility, start, duration, percent } => {
                vec![ScheduledEvent {
                    start,
                    duration,
                    kind: EventKind::FacilityOutage {
                        facility,
                        affected_fraction: f64::from(percent) / 100.0,
                    },
                }]
            }
            FailureScript::Flapping { facility, start, down_secs, up_secs, cycles } => (0..cycles)
                .map(|k| full(facility, start + u64::from(k) * (down_secs + up_secs), down_secs))
                .collect(),
            FailureScript::Cascade { ref facilities, start, stagger_secs, duration } => facilities
                .iter()
                .enumerate()
                .map(|(i, &f)| full(f, start + i as u64 * stagger_secs, duration))
                .collect(),
            // Every withdrawal runs until the common restoration instant,
            // so the facility darkens monotonically, one member per step.
            FailureScript::SlowDrain { facility, ref members, start, stagger_secs, hold_secs } => {
                let (_, drain_end) = self.window();
                members
                    .iter()
                    .enumerate()
                    .map(|(i, &asn)| {
                        let at = start + i as u64 * stagger_secs;
                        ScheduledEvent {
                            start: at,
                            duration: drain_end.saturating_sub(at).max(hold_secs),
                            kind: EventKind::OperatorWithdraw { asns: vec![asn], facility },
                        }
                    })
                    .collect()
            }
            FailureScript::Seasonal { facility, ref members, start, dip_secs, days } => (0..days)
                .map(|k| ScheduledEvent {
                    start: start + u64::from(k) * 86_400,
                    duration: dip_secs,
                    kind: EventKind::OperatorWithdraw { asns: members.clone(), facility },
                })
                .collect(),
            FailureScript::DelaySurge { facility, start, duration, extra_ms } => {
                vec![ScheduledEvent {
                    start,
                    duration,
                    kind: EventKind::LatencySurge { facility, extra_ms: f64::from(extra_ms) },
                }]
            }
        }
    }
}

/// A fully-specified generated scenario: world recipe + failure plan +
/// the detector knobs the harness must replay it with.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScript {
    /// The fuzzer seed this script was generated from.
    pub seed: u64,
    /// The world recipe (regenerating it is deterministic).
    pub world: WorldConfig,
    /// Collector count for the vantage setup.
    pub collectors: usize,
    /// Peer cap per collector.
    pub max_peers: usize,
    /// Opening hysteresis the harness must run the tracker with.
    pub open_after: usize,
    /// Closing hysteresis the harness must run the tracker with.
    pub close_after: usize,
    /// The failure plan.
    pub script: FailureScript,
}

/// A built fuzz world, ready for the detector harness.
pub struct FuzzWorld {
    /// The script that produced it.
    pub script: ScenarioScript,
    /// The simulated scenario (world + update stream + timeline).
    pub scenario: Scenario,
    /// The metro of the first epicenter.
    pub city: CityId,
}

impl ScenarioScript {
    /// Generates the script for a fuzzer seed: a random small world and
    /// a random failure archetype staged on its best-instrumented
    /// facilities.
    pub fn generate(seed: u64) -> ScenarioScript {
        ScenarioScript::generate_kind(seed, None)
    }

    /// [`generate`](Self::generate), with the archetype forced.
    pub fn generate_kind(seed: u64, force: Option<FailureKind>) -> ScenarioScript {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA57_F00D);
        let kind = force.unwrap_or_else(|| match rng.gen_range(0..5u32) {
            0 => FailureKind::Single,
            1 => FailureKind::Partial,
            2 => FailureKind::Flapping,
            3 => FailureKind::Cascade,
            _ => FailureKind::Remote,
        });

        // World recipe: jitter every knob around the `tiny` preset so no
        // two seeds share a topology, but stay small enough that a full
        // world + simulation runs in well under a second.
        let mut wc = WorldConfig::tiny(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
        wc.n_tier1 = rng.gen_range(3..=5);
        wc.n_tier2 = rng.gen_range(10..=16);
        wc.n_content = rng.gen_range(8..=14);
        wc.n_eyeball = rng.gen_range(14..=26);
        wc.n_stub = rng.gen_range(20..=40);
        wc.facilities_per_continent = [
            rng.gen_range(14..=24),
            rng.gen_range(8..=14),
            rng.gen_range(3..=7),
            rng.gen_range(1..=3),
            1,
        ];
        wc.n_ixps = rng.gen_range(4..=9);
        wc.max_ixp_facilities = rng.gen_range(2..=4);
        wc.ixp_peers_per_member = rng.gen_range(3..=6);
        wc.pni_rate = f64::from(rng.gen_range(30..=60u32)) / 100.0;
        wc.documentation_rate = f64::from(rng.gen_range(85..=96u32)) / 100.0;
        wc.v6_tagging_rate = f64::from(rng.gen_range(40..=80u32)) / 100.0;
        // Remote worlds need enough reseller members for the remoteness
        // invariant to bite; elsewhere keep the preset's background rate.
        wc.remote_peering_rate = if kind == FailureKind::Remote {
            f64::from(rng.gen_range(35..=55u32)) / 100.0
        } else {
            f64::from(rng.gen_range(8..=25u32)) / 100.0
        };

        let world = World::generate(wc.clone());
        let stage = stage_for(&world, kind, &mut rng);

        // Timings. The warmup must exceed the detector's 2-day
        // stable-path horizon; the hour-of-day offset varies per seed.
        let start =
            DAY_ONE + 2 * 86_400 + rng.gen_range(2..=8u64) * 3600 + rng.gen_range(0..60u64) * 60;
        let script = match kind {
            FailureKind::Single => FailureScript::Single {
                facility: stage[0],
                start,
                duration: rng.gen_range(1..=3u64) * 3600,
            },
            FailureKind::Partial => FailureScript::Partial {
                facility: stage[0],
                start,
                duration: rng.gen_range(1..=3u64) * 3600,
                percent: rng.gen_range(50..=90u8),
            },
            FailureKind::Flapping => FailureScript::Flapping {
                facility: stage[0],
                start,
                down_secs: rng.gen_range(25..=45u64) * 60,
                up_secs: rng.gen_range(8..=18u64) * 60,
                cycles: rng.gen_range(3..=5u32),
            },
            FailureKind::Cascade => FailureScript::Cascade {
                facilities: stage,
                start,
                stagger_secs: rng.gen_range(10..=30u64) * 60,
                duration: rng.gen_range(2..=3u64) * 3600,
            },
            FailureKind::Remote => FailureScript::Remote {
                facility: stage[0],
                start,
                duration: rng.gen_range(1..=3u64) * 3600,
            },
            FailureKind::SlowDrain => FailureScript::SlowDrain {
                facility: stage[0],
                // Every tenant leaves — the locatable ones drain the
                // presence counter, the rest darken the data plane so a
                // validation campaign can confirm the husk.
                members: facility_members(&world, stage[0], false, usize::MAX),
                start,
                // Wider than a 60 s bin: no bin ever sees two deviating
                // members, so the deviation test dismisses every step.
                stagger_secs: rng.gen_range(3..=6u64) * 60,
                hold_secs: rng.gen_range(2..=3u64) * 3600,
            },
            FailureKind::Seasonal => FailureScript::Seasonal {
                facility: stage[0],
                // Two members stay below the ≥3 disjoint-near-AS quorum.
                members: facility_members(&world, stage[0], true, 2),
                // The first dip lands inside the forecaster's first
                // season (stream day one), so only *predicted* dips fall
                // on warmed ring slots.
                start: DAY_ONE + rng.gen_range(4..=10u64) * 3600,
                dip_secs: rng.gen_range(30..=60u64) * 60,
                days: 4,
            },
            FailureKind::DelaySurge => FailureScript::DelaySurge {
                facility: stage[0],
                start,
                duration: rng.gen_range(1..=2u64) * 3600,
                extra_ms: rng.gen_range(40..=80u32),
            },
        };

        // Detector knobs. Opening hysteresis is mostly 1 (the paper's
        // immediate-open behavior) with a deferred-open minority; closing
        // hysteresis for flapping worlds must outlast the up phase so the
        // incident rides the flap as one Open↔Recovering lifecycle.
        let open_after = if rng.gen_range(0..4u32) == 0 { 2 } else { 1 };
        let close_after = match script {
            FailureScript::Flapping { up_secs, .. } => (up_secs / 60) as usize + 8,
            _ => rng.gen_range(1..=2usize),
        };

        ScenarioScript {
            seed,
            world: wc,
            collectors: rng.gen_range(4..=6),
            max_peers: rng.gen_range(40..=72),
            open_after,
            close_after,
            script,
        }
    }

    /// End of the simulation window: last restoration plus a six-hour
    /// tail for restoration detection and lifecycle close.
    pub fn sim_end(&self) -> u64 {
        self.script.window().1 + 6 * 3600
    }

    /// Regenerates the world and runs the failure plan through the
    /// engine. Deterministic: the same script always builds the same
    /// stream. A script staging a facility its world lacks, or with a
    /// collector count outside `1..=65_536`, is an error, found before simulating.
    pub fn build(&self) -> Result<FuzzWorld, String> {
        if !(1..=1 << 16).contains(&self.collectors) {
            return Err(format!("collectors = {} is outside 1..=65536", self.collectors));
        }
        let world = World::generate(self.world.clone());
        let mut cities = Vec::new();
        for f in self.script.epicenters() {
            cities.push(world.colo.facility(f).ok_or(format!("no facility {}", f.0))?.city);
        }
        let city = *cities.first().ok_or("the script stages no facility")?;
        let timeline = self.script.events();
        let start = DAY_ONE;
        let end = self.sim_end();
        let setup = CollectorSetup::default_for(&world, self.collectors, self.max_peers, self.seed);
        let output = Simulation::new(&world, setup, start, self.seed).run(&timeline, end);
        Ok(FuzzWorld {
            script: self.clone(),
            scenario: Scenario { world, output, timeline, start, end, seed: self.seed },
            city,
        })
    }

    /// Serializes the script as line-oriented `key = value` text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        let w = &self.world;
        kv("seed", self.seed.to_string());
        kv("kind", self.script.kind().name().to_string());
        kv("collectors", self.collectors.to_string());
        kv("max_peers", self.max_peers.to_string());
        kv("open_after", self.open_after.to_string());
        kv("close_after", self.close_after.to_string());
        kv("world.seed", w.seed.to_string());
        kv("world.n_tier1", w.n_tier1.to_string());
        kv("world.n_tier2", w.n_tier2.to_string());
        kv("world.n_content", w.n_content.to_string());
        kv("world.n_eyeball", w.n_eyeball.to_string());
        kv("world.n_stub", w.n_stub.to_string());
        kv(
            "world.facilities_per_continent",
            w.facilities_per_continent.map(|n| n.to_string()).join(","),
        );
        kv("world.n_ixps", w.n_ixps.to_string());
        kv("world.max_ixp_facilities", w.max_ixp_facilities.to_string());
        kv("world.ixp_peers_per_member", w.ixp_peers_per_member.to_string());
        kv("world.pni_rate", w.pni_rate.to_string());
        kv("world.remote_peering_rate", w.remote_peering_rate.to_string());
        kv("world.documentation_rate", w.documentation_rate.to_string());
        kv("world.v6_tagging_rate", w.v6_tagging_rate.to_string());
        match &self.script {
            FailureScript::Single { facility, start, duration }
            | FailureScript::Remote { facility, start, duration } => {
                kv("facility", facility.0.to_string());
                kv("start", start.to_string());
                kv("duration", duration.to_string());
            }
            FailureScript::Partial { facility, start, duration, percent } => {
                kv("facility", facility.0.to_string());
                kv("start", start.to_string());
                kv("duration", duration.to_string());
                kv("percent", percent.to_string());
            }
            FailureScript::Flapping { facility, start, down_secs, up_secs, cycles } => {
                kv("facility", facility.0.to_string());
                kv("start", start.to_string());
                kv("down_secs", down_secs.to_string());
                kv("up_secs", up_secs.to_string());
                kv("cycles", cycles.to_string());
            }
            FailureScript::Cascade { facilities, start, stagger_secs, duration } => {
                kv(
                    "facilities",
                    facilities.iter().map(|f| f.0.to_string()).collect::<Vec<_>>().join(","),
                );
                kv("start", start.to_string());
                kv("stagger_secs", stagger_secs.to_string());
                kv("duration", duration.to_string());
            }
            FailureScript::SlowDrain { facility, members, start, stagger_secs, hold_secs } => {
                kv("facility", facility.0.to_string());
                kv(
                    "members",
                    members.iter().map(|a| a.0.to_string()).collect::<Vec<_>>().join(","),
                );
                kv("start", start.to_string());
                kv("stagger_secs", stagger_secs.to_string());
                kv("hold_secs", hold_secs.to_string());
            }
            FailureScript::Seasonal { facility, members, start, dip_secs, days } => {
                kv("facility", facility.0.to_string());
                kv(
                    "members",
                    members.iter().map(|a| a.0.to_string()).collect::<Vec<_>>().join(","),
                );
                kv("start", start.to_string());
                kv("dip_secs", dip_secs.to_string());
                kv("days", days.to_string());
            }
            FailureScript::DelaySurge { facility, start, duration, extra_ms } => {
                kv("facility", facility.0.to_string());
                kv("start", start.to_string());
                kv("duration", duration.to_string());
                kv("extra_ms", extra_ms.to_string());
            }
        }
        format!("{HEADER}\n{out}")
    }

    /// Parses text produced by [`render`](Self::render) — or written by
    /// hand to author a regression case.
    pub fn parse(text: &str) -> Result<ScenarioScript, String> {
        let mut lines =
            text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(HEADER) {
            return Err(format!("missing header line `{HEADER}`"));
        }
        let mut map: BTreeMap<&str, &str> = BTreeMap::new();
        for line in lines {
            let (k, v) =
                line.split_once('=').ok_or_else(|| format!("not a `key = value` line: {line}"))?;
            map.insert(k.trim(), v.trim());
        }
        fn field<T: FromStr>(map: &BTreeMap<&str, &str>, key: &str) -> Result<T, String> {
            map.get(key)
                .ok_or_else(|| format!("missing key `{key}`"))?
                .parse()
                .map_err(|_| format!("bad value for `{key}`"))
        }
        fn list<T: FromStr>(map: &BTreeMap<&str, &str>, key: &str) -> Result<Vec<T>, String> {
            map.get(key)
                .ok_or_else(|| format!("missing key `{key}`"))?
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| format!("bad value for `{key}`")))
                .collect()
        }

        let mut world = WorldConfig::tiny(field(&map, "world.seed")?);
        world.n_tier1 = field(&map, "world.n_tier1")?;
        world.n_tier2 = field(&map, "world.n_tier2")?;
        world.n_content = field(&map, "world.n_content")?;
        world.n_eyeball = field(&map, "world.n_eyeball")?;
        world.n_stub = field(&map, "world.n_stub")?;
        let facs: Vec<usize> = list(&map, "world.facilities_per_continent")?;
        world.facilities_per_continent =
            facs.try_into().map_err(|_| "world.facilities_per_continent needs 5 entries")?;
        world.n_ixps = field(&map, "world.n_ixps")?;
        world.max_ixp_facilities = field(&map, "world.max_ixp_facilities")?;
        world.ixp_peers_per_member = field(&map, "world.ixp_peers_per_member")?;
        world.pni_rate = field(&map, "world.pni_rate")?;
        world.remote_peering_rate = field(&map, "world.remote_peering_rate")?;
        world.documentation_rate = field(&map, "world.documentation_rate")?;
        world.v6_tagging_rate = field(&map, "world.v6_tagging_rate")?;

        let fac = |m: &BTreeMap<&str, &str>| field(m, "facility").map(FacilityId);
        let script = match *map.get("kind").ok_or("missing key `kind`")? {
            "single" => FailureScript::Single {
                facility: fac(&map)?,
                start: field(&map, "start")?,
                duration: field(&map, "duration")?,
            },
            "remote" => FailureScript::Remote {
                facility: fac(&map)?,
                start: field(&map, "start")?,
                duration: field(&map, "duration")?,
            },
            "partial" => FailureScript::Partial {
                facility: fac(&map)?,
                start: field(&map, "start")?,
                duration: field(&map, "duration")?,
                percent: field(&map, "percent")?,
            },
            "flapping" => FailureScript::Flapping {
                facility: fac(&map)?,
                start: field(&map, "start")?,
                down_secs: field(&map, "down_secs")?,
                up_secs: field(&map, "up_secs")?,
                cycles: field(&map, "cycles")?,
            },
            "cascade" => FailureScript::Cascade {
                facilities: list(&map, "facilities")?.into_iter().map(FacilityId).collect(),
                start: field(&map, "start")?,
                stagger_secs: field(&map, "stagger_secs")?,
                duration: field(&map, "duration")?,
            },
            "slow-drain" => FailureScript::SlowDrain {
                facility: fac(&map)?,
                members: list(&map, "members")?.into_iter().map(Asn).collect(),
                start: field(&map, "start")?,
                stagger_secs: field(&map, "stagger_secs")?,
                hold_secs: field(&map, "hold_secs")?,
            },
            "seasonal" => FailureScript::Seasonal {
                facility: fac(&map)?,
                members: list(&map, "members")?.into_iter().map(Asn).collect(),
                start: field(&map, "start")?,
                dip_secs: field(&map, "dip_secs")?,
                days: field(&map, "days")?,
            },
            "delay-surge" => FailureScript::DelaySurge {
                facility: fac(&map)?,
                start: field(&map, "start")?,
                duration: field(&map, "duration")?,
                extra_ms: field(&map, "extra_ms")?,
            },
            other => return Err(format!("unknown kind `{other}`")),
        };

        Ok(ScenarioScript {
            seed: field(&map, "seed")?,
            world,
            collectors: field(&map, "collectors")?,
            max_peers: field(&map, "max_peers")?,
            open_after: field(&map, "open_after")?,
            close_after: field(&map, "close_after")?,
            script,
        })
    }
}

impl FuzzWorld {
    /// ASes peering *remotely* at an exchange whose fabric sits in a
    /// failed facility, with their home metros. The harness asserts the
    /// detector never localizes the outage to any of those distant
    /// metros — the reseller port died, not a building the member
    /// inhabits.
    pub fn remote_victims(&self) -> Vec<(Asn, CityId)> {
        let world = &self.scenario.world;
        let mut fabrics: BTreeSet<kepler_topology::IxpId> = BTreeSet::new();
        for f in self.script.script.epicenters() {
            fabrics.extend(world.colo.ixps_at_facility(f).iter().copied());
        }
        world
            .ases
            .iter()
            .filter(|n| n.remote_ixps.iter().any(|x| fabrics.contains(x)))
            .map(|n| (n.info.asn, n.info.home_city))
            .collect()
    }
}

/// Members of a facility, sorted for determinism; `locatable_only`
/// keeps the 16-bit, community-tagged members whose routes the detector
/// can actually place at the building.
fn facility_members(world: &World, f: FacilityId, locatable_only: bool, cap: usize) -> Vec<Asn> {
    let mut ms: Vec<Asn> = world
        .colo
        .members_of_facility(f)
        .iter()
        .copied()
        .filter(|a| {
            !locatable_only
                || (a.is_16bit() && world.node(*a).map(|n| n.scheme.is_some()).unwrap_or(false))
        })
        .collect();
    ms.sort();
    ms.truncate(cap);
    ms
}

/// Picks the stage facilities for an archetype: the best-instrumented
/// candidates, by count of *locatable* tenants (16-bit ASNs running a
/// community scheme — the members whose deviations the detector sees).
fn stage_for(world: &World, kind: FailureKind, rng: &mut StdRng) -> Vec<FacilityId> {
    let locatable = |f: FacilityId| {
        world
            .colo
            .members_of_facility(f)
            .iter()
            .filter(|a| {
                a.is_16bit() && world.node(**a).map(|n| n.scheme.is_some()).unwrap_or(false)
            })
            .count()
    };
    let mut ranked: Vec<(usize, FacilityId)> =
        world.colo.facilities().iter().map(|f| (locatable(f.id), f.id)).collect();
    ranked.sort_by_key(|(n, f)| (std::cmp::Reverse(*n), f.0));

    match kind {
        FailureKind::Single | FailureKind::Partial | FailureKind::Flapping => {
            // One of the top candidates, not always the same one.
            let pool = ranked.iter().take_while(|(n, _)| *n >= 2).count().clamp(1, 4);
            vec![ranked[rng.gen_range(0..pool)].1]
        }
        // The fused-signal archetypes need depth: presence drains and
        // canary panels only bite at the best-instrumented building.
        FailureKind::SlowDrain | FailureKind::Seasonal | FailureKind::DelaySurge => {
            vec![ranked[0].1]
        }
        FailureKind::Remote => {
            // The fabric-hosting facility exposing the most remote
            // members; fall back to the best-populated facility when the
            // world grew no usable reseller circuit.
            let exposure = |f: FacilityId| {
                let fabrics = world.colo.ixps_at_facility(f);
                if fabrics.is_empty() {
                    return 0;
                }
                world
                    .ases
                    .iter()
                    .filter(|n| n.remote_ixps.iter().any(|x| fabrics.contains(x)))
                    .count()
            };
            let best = ranked
                .iter()
                .map(|&(_, f)| (exposure(f), f))
                .max_by_key(|&(n, f)| (n, std::cmp::Reverse(f.0)))
                .expect("worlds always have facilities");
            vec![if best.0 > 0 { best.1 } else { ranked[0].1 }]
        }
        FailureKind::Cascade => {
            // The metro whose top facilities carry the most locatable
            // tenants; fail its best two or three buildings.
            let cities: BTreeSet<CityId> = world.colo.facilities().iter().map(|f| f.city).collect();
            let mut best: Option<(usize, Vec<FacilityId>)> = None;
            let depth = rng.gen_range(2..=3usize);
            for city in cities {
                let mut facs: Vec<(usize, FacilityId)> = world
                    .colo
                    .facilities_in_city(city)
                    .into_iter()
                    .map(|f| (locatable(f), f))
                    .collect();
                facs.sort_by_key(|(n, f)| (std::cmp::Reverse(*n), f.0));
                if facs.len() < 2 {
                    continue;
                }
                let take = depth.min(facs.len());
                let score: usize = facs[..take].iter().map(|(n, _)| n).sum();
                if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
                    best = Some((score, facs[..take].iter().map(|(_, f)| *f).collect()));
                }
            }
            best.map(|(_, fs)| fs).unwrap_or_else(|| vec![ranked[0].1])
        }
    }
}

/// Generates and builds the world for a fuzzer seed, of `kind` or a
/// random archetype. `stage_for` stages only facilities of the
/// generated world, so the build cannot fail.
pub fn generated(seed: u64, kind: Option<FailureKind>) -> FuzzWorld {
    ScenarioScript::generate_kind(seed, kind).build().expect("staged in its own world")
}

/// Builds a world staged for remote-peering mislocalization.
pub fn remote_peering(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::Remote))
}

/// Builds a world with a flapping facility.
pub fn flapping(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::Flapping))
}

/// Builds a world with a correlated same-metro cascade.
pub fn cascade(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::Cascade))
}

/// Builds a world whose best-instrumented facility drains member by
/// member, below the deviation test's localization quorum.
pub fn slow_drain(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::SlowDrain))
}

/// Builds a world with a pure daily maintenance pattern and no outage
/// (forecast negative control).
pub fn pure_seasonal(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::Seasonal))
}

/// Builds a world with a routing-invisible congestion brownout.
pub fn delay_surge(seed: u64) -> FuzzWorld {
    generated(seed, Some(FailureKind::DelaySurge))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_diverse() {
        let mut kinds = BTreeSet::new();
        for seed in 0..16u64 {
            let a = ScenarioScript::generate(seed);
            let b = ScenarioScript::generate(seed);
            assert_eq!(a, b, "seed {seed} must generate reproducibly");
            kinds.insert(a.script.kind().name());
        }
        assert!(kinds.len() >= 3, "16 seeds should cover several archetypes, got {kinds:?}");
    }

    #[test]
    fn every_archetype_renders_and_round_trips() {
        for kind in [
            FailureKind::Single,
            FailureKind::Partial,
            FailureKind::Flapping,
            FailureKind::Cascade,
            FailureKind::Remote,
            FailureKind::SlowDrain,
            FailureKind::Seasonal,
            FailureKind::DelaySurge,
        ] {
            let script = ScenarioScript::generate_kind(7, Some(kind));
            let text = script.render();
            let back = ScenarioScript::parse(&text)
                .unwrap_or_else(|e| panic!("{kind:?} round-trip: {e}\n{text}"));
            assert_eq!(back, script);
            assert!(!script.script.epicenters().is_empty());
            let (a, b) = script.script.window();
            assert!(a < b && script.sim_end() > b);
        }
    }

    #[test]
    fn parse_rejects_malformed_scripts() {
        assert!(ScenarioScript::parse("").is_err());
        assert!(ScenarioScript::parse("kepler-fuzz-script v1\nseed = 1\n").is_err());
        let good = ScenarioScript::generate(3).render();
        assert!(ScenarioScript::parse(&good.replace("kind = ", "kind = warp-core-")).is_err());
        // Comment lines (artifact annotations) are ignored.
        let annotated = format!("{good}# violation: something\n  # indented note\n");
        assert!(ScenarioScript::parse(&annotated).is_ok());
        // List ids past `u32` are errors, not wrapped (4294967302 would
        // read as 6 and no longer re-render to the input).
        for (kind, key) in
            [(FailureKind::Cascade, "facilities"), (FailureKind::SlowDrain, "members")]
        {
            let text = ScenarioScript::generate_kind(3, Some(kind)).render();
            let line = text.lines().find(|l| l.starts_with(key)).expect("rendered list");
            let wrapped = text.replace(line, &format!("{key} = 4294967302"));
            assert!(ScenarioScript::parse(&wrapped).is_err(), "{kind:?} parsed: {wrapped}");
        }
    }

    #[test]
    fn collector_counts_outside_one_to_65536_are_errors() {
        // `CollectorId` is a `u16` and a peer slot picks its collector
        // modulo the count: 0 would divide by zero, 65,537 would wrap.
        let text = ScenarioScript::generate_kind(3, Some(FailureKind::Single)).render();
        let line = text.lines().find(|l| l.starts_with("collectors")).expect("rendered count");
        for (n, ok) in [(0, false), (65_537, false), (usize::MAX, false), (1, true), (65_536, true)]
        {
            let edited = text.replace(line, &format!("collectors = {n}"));
            let built = ScenarioScript::parse(&edited).and_then(|s| s.build());
            assert_eq!(built.is_ok(), ok, "collectors = {n}: {:?}", built.err());
        }
    }

    #[test]
    fn scripts_staging_a_facility_their_world_lacks_do_not_build() {
        let mut script = ScenarioScript::generate_kind(3, Some(FailureKind::Single));
        let FailureScript::Single { ref mut facility, .. } = script.script else {
            panic!("forced kind");
        };
        *facility = FacilityId(4_000_000);
        assert_eq!(script.build().err().as_deref(), Some("no facility 4000000"));
    }

    #[test]
    fn flapping_scripts_expand_to_one_event_per_cycle() {
        let script = ScenarioScript::generate_kind(11, Some(FailureKind::Flapping));
        let FailureScript::Flapping { cycles, down_secs, up_secs, start, facility } = script.script
        else {
            panic!("forced kind");
        };
        let events = script.script.events();
        assert_eq!(events.len(), cycles as usize);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.start, start + k as u64 * (down_secs + up_secs));
            assert_eq!(e.duration, down_secs);
            assert!(
                matches!(e.kind, EventKind::FacilityOutage { facility: f, .. } if f == facility)
            );
        }
        // The closing hysteresis must outlast the up phase (in 60 s
        // restoration-check bins), or the incident would close mid-flap.
        assert!(script.close_after as u64 > up_secs / 60);
    }

    #[test]
    fn cascades_stay_inside_one_metro() {
        let built = cascade(5);
        let FailureScript::Cascade { ref facilities, .. } = built.script.script else {
            panic!("forced kind");
        };
        assert!(facilities.len() >= 2);
        let world = &built.scenario.world;
        for f in facilities {
            assert_eq!(world.colo.facility(*f).unwrap().city, built.city);
        }
        assert_eq!(built.scenario.output.ground_truth.len(), facilities.len());
    }

    #[test]
    fn slow_drain_withdraws_one_member_per_step_until_a_common_end() {
        let script = ScenarioScript::generate_kind(13, Some(FailureKind::SlowDrain));
        let FailureScript::SlowDrain { facility, ref members, start, stagger_secs, .. } =
            script.script
        else {
            panic!("forced kind");
        };
        assert!(members.len() >= 3, "the staged facility must have members to drain");
        assert!(stagger_secs > 60, "steps must be spaced wider than a monitor bin");
        let events = script.script.events();
        assert_eq!(events.len(), members.len());
        let (_, drain_end) = script.script.window();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.start, start + i as u64 * stagger_secs);
            assert_eq!(e.end(), drain_end, "all withdrawals restore together");
            let EventKind::OperatorWithdraw { ref asns, facility: f } = e.kind else {
                panic!("drain steps are operator withdrawals");
            };
            assert_eq!(f, facility);
            assert_eq!(asns, &vec![members[i]], "exactly one member per step");
        }
    }

    #[test]
    fn seasonal_scripts_repeat_daily_and_delay_surges_stay_off_the_control_plane() {
        let seasonal = ScenarioScript::generate_kind(17, Some(FailureKind::Seasonal));
        let FailureScript::Seasonal { days, dip_secs, start, .. } = seasonal.script else {
            panic!("forced kind");
        };
        let events = seasonal.script.events();
        assert_eq!(events.len(), days as usize);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.start, start + k as u64 * 86_400, "dips recur at the same hour");
            assert_eq!(e.duration, dip_secs);
        }
        assert!(
            start < DAY_ONE + 86_400,
            "the first dip must land inside the forecaster's first season"
        );

        let surge = ScenarioScript::generate_kind(17, Some(FailureKind::DelaySurge));
        let events = surge.script.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::LatencySurge { .. }));
        assert!(!events[0].kind.is_infrastructure_outage());
    }

    #[test]
    fn remote_worlds_expose_reseller_victims() {
        let built = remote_peering(2);
        let victims = built.remote_victims();
        assert!(
            !victims.is_empty(),
            "the remote archetype must stage a fabric with remote members"
        );
        // Victims are *remote*: they peer at the fabric but are not
        // tenants of the failed building.
        let epicenter = built.script.script.epicenters()[0];
        let world = &built.scenario.world;
        for (asn, _) in &victims {
            assert!(
                !world.colo.members_of_facility(epicenter).contains(asn),
                "remote member {asn:?} must not be a tenant of the failed fabric building"
            );
        }
        assert!(!built.scenario.output.records.is_empty());
    }
}
