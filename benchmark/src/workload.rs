//! The workloads: a pinned simulated study fanned out to per-collector MRT
//! archives, its fingerprint, and the reference run every pass is checked
//! against.
//!
//! The study (world, event schedule, simulation) is fixed per workload, so
//! that the cost structure — routes, bins, incidents — is the same on every
//! run. `--seed` draws the collector side: the address of every synthetic
//! peer session and the constant skew with which that session's records
//! arrive. Record and byte counts do not depend on it; the interleaving, the
//! bin a record falls into and every hash-table layout do.

use kepler::bgp::mrt::{FrameView, MrtWriter};
use kepler::bgp::Asn;
use kepler::bgpstream::{
    BgpRecord, CollectorId, MergedStream, MrtSource, PeerId, RecordSource, Timestamp,
};
use kepler::core::events::OutageReport;
use kepler::core::metrics::{evaluate, Evaluation};
use kepler::core::{Kepler, KeplerConfig};
use kepler::glue;
use kepler::netsim::scenario::amsix::AmsIxScenario;
use kepler::netsim::scenario::five_year::{self, FiveYearConfig};
use kepler::netsim::scenario::Scenario;
use kepler::netsim::world::WorldConfig;
use std::collections::HashMap;
use std::io::Cursor;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Seed of the AMS-IX study behind `feed_dense` and `live_fused`.
const AMSIX_STUDY_SEED: u64 = 41;
/// Seed of the longitudinal study behind `five_year` and `five_year_readers`.
const FIVE_YEAR_STUDY_SEED: u64 = 7;
/// Largest arrival skew of one synthetic session, in seconds.
const MAX_SKEW_SECS: u64 = 20;
/// Matching tolerance of the quality oracle, in seconds.
const EVAL_SLACK_SECS: u64 = 1_800;

/// The simulated study a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// The AMS-IX 2015 outage on `WorldConfig::small`.
    AmsIx,
    /// The paper's five-year event mix on a third-size world.
    FiveYear,
    /// `FiveYearConfig::compact`, for `--smoke` and the unit tests.
    FiveYearCompact,
}

/// The detector stack a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `glue::detector_for`: the passive pipeline alone.
    Passive,
    /// `glue::detector_with_lifecycle`: validation and restoration probers.
    Lifecycle,
    /// `glue::detector_with_fusion`: forecast and delay sources, canary panel.
    Fused,
}

/// Record count, byte length and FNV-1a-64 of a workload's archives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub records: u64,
    pub bytes: u64,
    pub fnv: u64,
}

/// What is pinned of a workload's archives. Counts hold for every seed; the
/// hash is that of the default seed, where there is one to pin: netsim's
/// five-year study is not reproducible bit for bit (`Simulation::reconverge`
/// draws its timing jitter in `HashSet` iteration order), although its
/// counts, bins and reports are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    pub records: u64,
    pub bytes: u64,
    pub fnv: Option<u64>,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub study: Study,
    pub stack: Stack,
    /// Synthetic peer sessions per simulated session.
    pub fan_out: usize,
    /// Whether one reader thread polls the view during ingest.
    pub reader: bool,
    /// `--seed` when none is given.
    pub default_seed: u64,
    /// The drift guard's reference.
    pub pinned: Option<Pin>,
    /// `[TP, FP, FN]` of the reference reports at `default_seed`.
    pub pinned_eval: Option<[usize; 3]>,
}

/// The four benchmark workloads.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "feed_dense",
        why: "8 sessions per peer, 6,000 records per committed bin, 322k routes: decode, merge, \
              intern and observe do the work; bin close, probes and serve almost none",
        study: Study::AmsIx,
        stack: Stack::Passive,
        fan_out: 8,
        reader: false,
        default_seed: 41,
        pinned: Some(Pin { records: 393_800, bytes: 40_911_320, fnv: Some(0xD983_A1EC_9677_3F2A) }),
        pinned_eval: None,
    },
    Spec {
        name: "five_year",
        why: "sparse five-year stream, 29 records per commit, full lifecycle stack: bin close, \
              investigate, probes, tracker export, WAL, snapshots and view publish dominate",
        study: Study::FiveYear,
        stack: Stack::Lifecycle,
        fan_out: 3,
        reader: false,
        default_seed: 7,
        pinned: Some(Pin { records: 113_409, bytes: 11_296_866, fnv: None }),
        pinned_eval: Some([22, 5, 0]),
    },
    Spec {
        name: "live_fused",
        why: "fused stack closes every 60 s bin (3,700 of them): forecast rings, canary \
              re-traces, RTT ledger and fusion are the whole run; decode is noise",
        study: Study::AmsIx,
        stack: Stack::Fused,
        fan_out: 1,
        reader: false,
        default_seed: 41,
        pinned: Some(Pin { records: 49_225, bytes: 5_113_915, fnv: Some(0x97D3_68C3_5566_71B3) }),
        pinned_eval: None,
    },
    Spec {
        name: "five_year_readers",
        why: "five_year plus one reader thread polling the view during ingest: shows a \
              publish-side gain paid for with reader-side lock cost, or the reverse",
        study: Study::FiveYear,
        stack: Stack::Lifecycle,
        fan_out: 3,
        reader: true,
        default_seed: 7,
        pinned: Some(Pin { records: 113_409, bytes: 11_296_866, fnv: None }),
        pinned_eval: Some([22, 5, 0]),
    },
];

/// The `--smoke` workload: seconds, not minutes, for a CI job.
pub const SMOKE: Spec = Spec {
    name: "smoke",
    why: "compact five-year study, fan-out 2, one pass: exercises every code path of the \
          benchmark in seconds",
    study: Study::FiveYearCompact,
    stack: Stack::Lifecycle,
    fan_out: 2,
    reader: false,
    default_seed: 7,
    pinned: None,
    pinned_eval: None,
};

impl Study {
    fn build(self) -> Scenario {
        match self {
            Study::AmsIx => AmsIxScenario::new(AMSIX_STUDY_SEED).build().scenario,
            Study::FiveYear => five_year::build(five_year_config()),
            Study::FiveYearCompact => {
                five_year::build(FiveYearConfig::compact(FIVE_YEAR_STUDY_SEED))
            }
        }
    }
}

/// The paper's longitudinal study scaled to a one-second build: the event
/// mix of a 14 s `WorldConfig::small` study on a world 0.35 times the size
/// (the simulation's cost grows with events times world size).
fn five_year_config() -> FiveYearConfig {
    let small = WorldConfig::small(FIVE_YEAR_STUDY_SEED);
    let third = |n: usize| (n * 35).div_ceil(100);
    FiveYearConfig {
        seed: FIVE_YEAR_STUDY_SEED,
        world: WorldConfig {
            n_tier1: third(small.n_tier1),
            n_tier2: third(small.n_tier2),
            n_content: third(small.n_content),
            n_eyeball: third(small.n_eyeball),
            n_stub: third(small.n_stub),
            facilities_per_continent: small.facilities_per_continent.map(third),
            n_ixps: third(small.n_ixps),
            ..small
        },
        facility_outages: 40,
        ixp_outages: 20,
        sandy_cluster: 4,
        depeerings: 100,
        member_leaves: 60,
        operator_events: 8,
        fiber_cuts: 3,
        collector_flaps: 4,
    }
}

/// SplitMix64 finaliser: the benchmark's only source of seeded randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Address and arrival skew of copy `copy` of the `slot`-th simulated peer.
/// Distinct (slot, copy) pairs get distinct addresses for every seed: the
/// slot is XOR-masked, which permutes it, and the copy has its own octet.
fn session(seed: u64, slot: u16, copy: u8) -> (IpAddr, u64) {
    let masked = slot ^ (mix(seed) as u16);
    let addr = Ipv4Addr::new(10, copy, (masked >> 8) as u8, masked as u8);
    let skew = mix(seed ^ mix(u64::from(slot) << 8 | u64::from(copy))) % (MAX_SKEW_SECS + 1);
    (IpAddr::V4(addr), skew)
}

/// Fans every record out to `fan_out` synthetic sessions and encodes one
/// time-sorted MRT archive per collector. Each copy is encoded as it is
/// made, so the fan-out holds bytes, never `fan_out` streams of records.
pub fn fan_out_archives(
    records: &[BgpRecord],
    collectors: usize,
    fan_out: usize,
    seed: u64,
) -> Vec<Arc<[u8]>> {
    /// Encoded frames of one collector and where each lies: (time, start, end).
    #[derive(Default)]
    struct Frames {
        bytes: Vec<u8>,
        index: Vec<(Timestamp, usize, usize)>,
    }
    let fan_out = u8::try_from(fan_out).expect("fan-out fits the address octet");
    let local_ip: IpAddr = Ipv4Addr::new(192, 0, 2, 254).into();
    let mut slots: HashMap<PeerId, u16> = HashMap::new();
    let mut per_collector: Vec<Frames> = (0..collectors).map(|_| Frames::default()).collect();
    for record in records {
        let next = u16::try_from(slots.len()).expect("fewer than 65,536 simulated peers");
        let slot = *slots.entry(record.peer).or_insert(next);
        let frames = &mut per_collector[usize::from(record.collector.0)];
        for copy in 0..fan_out {
            let (addr, skew) = session(seed, slot, copy);
            let copied = BgpRecord {
                time: record.time + skew,
                peer: PeerId { asn: record.peer.asn, addr },
                ..record.clone()
            };
            let start = frames.bytes.len();
            MrtWriter::new(&mut frames.bytes)
                .write_record(&copied.to_mrt(Asn(64_700), local_ip))
                .expect("simulated records encode and a Vec never fails to write");
            frames.index.push((copied.time, start, frames.bytes.len()));
        }
    }
    per_collector
        .into_iter()
        .map(|mut frames| {
            // Stable: a session's records keep their order, as
            // `RecordSource` and BGP semantics both require.
            frames.index.sort_by_key(|(time, ..)| *time);
            let mut archive = Vec::with_capacity(frames.bytes.len());
            for (_, start, end) in frames.index {
                archive.extend_from_slice(&frames.bytes[start..end]);
            }
            archive.into()
        })
        .collect()
}

/// FNV-1a-64 over the archives in collector order, with their frame count.
pub fn fingerprint(archives: &[Arc<[u8]>]) -> Fingerprint {
    let mut fnv = 0xCBF2_9CE4_8422_2325u64;
    let (mut records, mut bytes) = (0u64, 0u64);
    for archive in archives {
        for &b in archive.iter() {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        bytes += archive.len() as u64;
        let mut rest = &archive[..];
        while let Ok(Some((_, used))) = FrameView::parse(rest) {
            records += 1;
            rest = &rest[used..];
        }
    }
    Fingerprint { records, bytes, fnv }
}

/// The product's read path over the archives: one `MrtSource` per collector
/// behind a `MergedStream`.
pub fn merged_stream(archives: &[Arc<[u8]>]) -> MergedStream {
    let sources = archives
        .iter()
        .enumerate()
        .map(|(i, archive)| {
            let collector = CollectorId(u16::try_from(i).expect("collector ids are u16"));
            Box::new(MrtSource::new(Cursor::new(Arc::clone(archive)), collector))
                as Box<dyn RecordSource>
        })
        .collect();
    MergedStream::new(sources)
}

/// What `Kepler::run` over the merged records produces, plus the clock the
/// finished store must carry.
pub struct Reference {
    pub reports: Vec<OutageReport>,
    pub last_bin_end: Timestamp,
    pub bins_closed: u64,
}

/// A workload built for one seed: everything a pass needs, made before any
/// clock starts.
pub struct Built {
    pub spec: Spec,
    pub seed: u64,
    pub scenario: Scenario,
    pub config: KeplerConfig,
    pub archives: Vec<Arc<[u8]>>,
    pub fingerprint: Fingerprint,
    pub reference: Reference,
}

impl Built {
    /// World build, fan-out, MRT encode and reference run — `setup_s`.
    pub fn new(spec: Spec, seed: u64) -> Built {
        let scenario = spec.study.build();
        let archives = fan_out_archives(
            &scenario.output.records,
            scenario.output.collector_names.len(),
            spec.fan_out,
            seed,
        );
        let fingerprint = fingerprint(&archives);
        let mut built = Built {
            spec,
            seed,
            scenario,
            config: KeplerConfig::default(),
            archives,
            fingerprint,
            reference: Reference { reports: Vec::new(), last_bin_end: 0, bins_closed: 0 },
        };
        // `Kepler::run`, spelled out to keep the clock it ends on.
        let mut detector = built.detector();
        for record in merged_stream(&built.archives) {
            detector.process_record_owned(record);
        }
        built.reference = Reference {
            reports: detector.finalize(),
            last_bin_end: detector.last_bin_end(),
            bins_closed: detector.bins_closed(),
        };
        built
    }

    /// A fresh detector of the workload's stack.
    pub fn detector(&self) -> Kepler {
        let config = self.config.clone();
        match self.spec.stack {
            Stack::Passive => glue::detector_for(&self.scenario, config),
            Stack::Lifecycle => glue::detector_with_lifecycle(&self.scenario, config),
            Stack::Fused => {
                glue::detector_with_fusion(&self.scenario, config, glue::FusionOptions::default())
            }
        }
    }

    /// Compares the archives with the pin: record and byte counts on every
    /// seed, the hash at the default seed.
    pub fn drift(&self) -> Result<(), String> {
        let Some(pinned) = self.spec.pinned else { return Ok(()) };
        let got = self.fingerprint;
        let counts_hold = (got.records, got.bytes) == (pinned.records, pinned.bytes);
        let hash_holds =
            self.seed != self.spec.default_seed || pinned.fnv.is_none_or(|fnv| fnv == got.fnv);
        if counts_hold && hash_holds {
            Ok(())
        } else {
            Err(format!(
                "workload drifted: {} at seed {} is {got:x?}, pinned {pinned:x?}",
                self.spec.name, self.seed
            ))
        }
    }

    /// TP/FP/FN of the reference reports against the simulator's truth.
    pub fn evaluation(&self) -> Evaluation {
        let truth = glue::truth_outages(&self.scenario, &self.config);
        evaluate(&self.reference.reports, &truth, EVAL_SLACK_SECS)
    }

    /// Checks the evaluation against the pin, at the default seed.
    pub fn quality_drift(&self, eval: &Evaluation) -> Result<(), String> {
        let got = [eval.true_positives, eval.false_positives, eval.false_negatives];
        match self.spec.pinned_eval {
            Some(pinned) if self.seed == self.spec.default_seed && got != pinned => Err(format!(
                "detection quality drifted: {} TP/FP/FN {got:?}, pinned {pinned:?}",
                self.spec.name
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_is_deterministic_and_time_sorted() {
        let scenario = Study::FiveYearCompact.build();
        let collectors = scenario.output.collector_names.len();
        let archives = |seed| fan_out_archives(&scenario.output.records, collectors, 3, seed);
        let (a, b, other) = (archives(5), archives(5), archives(6));
        assert_eq!(fingerprint(&a), fingerprint(&b), "same seed, same archives");
        let (fa, fo) = (fingerprint(&a), fingerprint(&other));
        assert_eq!((fa.records, fa.bytes), (fo.records, fo.bytes), "counts ignore the seed");
        assert_ne!(fa.fnv, fo.fnv, "another seed, other archives");
        for (i, archive) in a.iter().enumerate() {
            let mut source = MrtSource::new(&archive[..], CollectorId(i as u16));
            let mut last = 0;
            while let Some(record) = source.next_record() {
                assert!(record.time >= last, "archive {i} runs backwards at {}", record.time);
                last = record.time;
            }
            assert!(source.take_error().is_none());
        }
    }

    #[test]
    fn fan_out_multiplies_records_and_sessions() {
        let scenario = Study::FiveYearCompact.build();
        let collectors = scenario.output.collector_names.len();
        let base = &scenario.output.records;
        let sessions = |records: &mut dyn Iterator<Item = BgpRecord>| {
            records.map(|r| (r.collector, r.peer)).collect::<std::collections::HashSet<_>>().len()
        };
        let fanned = fan_out_archives(base, collectors, 3, 9);
        assert_eq!(fingerprint(&fanned).records, 3 * base.len() as u64);
        assert_eq!(
            sessions(&mut merged_stream(&fanned)),
            3 * sessions(&mut base.iter().cloned()),
            "every copy is a session of its own"
        );
    }

    #[test]
    fn sessions_never_collide() {
        for seed in [0, 7, 41, u64::MAX] {
            let mut seen = std::collections::HashSet::new();
            for slot in 0..64 {
                for copy in 0..16 {
                    let (addr, skew) = session(seed, slot, copy);
                    assert!(seen.insert(addr), "seed {seed}: {addr} twice");
                    assert!(skew <= MAX_SKEW_SECS);
                }
            }
        }
    }

    #[test]
    fn drift_guard_pins_counts_always_and_the_hash_at_the_default_seed() {
        let mut built = Built::new(SMOKE, SMOKE.default_seed);
        assert!(built.drift().is_ok(), "nothing pinned, nothing to drift from");
        let real = built.fingerprint;
        let pin = Pin { records: real.records, bytes: real.bytes, fnv: Some(!real.fnv) };
        built.spec.pinned = Some(pin);
        assert!(built.drift().unwrap_err().contains("workload drifted"));
        built.spec.pinned = Some(Pin { fnv: None, ..pin });
        assert!(built.drift().is_ok(), "a study that is not reproducible pins no hash");
        built.spec.pinned = Some(pin);
        built.seed += 1;
        assert!(built.drift().is_ok(), "the hash is pinned at the default seed only");
        built.spec.pinned = Some(Pin { records: real.records + 1, ..pin });
        assert!(built.drift().is_err(), "counts are pinned on every seed");
    }
}
