//! Shared plumbing for the figure-reproduction harness (`repro` binary),
//! the Criterion micro-benchmarks and the CI perf gate ([`gate`]).
//!
//! Three binaries live here:
//!
//! * `repro` — one subcommand per artifact of the paper's evaluation,
//!   plus `--bench`, which runs the 1M-record pipeline and the probe
//!   workload and writes `BENCH_monitor.json` (the perf-trajectory
//!   artifact tracked across PRs);
//! * `profile_stages` — cumulative stage-cost breakdown (construct →
//!   explode → decode+intern → monitor, plus probe validation) guiding
//!   optimization work;
//! * `bench_gate` — compares a fresh `BENCH_monitor.json` against the
//!   committed baseline and fails CI on regression ([`gate`]).
//!
//! # Invariants
//!
//! * `benches/pipeline_1m.rs` and `repro --bench` build their workload
//!   from the same helpers ([`pipeline_record`] /
//!   [`pipeline_dictionary`] / [`probe_fixture`]), so they always
//!   measure the same stream.
//! * The gate never fails on a metric present in only one document —
//!   benchmarks may be added or retired across PRs
//!   ([`gate::THROUGHPUT_KEYS`]).

#![forbid(unsafe_code)]

pub mod gate;

use kepler_bgp::{AsPath, Asn, BgpUpdate, Community, PathAttributes, Prefix};
use kepler_bgpstream::{BgpRecord, CollectorId, PeerId, RecordPayload};

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The q-quantile (0..=1) of a sorted f64 slice, with linear
/// interpolation between order statistics (the R-7 / NumPy default).
/// Nearest-rank rounding misreports tail quantiles on small samples —
/// e.g. p99 of 10 samples rounds straight to the maximum.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// An ASCII sparkline for quick visual inspection of a series. Empty
/// input yields an empty string; NaN values render as spaces instead of
/// panicking on an out-of-range tick index.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite = values.iter().copied().filter(|v| v.is_finite());
    let max = finite.clone().fold(f64::NEG_INFINITY, f64::max);
    let min = finite.fold(f64::INFINITY, f64::min);
    if !min.is_finite() || !max.is_finite() {
        // Empty or all-NaN input: no scale to draw against.
        return values.iter().map(|_| ' ').collect();
    }
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            if v.is_finite() {
                TICKS[((((v - min) / span) * 7.0).round() as usize).min(7)]
            } else {
                ' '
            }
        })
        .collect()
}

/// Time compression applied to [`sample_record`]'s one-record-per-second
/// clock by [`pipeline_record`]: 50:1 ≈ 3000 events per 60 s bin, the
/// realistic collector-feed cadence the pipeline benchmarks model.
///
/// Both `benches/pipeline_1m.rs` and `repro --bench` (the
/// `BENCH_monitor.json` perf-trajectory artifact) build their workload
/// from these helpers so the two always measure the same stream.
pub const PIPELINE_TIME_COMPRESSION: u64 = 50;

/// One record of the synthetic pipeline workload.
pub fn pipeline_record(i: u64) -> BgpRecord {
    let mut rec = sample_record(i);
    rec.time = 1_400_000_000 + i / PIPELINE_TIME_COMPRESSION;
    rec
}

/// Dictionary covering the community space [`sample_record`] emits
/// (13030:51000..51100), spread over ten facilities.
pub fn pipeline_dictionary() -> kepler_docmine::CommunityDictionary {
    use kepler_docmine::LocationTag;
    use kepler_topology::FacilityId;
    let mut d = kepler_docmine::CommunityDictionary::new();
    for k in 0..100u16 {
        d.insert(
            Community::new(13030, 51_000 + k),
            LocationTag::Facility(FacilityId(k as u32 % 10)),
        );
    }
    d
}

/// The probe-stage benchmark fixture: a tiny world with one facility
/// outage, the glue-layer simulated trace backend, and a two-candidate
/// validation request against the outage window. Shared by
/// `profile_stages` (ns/request row) and `repro --bench`
/// (`probe_batched_verdicts_per_sec` in `BENCH_monitor.json`) so both
/// measure the same workload: schedule → simulate → analyze.
pub fn probe_fixture(
    seed: u64,
) -> (
    kepler::probe::ProbeEngine<kepler::probe::SyncAdapter<kepler::glue::SimTraceBackend>>,
    kepler::probe::ProbeRequest,
) {
    use kepler::probe::{ProbeEngine, ProbeEngineConfig};

    let (world, backend, request) = probe_fixture_parts(seed);
    let engine = ProbeEngine::new(
        backend,
        kepler::glue::vantage_registry_for(&world),
        world.detector_colomap(),
        ProbeEngineConfig::default(),
    );
    (engine, request)
}

/// Like [`probe_fixture`] but with the netsim fault-injection layer at
/// 30% probe loss wrapped around the backend — the
/// `probe_faulty_verdicts_per_sec` row: verdict throughput while the
/// lifecycle absorbs drops, retries and timeouts.
pub fn probe_faulty_fixture(
    seed: u64,
) -> (
    kepler::probe::ProbeEngine<kepler::netsim::FaultyBackend<kepler::glue::SimTraceBackend>>,
    kepler::probe::ProbeRequest,
) {
    use kepler::netsim::{FaultConfig, FaultyBackend};
    use kepler::probe::{ProbeEngine, ProbeEngineConfig};

    let (world, backend, request) = probe_fixture_parts(seed);
    let fault = FaultConfig { drop_rate: 0.30, ..FaultConfig::default() };
    let engine = ProbeEngine::with_async(
        FaultyBackend::new(backend, fault),
        kepler::glue::vantage_registry_for(&world),
        world.detector_colomap(),
        ProbeEngineConfig::default(),
    );
    (engine, request)
}

/// The shared world/backend/request triple behind both probe fixtures.
fn probe_fixture_parts(
    seed: u64,
) -> (kepler::netsim::World, kepler::glue::SimTraceBackend, kepler::probe::ProbeRequest) {
    use kepler::glue::SimTraceBackend;
    use kepler::netsim::events::{EventKind, ScheduledEvent};
    use kepler::netsim::world::{World, WorldConfig};
    use kepler::probe::ProbeRequest;
    use kepler_docmine::LocationTag;

    let world = World::generate(WorldConfig::tiny(seed));
    let mut facs: Vec<_> = world
        .colo
        .facilities()
        .iter()
        .map(|f| (world.colo.members_of_facility(f.id).len(), f.id, f.city))
        .collect();
    facs.sort_by_key(|(n, f, _)| (std::cmp::Reverse(*n), f.0));
    let (_, down, city) = facs[0];
    let twin = facs[1].1;
    let start = 1_400_000_000u64;
    let timeline = vec![ScheduledEvent {
        start,
        duration: 7_200,
        kind: EventKind::FacilityOutage { facility: down, affected_fraction: 1.0 },
    }];
    let backend =
        SimTraceBackend::new(std::sync::Arc::new(world.clone()), &timeline, seed ^ 0x9B0E);
    let affected_far: Vec<_> =
        world.colo.members_of_facility(down).iter().copied().take(10).collect();
    let request = ProbeRequest {
        pop: LocationTag::City(city),
        bin_start: start + 600,
        candidates: vec![down, twin],
        affected_far,
        affected_near: Vec::new(),
    };
    (world, backend, request)
}

/// The first `n` pipeline records as an MRT byte archive
/// (`BGP4MP_MESSAGE_AS4` frames), for the zero-copy decode benchmarks.
/// MRT has no collector-id field; walkers reassign
/// `CollectorId((frame_index % 4) as u16)` in frame order, which matches
/// [`pipeline_record`]'s distribution exactly, so the interning workload
/// is the same as the in-memory paths'.
pub fn pipeline_mrt_bytes(n: u64) -> Vec<u8> {
    use kepler_bgp::mrt::MrtWriter;
    let mut buf = Vec::new();
    let mut w = MrtWriter::new(&mut buf);
    for i in 0..n {
        let mrt = pipeline_record(i).to_mrt(Asn(64_700), "192.0.2.254".parse().unwrap());
        w.write_record(&mrt).expect("encode pipeline record");
    }
    buf
}

/// Builds a synthetic announcement record for micro-benchmarks.
pub fn sample_record(i: u64) -> BgpRecord {
    let attrs = PathAttributes::with_path_and_communities(
        AsPath::from_sequence([3356, 13030, 20940 + (i % 7) as u32]),
        vec![
            Community::new(13030, 51_000 + (i % 100) as u16),
            Community::new(3356, 2000 + (i % 50) as u16),
        ],
    );
    BgpRecord {
        time: 1_400_000_000 + i,
        collector: CollectorId((i % 4) as u16),
        peer: PeerId { asn: Asn(3356), addr: "10.0.0.1".parse().unwrap() },
        payload: RecordPayload::Update(BgpUpdate::announce(
            vec![Prefix::v4(20, (i % 200) as u8, 0, 0, 16)],
            attrs,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantiles_interpolate_small_samples() {
        // p99 of 10 samples must not collapse to the max (nearest-rank did).
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p99 = quantile(&v, 0.99);
        assert!(p99 < 10.0 && p99 > 9.9, "interpolated p99, got {p99}");
        // Median of an even-length sample interpolates between the middles.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(quantile(&v, 1.5), 10.0);
        assert_eq!(quantile(&v, -0.5), 1.0);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn sparkline_degenerate_inputs() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "  ");
        let mixed = sparkline(&[0.0, f64::NAN, 1.0]);
        assert_eq!(mixed.chars().count(), 3);
        assert_eq!(mixed.chars().nth(1), Some(' '));
        // Constant series stays on the bottom tick rather than panicking.
        assert_eq!(sparkline(&[3.0, 3.0]), "▁▁");
        assert_eq!(sparkline(&[f64::INFINITY, 0.0]).chars().next(), Some(' '));
    }

    #[test]
    fn sample_records_vary() {
        assert_ne!(sample_record(1), sample_record(2));
    }
}
