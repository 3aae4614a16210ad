//! Passive RTT telemetry over in-progress probe campaigns
//! (Fontugne et al., arXiv:1605.04784).
//!
//! Every measurement pair the engine drives — validation or restoration
//! — already contains two full hop sequences. Instead of discarding them
//! after one verdict, the engine can feed them into an [`RttLedger`]:
//! per-(vantage, hop-pair) *differential* RTT baselines built from
//! pre-event traces, against which live traces are compared. The hop RTT
//! recorded on a [`TraceHop`](crate::trace::TraceHop) is cumulative along
//! the path, so the *step* `rtt(hop_k) - rtt(hop_{k-1})` isolates the
//! segment entering `hop_k`; a step far above its shared baseline is a
//! delay anomaly attributed to `hop_k`'s owning infrastructure — the
//! facility or IXP [`OutageScope`] the detector localizes outages to, so
//! a delay signal needs no translation on its way into the tracker.
//!
//! Baselines are min-filtered (the minimum observed step approximates
//! propagation delay; queueing noise only ever adds), matching the
//! reference method's use of differential medians over shared segments.
//! The ledger is deliberately dumb: it records anomalies and lets the
//! detector side (`kepler-core`'s delay signal source) decide how many
//! distinct anomalous pairs constitute evidence.
//!
//! `observe_*` borrow the trace and keep nothing of it: a panel re-traced
//! every bin feeds one scratch [`Trace`] filled by
//! [`TraceBackend::trace_into`](crate::engine::TraceBackend::trace_into).

use crate::trace::{IfaceOwner, Trace};
use kepler_bgp::fx::FxHashMap;
use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_topology::OutageScope;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Key of one shared hop-pair baseline: the vantage AS plus the owner
/// identities of two consecutive responding hops. [`PAIR_START`] stands
/// in for "the vantage itself" before the first responding hop.
pub type PairKey = (u32, u64, u64);

/// Previous-owner sentinel for the first responding hop of a trace.
pub const PAIR_START: u64 = u64::MAX;

fn owner_key(owner: IfaceOwner) -> u64 {
    match owner {
        IfaceOwner::FacilityPort { asn, facility } => {
            ((asn.0 as u64) << 33) | ((facility.0 as u64) << 1)
        }
        IfaceOwner::IxpLan { asn, ixp } => ((asn.0 as u64) << 33) | ((ixp.0 as u64) << 1) | 1,
    }
}

/// One recorded delay anomaly: a live hop-pair step exceeded its shared
/// baseline by more than the ledger threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttAnomaly {
    /// When the live trace was measured.
    pub t: Timestamp,
    /// The infrastructure the slow segment enters: the facility or IXP
    /// owning the hop whose RTT step exceeded its shared baseline (never a
    /// city).
    pub site: OutageScope,
    /// Milliseconds above the baseline step.
    pub excess_ms: f64,
    /// The measurement key (for distinct-pair counting downstream).
    pub key: PairKey,
}

/// Differential-RTT baselines over shared (vantage, hop-pair) segments,
/// with anomaly recording against them.
#[derive(Debug)]
pub struct RttLedger {
    threshold_ms: f64,
    /// Min-filtered baseline step per measurement key. Hashed: looked up
    /// per hop, never iterated, so no output depends on its order.
    baselines: FxHashMap<PairKey, f64>,
    anomalies: Vec<RttAnomaly>,
    baseline_obs: usize,
    current_obs: usize,
}

impl RttLedger {
    /// A ledger flagging steps more than `threshold_ms` above baseline.
    pub fn new(threshold_ms: f64) -> Self {
        RttLedger {
            threshold_ms,
            baselines: FxHashMap::default(),
            anomalies: Vec::new(),
            baseline_obs: 0,
            current_obs: 0,
        }
    }

    /// Feeds a pre-event (baseline) trace: each segment step lowers its
    /// key's min-filtered baseline.
    pub fn observe_baseline(&mut self, vantage: Asn, trace: &Trace) {
        self.baseline_obs += 1;
        for (key, step, _) in steps(vantage, trace) {
            self.baselines.entry(key).and_modify(|b| *b = b.min(step)).or_insert(step);
        }
    }

    /// Feeds a live trace measured at `t`: segments whose step exceeds
    /// their shared baseline by the threshold are recorded as anomalies.
    /// Segments without a baseline contribute nothing (no verdict
    /// without baseline, same invariant as the probe engine).
    pub fn observe_current(&mut self, vantage: Asn, t: Timestamp, trace: &Trace) {
        self.current_obs += 1;
        for (key, step, owner) in steps(vantage, trace) {
            if let Some(&base) = self.baselines.get(&key) {
                let excess = step - base;
                if excess > self.threshold_ms {
                    self.anomalies.push(RttAnomaly {
                        t,
                        site: owner.site(),
                        excess_ms: excess,
                        key,
                    });
                }
            }
        }
    }

    /// Takes every recorded anomaly, leaving the ledger's baselines
    /// intact (the detector drains once per bin).
    pub fn drain_anomalies(&mut self) -> Vec<RttAnomaly> {
        std::mem::take(&mut self.anomalies)
    }

    /// Distinct (vantage, hop-pair) keys with a baseline.
    pub fn baseline_pairs(&self) -> usize {
        self.baselines.len()
    }

    /// (baseline traces fed, live traces fed).
    pub fn observations(&self) -> (usize, usize) {
        (self.baseline_obs, self.current_obs)
    }
}

/// Walks a trace's per-segment steps — (pair key, step ms, owner of the
/// entered hop) — hop by hop, without materialising them. Non-monotone
/// cumulative RTTs (possible during reconvergence) yield clamped zero
/// steps rather than negative baselines.
fn steps(vantage: Asn, trace: &Trace) -> impl Iterator<Item = (PairKey, f64, IfaceOwner)> + '_ {
    let mut prev_key = PAIR_START;
    let mut prev_rtt = 0.0f64;
    trace.hops.iter().map(move |hop| {
        let entered = owner_key(hop.owner);
        let step = ((vantage.0, prev_key, entered), (hop.rtt_ms - prev_rtt).max(0.0), hop.owner);
        prev_key = entered;
        prev_rtt = hop.rtt_ms;
        step
    })
}

/// The ledger handle shared between the probe engine (writer) and the
/// delay signal source (reader): campaigns run inside `Prober::validate`
/// while the detector polls at bin close, so the cell is a mutex, not a
/// borrow.
pub type SharedRttLedger = Arc<Mutex<RttLedger>>;

/// A fresh shared ledger.
pub fn shared_ledger(threshold_ms: f64) -> SharedRttLedger {
    Arc::new(Mutex::new(RttLedger::new(threshold_ms)))
}

/// Locks a shared ledger, through poisoning: `observe_*` only lowers a
/// min-filtered baseline or appends to a `Vec`, so the ledger is valid
/// after any partial update.
pub fn lock_ledger(ledger: &SharedRttLedger) -> MutexGuard<'_, RttLedger> {
    ledger.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceHop;
    use kepler_topology::{FacilityId, IxpId};
    use std::net::{IpAddr, Ipv4Addr};

    fn hop(oct: u8, owner: IfaceOwner, rtt: f64) -> TraceHop {
        TraceHop { addr: IpAddr::V4(Ipv4Addr::new(11, 0, 0, oct)), owner, rtt_ms: rtt }
    }

    fn fac_hop(oct: u8, fac: u32, rtt: f64) -> TraceHop {
        hop(oct, IfaceOwner::FacilityPort { asn: Asn(oct as u32), facility: FacilityId(fac) }, rtt)
    }

    fn path(rtts: &[(u8, u32, f64)]) -> Trace {
        Trace { hops: rtts.iter().map(|&(o, f, r)| fac_hop(o, f, r)).collect(), reached: true }
    }

    #[test]
    fn surge_on_shared_segment_is_attributed_to_the_entered_hop() {
        let mut ledger = RttLedger::new(10.0);
        // Baseline: vantage → hop1 (5ms) → hop2 (+5ms) .
        ledger.observe_baseline(Asn(900), &path(&[(1, 7, 5.0), (2, 8, 10.0)]));
        assert_eq!(ledger.baseline_pairs(), 2);
        // Live: the second segment surged by 40ms.
        ledger.observe_current(Asn(900), 1_000, &path(&[(1, 7, 5.0), (2, 8, 50.0)]));
        let anomalies = ledger.drain_anomalies();
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].site, OutageScope::Facility(FacilityId(8)));
        assert!((anomalies[0].excess_ms - 40.0).abs() < 1e-9);
        assert_eq!(anomalies[0].t, 1_000);
        // Drain empties the buffer but keeps baselines.
        assert!(ledger.drain_anomalies().is_empty());
        assert_eq!(ledger.baseline_pairs(), 2);
    }

    #[test]
    fn baselines_are_min_filtered() {
        let mut ledger = RttLedger::new(10.0);
        // A noisy baseline observation followed by a clean one: the min
        // wins, so a live step matching the noisy one now stands out.
        ledger.observe_baseline(Asn(900), &path(&[(1, 7, 30.0)]));
        ledger.observe_baseline(Asn(900), &path(&[(1, 7, 5.0)]));
        ledger.observe_current(Asn(900), 500, &path(&[(1, 7, 30.0)]));
        let anomalies = ledger.drain_anomalies();
        assert_eq!(anomalies.len(), 1);
        assert!((anomalies[0].excess_ms - 25.0).abs() < 1e-9);
    }

    #[test]
    fn no_baseline_no_anomaly() {
        let mut ledger = RttLedger::new(10.0);
        // A wildly slow live trace over segments never baselined proves
        // nothing.
        ledger.observe_current(Asn(900), 500, &path(&[(1, 7, 500.0)]));
        assert!(ledger.drain_anomalies().is_empty());
        // Different vantage = different key: no cross-vantage bleed.
        ledger.observe_baseline(Asn(900), &path(&[(1, 7, 5.0)]));
        ledger.observe_current(Asn(901), 600, &path(&[(1, 7, 500.0)]));
        assert!(ledger.drain_anomalies().is_empty());
    }

    #[test]
    fn steps_clamp_non_monotone_rtts() {
        let mut ledger = RttLedger::new(10.0);
        // Cumulative RTT dipping mid-path (reconvergence artifact) clamps
        // to a zero step instead of a negative baseline.
        ledger.observe_baseline(Asn(900), &path(&[(1, 7, 20.0), (2, 8, 5.0)]));
        ledger.observe_current(Asn(900), 500, &path(&[(1, 7, 20.0), (2, 8, 26.0)]));
        let anomalies = ledger.drain_anomalies();
        // Segment into hop 8: baseline 0 (clamped), live step 6 < 10.
        assert!(anomalies.is_empty(), "{anomalies:?}");
        ledger.observe_current(Asn(900), 600, &path(&[(1, 7, 20.0), (2, 8, 35.0)]));
        assert_eq!(ledger.drain_anomalies().len(), 1);
    }

    #[test]
    fn ixp_lan_hops_attribute_to_the_exchange() {
        let mut ledger = RttLedger::new(10.0);
        let lan = |rtt| Trace {
            hops: vec![
                fac_hop(1, 7, 5.0),
                hop(2, IfaceOwner::IxpLan { asn: Asn(30), ixp: IxpId(4) }, rtt),
            ],
            reached: true,
        };
        ledger.observe_baseline(Asn(900), &lan(8.0));
        ledger.observe_current(Asn(900), 700, &lan(60.0));
        let anomalies = ledger.drain_anomalies();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].site, OutageScope::Ixp(IxpId(4)));
    }

    // ---- the hashed ledger against an ordered reference model ----

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The ledger as it was before the baselines were hashed, written
    /// straight-line: an ordered map, steps materialised per trace.
    #[derive(Default)]
    struct ModelLedger {
        baselines: BTreeMap<PairKey, f64>,
        anomalies: Vec<RttAnomaly>,
        obs: (usize, usize),
    }

    impl ModelLedger {
        fn steps(vantage: Asn, trace: &Trace) -> Vec<(PairKey, f64, IfaceOwner)> {
            let mut out = Vec::new();
            let (mut prev_key, mut prev_rtt) = (PAIR_START, 0.0f64);
            for hop in &trace.hops {
                let entered = owner_key(hop.owner);
                let step = (hop.rtt_ms - prev_rtt).max(0.0);
                out.push(((vantage.0, prev_key, entered), step, hop.owner));
                (prev_key, prev_rtt) = (entered, hop.rtt_ms);
            }
            out
        }

        fn observe_baseline(&mut self, vantage: Asn, trace: &Trace) {
            self.obs.0 += 1;
            for (key, step, _) in Self::steps(vantage, trace) {
                let b = self.baselines.entry(key).or_insert(step);
                *b = b.min(step);
            }
        }

        fn observe_current(&mut self, threshold: f64, vantage: Asn, t: Timestamp, trace: &Trace) {
            self.obs.1 += 1;
            for (key, step, owner) in Self::steps(vantage, trace) {
                let Some(base) = self.baselines.get(&key) else { continue };
                if step - base > threshold {
                    let (site, excess_ms) = (owner.site(), step - base);
                    self.anomalies.push(RttAnomaly { t, site, excess_ms, key });
                }
            }
        }
    }

    /// (owner pick, cumulative RTT) per hop: six owners over three
    /// buildings and an exchange, so segments are shared across traces
    /// and vantages; RTTs are free to dip (clamped steps).
    fn arb_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u8..6, 0.0f64..120.0), 0..5).prop_map(|hops| Trace {
            hops: hops
                .into_iter()
                .map(|(pick, rtt)| match pick {
                    5 => hop(5, IfaceOwner::IxpLan { asn: Asn(30), ixp: IxpId(4) }, rtt),
                    _ => fac_hop(pick, 7 + (pick as u32) % 3, rtt),
                })
                .collect(),
            reached: true,
        })
    }

    proptest! {
        /// Fed the same baseline/current traces, the hashed ledger and
        /// the ordered model drain the same anomalies — values, bits and
        /// order — and count the same pairs and observations.
        #[test]
        fn hashed_ledger_matches_the_ordered_model(
            ops in prop::collection::vec((0u8..5, 0u32..3, arb_trace()), 1..60),
        ) {
            let mut ledger = RttLedger::new(10.0);
            let mut model = ModelLedger::default();
            let bits = |a: &[RttAnomaly]| a.iter().map(|a| a.excess_ms.to_bits()).collect::<Vec<_>>();
            for (i, (op, vantage, trace)) in ops.iter().enumerate() {
                let (vantage, t) = (Asn(900 + vantage), 60 * i as u64);
                match op {
                    0 | 1 => {
                        ledger.observe_baseline(vantage, trace);
                        model.observe_baseline(vantage, trace);
                    }
                    2 | 3 => {
                        ledger.observe_current(vantage, t, trace);
                        model.observe_current(10.0, vantage, t, trace);
                    }
                    _ => {
                        let (got, want) = (ledger.drain_anomalies(), std::mem::take(&mut model.anomalies));
                        prop_assert_eq!(bits(&got), bits(&want));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(ledger.baseline_pairs(), model.baselines.len());
                prop_assert_eq!(ledger.observations(), model.obs);
            }
            let (got, want) = (ledger.drain_anomalies(), model.anomalies);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got, want);
        }
    }
}
