//! The rate-limited probe scheduler.
//!
//! Targeted campaigns must not hammer a facility that is likely having
//! its worst day: every candidate facility gets a token bucket, and a
//! campaign only fires as many probes as the bucket grants. Buckets are
//! keyed on the raw dense facility id and refill from explicit
//! timestamps, so scheduling is fully deterministic and replayable —
//! there is no wall clock anywhere on the probe path.

use kepler_bgp::Asn;
use kepler_bgpstream::Timestamp;
use kepler_topology::FacilityId;
use std::collections::HashMap;

/// Per-facility probe budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: the largest burst one campaign may send.
    pub burst: u32,
    /// Sustained refill rate, probes per second.
    pub per_sec: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        RateLimit { burst: 64, per_sec: 8.0 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: Timestamp,
}

/// Token-bucket admission per target facility.
#[derive(Debug, Default)]
pub struct ProbeScheduler {
    limit: RateLimit,
    buckets: HashMap<u32, Bucket>,
}

impl ProbeScheduler {
    /// A scheduler enforcing `limit` per facility.
    pub fn new(limit: RateLimit) -> Self {
        ProbeScheduler { limit, buckets: HashMap::new() }
    }

    /// The limit in force.
    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    fn refill(limit: RateLimit, b: &mut Bucket, now: Timestamp) {
        if now > b.last {
            // Saturating: a multi-year (or corrupt, near-u64::MAX) jump
            // must cap at burst, never overflow or go non-finite.
            let dt = now.saturating_sub(b.last) as f64;
            b.tokens = (b.tokens + dt * limit.per_sec).min(limit.burst as f64);
            if !b.tokens.is_finite() {
                b.tokens = limit.burst as f64;
            }
            b.last = now;
        }
    }

    /// Admits up to `want` probes toward `fac` at `now`, returning how
    /// many may actually be sent. Time moving backwards is clamped (the
    /// bucket neither refills nor leaks).
    pub fn admit(&mut self, fac: FacilityId, now: Timestamp, want: u32) -> u32 {
        self.admit_key(fac.0, now, want)
    }

    /// Keyed admission for non-facility epicenters (IXP fabrics, whole
    /// cities): same token-bucket discipline, caller-chosen key space.
    pub fn admit_key(&mut self, key: u32, now: Timestamp, want: u32) -> u32 {
        let limit = self.limit;
        let b = self.buckets.entry(key).or_insert(Bucket { tokens: limit.burst as f64, last: now });
        Self::refill(limit, b, now);
        let grant = want.min(b.tokens.floor() as u32);
        b.tokens -= grant as f64;
        grant
    }

    /// How many probes toward `fac` would currently be admitted, without
    /// taking any tokens.
    pub fn available(&self, fac: FacilityId, now: Timestamp) -> u32 {
        match self.buckets.get(&fac.0) {
            None => self.limit.burst,
            Some(b) => {
                let mut copy = *b;
                Self::refill(self.limit, &mut copy, now);
                copy.tokens.floor() as u32
            }
        }
    }
}

/// Per-platform-key credit budget (RIPE-Atlas-style): every measurement
/// costs credits from a shared pool that refills linearly. Layered *on
/// top of* the per-facility token buckets — the buckets bound how hard
/// any one facility is hammered, the ledger bounds total platform spend
/// under one API key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreditConfig {
    /// Pool capacity in credits.
    pub capacity: f64,
    /// Sustained refill, credits per second.
    pub per_sec: f64,
    /// Cost of one traceroute measurement.
    pub cost_per_probe: f64,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig { capacity: 4_096.0, per_sec: 64.0, cost_per_probe: 1.0 }
    }
}

/// The credit pool. Explicit-timestamp refill like the token buckets:
/// deterministic, replayable, clamped against time going backwards and
/// saturating against large jumps.
#[derive(Debug, Clone, Copy)]
pub struct CreditLedger {
    config: CreditConfig,
    balance: f64,
    last: Timestamp,
    denied: u64,
}

impl CreditLedger {
    /// A full ledger.
    pub fn new(config: CreditConfig) -> Self {
        CreditLedger { config, balance: config.capacity, last: 0, denied: 0 }
    }

    fn refill(&mut self, now: Timestamp) {
        if now > self.last {
            let dt = now.saturating_sub(self.last) as f64;
            self.balance = (self.balance + dt * self.config.per_sec).min(self.config.capacity);
            if !self.balance.is_finite() {
                self.balance = self.config.capacity;
            }
            self.last = now;
        }
    }

    /// Admits up to `want` probes at `now`, deducting their cost.
    pub fn admit(&mut self, now: Timestamp, want: u32) -> u32 {
        self.refill(now);
        let cost = self.config.cost_per_probe.max(0.0);
        let affordable = if cost > 0.0 { (self.balance / cost).floor() } else { f64::INFINITY };
        // `as u32` saturates on inf/overflow — a free pool grants everything.
        let grant = want.min(affordable.max(0.0) as u32);
        self.balance -= grant as f64 * cost;
        self.denied += (want - grant) as u64;
        grant
    }

    /// Current balance.
    pub fn balance(&self) -> f64 {
        self.balance
    }

    /// Lifetime probes denied for lack of credits.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

/// One probe task: measure `vantage → target` — a campaign pair, a
/// canary traced every bin, or a baseline corpus pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTask {
    /// Probe host AS.
    pub vantage: Asn,
    /// Destination AS.
    pub target: Asn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_bounds_the_first_campaign() {
        let mut s = ProbeScheduler::new(RateLimit { burst: 10, per_sec: 1.0 });
        assert_eq!(s.admit(FacilityId(1), 1_000, 25), 10, "grant capped at burst");
        assert_eq!(s.admit(FacilityId(1), 1_000, 25), 0, "bucket drained");
        // A different facility has its own bucket.
        assert_eq!(s.admit(FacilityId(2), 1_000, 4), 4);
    }

    #[test]
    fn refill_is_linear_and_capped() {
        let mut s = ProbeScheduler::new(RateLimit { burst: 10, per_sec: 2.0 });
        assert_eq!(s.admit(FacilityId(1), 1_000, 10), 10);
        // 3 seconds later: 6 tokens back.
        assert_eq!(s.available(FacilityId(1), 1_003), 6);
        assert_eq!(s.admit(FacilityId(1), 1_003, 99), 6);
        // A long quiet period refills to burst, never beyond.
        assert_eq!(s.available(FacilityId(1), 10_000), 10);
    }

    #[test]
    fn time_going_backwards_is_clamped() {
        let mut s = ProbeScheduler::new(RateLimit { burst: 4, per_sec: 1.0 });
        assert_eq!(s.admit(FacilityId(1), 1_000, 4), 4);
        // Earlier timestamp: no refill, no panic, nothing granted.
        assert_eq!(s.admit(FacilityId(1), 500, 4), 0);
        // Forward progress resumes from the original watermark.
        assert_eq!(s.admit(FacilityId(1), 1_002, 4), 2);
    }

    #[test]
    fn huge_timestamp_jumps_saturate() {
        // A multi-year (and then near-u64::MAX) jump refills to burst and
        // keeps granting without overflow or NaN.
        let mut s = ProbeScheduler::new(RateLimit { burst: 8, per_sec: 1.0e18 });
        assert_eq!(s.admit(FacilityId(1), 0, 8), 8);
        assert_eq!(s.admit(FacilityId(1), 200_000_000, 8), 8, "multi-year jump");
        assert_eq!(s.admit(FacilityId(1), u64::MAX, 8), 8, "max-timestamp jump");
        let mut c =
            CreditLedger::new(CreditConfig { capacity: 5.0, per_sec: 1.0e18, cost_per_probe: 1.0 });
        assert_eq!(c.admit(0, 5), 5);
        assert_eq!(c.admit(u64::MAX, 9), 5);
        assert_eq!(c.denied(), 4);
    }

    #[test]
    fn credit_ledger_deducts_and_refills() {
        let mut c =
            CreditLedger::new(CreditConfig { capacity: 10.0, per_sec: 2.0, cost_per_probe: 2.0 });
        // 10 credits at cost 2 → 5 probes.
        assert_eq!(c.admit(1_000, 8), 5);
        assert_eq!(c.denied(), 3);
        assert_eq!(c.admit(1_000, 1), 0, "pool drained");
        // 4 seconds later: 8 credits back → 4 probes.
        assert_eq!(c.admit(1_004, 9), 4);
        // Time going backwards neither refills nor panics.
        assert_eq!(c.admit(500, 1), 0);
        // A zero cost never starves.
        let mut free =
            CreditLedger::new(CreditConfig { capacity: 1.0, per_sec: 0.0, cost_per_probe: 0.0 });
        assert_eq!(free.admit(0, 1_000), 1_000);
    }

    #[test]
    fn keyed_admission_is_independent_per_key() {
        let mut s = ProbeScheduler::new(RateLimit { burst: 3, per_sec: 0.0 });
        assert_eq!(s.admit_key(7, 1_000, 9), 3);
        assert_eq!(s.admit_key(7, 1_000, 9), 0, "key 7 drained");
        assert_eq!(s.admit_key(0x8000_0007, 1_000, 9), 3, "city key space is separate");
    }

    #[test]
    fn grants_never_exceed_want_or_budget() {
        // Admission safety across arbitrary call sequences: the total
        // granted never exceeds burst + elapsed * rate.
        let limit = RateLimit { burst: 7, per_sec: 3.0 };
        let mut s = ProbeScheduler::new(limit);
        let t0 = 5_000u64;
        let mut granted = 0u64;
        for step in 0..200u64 {
            let now = t0 + step / 2; // half the calls repeat the same second
            let want = (step % 5) as u32;
            let got = s.admit(FacilityId(3), now, want);
            assert!(got <= want);
            granted += got as u64;
            let budget = limit.burst as f64 + (now - t0) as f64 * limit.per_sec;
            assert!(granted as f64 <= budget + 1e-9, "granted {granted} > budget {budget}");
        }
    }
}
