//! Per-backend latency health scoring and the quarantine state machine.
//!
//! Gray failures — brownouts, lossy NICs, overloaded disks — do not trip a
//! heartbeat failure detector: the backend still answers pings, just slowly
//! and erratically. The paper's practitioners handled this with operator
//! intervention; here the middleware scores each backend with an EWMA over
//! completed-operation latency and quarantines backends whose score degrades
//! far beyond their own baseline.
//!
//! The state machine is the classic circuit breaker adapted to read routing:
//!
//! ```text
//!   Healthy --(EWMA > trip_factor x baseline, sustained)--> Quarantined
//!   Quarantined --(min_quarantine_us elapsed)--> Probing   (half-open)
//!   Probing --(probe completes fast)--> Healthy            (rejoin)
//!   Probing --(probe slow or fails)--> Quarantined         (re-trip)
//! ```
//!
//! Quarantine only filters *read routing* and delegate selection; writes
//! still replicate to quarantined backends so they stay consistent and can
//! rejoin without a resync. Every transition is appended to an event log so
//! property tests can assert same-seed runs produce identical histories.
//!
//! The policy is fixed; no experiment varies it. All trips are relative to
//! the backend's own learned baseline, so a uniformly slow backend is not
//! punished — only a backend that got *worse*: the fast EWMA
//! ([`EWMA_ALPHA`]) trips at [`TRIP_FACTOR`] x the slow baseline
//! ([`BASELINE_ALPHA`]) for [`TRIP_CONSECUTIVE`] completions in a row, once
//! [`MIN_SAMPLES`] completions have been scored; a quarantined backend
//! dwells [`MIN_QUARANTINE_US`] before its probe, which re-trips when slower
//! than [`PROBE_TIMEOUT_US`] or [`TRIP_FACTOR`] x baseline.

/// Smoothing for the fast (current-health) latency EWMA.
pub const EWMA_ALPHA: f64 = 0.2;
/// Smoothing for the slow baseline EWMA (learned while healthy).
pub const BASELINE_ALPHA: f64 = 0.02;
/// Trip when the fast EWMA exceeds `TRIP_FACTOR` x baseline...
pub const TRIP_FACTOR: f64 = 4.0;
/// ...for this many consecutive completions (debounce).
pub const TRIP_CONSECUTIVE: u32 = 3;
/// Ignore everything until this many completions have been scored.
pub const MIN_SAMPLES: u64 = 10;
/// Dwell in Quarantined at least this long before the half-open probe.
pub const MIN_QUARANTINE_US: u64 = 500_000;
/// A probe completing slower than this (or than `TRIP_FACTOR` x baseline)
/// re-trips.
pub const PROBE_TIMEOUT_US: u64 = 1_000_000;

/// Turns quarantine on as `MwConfig::quarantine = Some(..)`; the policy
/// itself is the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuarantineConfig {}

/// Where a backend sits in the circuit-breaker cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    #[default]
    Healthy,
    Quarantined { since_us: u64 },
    /// Half-open: eligible for exactly one probe read at a time.
    Probing { since_us: u64 },
}

/// One transition in the quarantine history (for metrics and replay checks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthEvent {
    Trip { ewma_us: f64, baseline_us: f64 },
    ProbeStart,
    Rejoin,
    Retrip,
    Reset,
}

/// Latency health score and quarantine state for a single backend.
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    state: HealthState,
    ewma_us: f64,
    baseline_us: f64,
    samples: u64,
    over_threshold: u32,
    probe_in_flight: bool,
    events: Vec<(u64, HealthEvent)>,
}

impl HealthTracker {
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// True while the backend should be filtered out of read routing.
    /// Probing counts: the single designated probe is routed explicitly,
    /// not via the normal candidate set.
    pub fn quarantined(&self) -> bool {
        !matches!(self.state, HealthState::Healthy)
    }

    pub fn ewma_us(&self) -> f64 {
        self.ewma_us
    }

    pub fn baseline_us(&self) -> f64 {
        self.baseline_us
    }

    pub fn events(&self) -> &[(u64, HealthEvent)] {
        &self.events
    }

    /// Score one completed operation. Returns `true` if this completion
    /// tripped the breaker (Healthy -> Quarantined).
    pub fn on_completion(&mut self, now_us: u64, latency_us: u64) -> bool {
        let lat = latency_us as f64;
        self.samples += 1;
        if self.samples == 1 {
            self.ewma_us = lat;
            self.baseline_us = lat;
            return false;
        }
        self.ewma_us += EWMA_ALPHA * (lat - self.ewma_us);
        // The baseline only learns from samples that look normal, so a
        // brownout cannot drag the reference point up underneath itself.
        if lat <= TRIP_FACTOR * self.baseline_us {
            self.baseline_us += BASELINE_ALPHA * (lat - self.baseline_us);
        }
        if self.state != HealthState::Healthy || self.samples < MIN_SAMPLES {
            return false;
        }
        if self.ewma_us > TRIP_FACTOR * self.baseline_us.max(1.0) {
            self.over_threshold += 1;
            if self.over_threshold >= TRIP_CONSECUTIVE {
                self.state = HealthState::Quarantined { since_us: now_us };
                self.over_threshold = 0;
                self.events.push((
                    now_us,
                    HealthEvent::Trip { ewma_us: self.ewma_us, baseline_us: self.baseline_us },
                ));
                return true;
            }
        } else {
            self.over_threshold = 0;
        }
        false
    }

    /// Advance the dwell timer: Quarantined -> Probing once the minimum
    /// quarantine time has elapsed. Returns `true` on that transition.
    pub fn tick(&mut self, now_us: u64) -> bool {
        if let HealthState::Quarantined { since_us } = self.state {
            if now_us.saturating_sub(since_us) >= MIN_QUARANTINE_US {
                self.state = HealthState::Probing { since_us: now_us };
                self.probe_in_flight = false;
                return true;
            }
        }
        false
    }

    /// True when this backend wants its single half-open probe routed.
    pub fn wants_probe(&self) -> bool {
        matches!(self.state, HealthState::Probing { .. }) && !self.probe_in_flight
    }

    /// The middleware routed the probe read; hold further probes until it
    /// resolves.
    pub fn probe_sent(&mut self, now_us: u64) {
        debug_assert!(matches!(self.state, HealthState::Probing { .. }));
        self.probe_in_flight = true;
        self.events.push((now_us, HealthEvent::ProbeStart));
    }

    /// The probe completed. Fast enough -> rejoin; slow -> back to
    /// Quarantined for another dwell period. Returns `true` on rejoin.
    pub fn probe_completed(&mut self, now_us: u64, latency_us: u64) -> bool {
        if !matches!(self.state, HealthState::Probing { .. }) {
            return false;
        }
        self.probe_in_flight = false;
        let ok = latency_us <= PROBE_TIMEOUT_US
            && (latency_us as f64) <= TRIP_FACTOR * self.baseline_us.max(1.0);
        if ok {
            self.state = HealthState::Healthy;
            // Forget the brownout-era score so the next completion doesn't
            // instantly re-trip on stale history.
            self.ewma_us = self.baseline_us;
            self.over_threshold = 0;
            self.events.push((now_us, HealthEvent::Rejoin));
            true
        } else {
            self.state = HealthState::Quarantined { since_us: now_us };
            self.events.push((now_us, HealthEvent::Retrip));
            false
        }
    }

    /// Hard reset: the backend crashed or was evicted, so its latency
    /// history is meaningless when (if) it returns.
    pub fn reset(&mut self, now_us: u64) {
        if self.samples > 0 || self.quarantined() {
            self.events.push((now_us, HealthEvent::Reset));
        }
        self.state = HealthState::Healthy;
        self.ewma_us = 0.0;
        self.baseline_us = 0.0;
        self.samples = 0;
        self.over_threshold = 0;
        self.probe_in_flight = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_latency_never_trips() {
        let mut t = HealthTracker::default();
        for i in 0..200 {
            assert!(!t.on_completion(i * 100, 900 + (i % 7) * 30));
        }
        assert_eq!(t.state(), HealthState::Healthy);
        assert!(t.events().is_empty());
    }

    #[test]
    fn arms_at_min_samples_and_trips_on_the_third_completion_over() {
        // One fast completion sets the baseline; every later one is far
        // over it. Nothing counts before MIN_SAMPLES completions, and then
        // TRIP_CONSECUTIVE completions in a row over the threshold trip.
        let mut t = HealthTracker::default();
        assert!(!t.on_completion(100, 1_000));
        let trip_at = MIN_SAMPLES + TRIP_CONSECUTIVE as u64 - 1;
        for n in 2..trip_at {
            assert!(!t.on_completion(n * 100, 100_000), "completion {n}");
        }
        assert!(t.on_completion(trip_at * 100, 100_000));
        assert_eq!(trip_at, 12);
        assert_eq!(t.state(), HealthState::Quarantined { since_us: trip_at * 100 });
    }

    #[test]
    fn brownout_trips_then_probe_rejoins() {
        let mut t = HealthTracker::default();
        let mut now = 0u64;
        for _ in 0..20 {
            now += 100;
            t.on_completion(now, 1_000);
        }
        // 10x latency: the fast EWMA crosses 4x baseline on the second slow
        // completion while the outlier-gated baseline stays put, so the
        // fourth trips.
        for slow in 1..=4 {
            now += 100;
            assert_eq!(t.on_completion(now, 10_000), slow == 4, "slow completion {slow}");
        }
        assert!(t.quarantined());
        assert!(matches!(t.events()[0].1, HealthEvent::Trip { .. }));

        // Dwell, then half-open.
        assert!(!t.tick(now + MIN_QUARANTINE_US - 1)); // too soon
        now += MIN_QUARANTINE_US;
        assert!(t.tick(now));
        assert!(t.wants_probe());
        t.probe_sent(now);
        assert!(!t.wants_probe()); // one probe in flight max

        // Probe comes back at baseline speed: rejoin, score forgiven.
        assert!(t.probe_completed(now + 1_000, 1_000));
        assert_eq!(t.state(), HealthState::Healthy);
        assert!(!t.on_completion(now + 2_000, 1_000));
    }

    #[test]
    fn slow_probe_retrips() {
        let mut t = HealthTracker::default();
        let mut now = 0;
        for _ in 0..10 {
            now += 100;
            t.on_completion(now, 1_000);
        }
        for _ in 0..10 {
            now += 100;
            t.on_completion(now, 20_000);
        }
        assert!(t.quarantined());
        now += MIN_QUARANTINE_US;
        t.tick(now);
        t.probe_sent(now);
        assert!(!t.probe_completed(now + 9_000, 9_000)); // still 9x baseline
        assert!(matches!(t.state(), HealthState::Quarantined { .. }));
        // And the dwell timer starts over.
        assert!(!t.tick(now + 9_000 + MIN_QUARANTINE_US - 1));
        assert!(t.tick(now + 9_000 + MIN_QUARANTINE_US));
    }

    #[test]
    fn uniformly_slow_backend_is_not_punished() {
        // 20ms from the very first sample: that IS its baseline.
        let mut t = HealthTracker::default();
        for i in 0..100 {
            assert!(!t.on_completion(i * 100, 20_000));
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn reset_wipes_history() {
        let mut t = HealthTracker::default();
        let mut now = 0;
        for _ in 0..10 {
            now += 100;
            t.on_completion(now, 1_000);
        }
        for _ in 0..10 {
            now += 100;
            t.on_completion(now, 30_000);
        }
        assert!(t.quarantined());
        t.reset(now);
        assert_eq!(t.state(), HealthState::Healthy);
        assert_eq!(t.ewma_us(), 0.0);
        // Fresh history: slow completions below min_samples don't trip.
        for _ in 0..3 {
            now += 100;
            assert!(!t.on_completion(now, 30_000));
        }
        assert!(matches!(t.events().last().unwrap().1, HealthEvent::Reset));
    }
}
