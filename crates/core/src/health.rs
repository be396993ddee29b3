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

/// Quarantine policy knobs. All trips are relative to the backend's own
/// learned baseline, so a uniformly slow backend is not punished — only a
/// backend that got *worse*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Smoothing for the fast (current-health) latency EWMA.
    pub ewma_alpha: f64,
    /// Smoothing for the slow baseline EWMA (learned while healthy).
    pub baseline_alpha: f64,
    /// Trip when the fast EWMA exceeds `trip_factor` x baseline...
    pub trip_factor: f64,
    /// ...for this many consecutive completions (debounce).
    pub trip_consecutive: u32,
    /// Ignore everything until this many completions have been scored.
    pub min_samples: u64,
    /// Dwell in Quarantined at least this long before the half-open probe.
    pub min_quarantine_us: u64,
    /// A probe completing slower than `trip_factor` x baseline re-trips.
    pub probe_timeout_us: u64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            ewma_alpha: 0.2,
            baseline_alpha: 0.02,
            trip_factor: 4.0,
            trip_consecutive: 3,
            min_samples: 10,
            min_quarantine_us: 500_000,
            probe_timeout_us: 1_000_000,
        }
    }
}

/// Where a backend sits in the circuit-breaker cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
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
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: QuarantineConfig,
    state: HealthState,
    ewma_us: f64,
    baseline_us: f64,
    samples: u64,
    over_threshold: u32,
    probe_in_flight: bool,
    events: Vec<(u64, HealthEvent)>,
}

impl HealthTracker {
    pub fn new(cfg: QuarantineConfig) -> Self {
        HealthTracker {
            cfg,
            state: HealthState::Healthy,
            ewma_us: 0.0,
            baseline_us: 0.0,
            samples: 0,
            over_threshold: 0,
            probe_in_flight: false,
            events: Vec::new(),
        }
    }

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
        self.ewma_us += self.cfg.ewma_alpha * (lat - self.ewma_us);
        // The baseline only learns from samples that look normal, so a
        // brownout cannot drag the reference point up underneath itself.
        if lat <= self.cfg.trip_factor * self.baseline_us {
            self.baseline_us += self.cfg.baseline_alpha * (lat - self.baseline_us);
        }
        if self.state != HealthState::Healthy || self.samples < self.cfg.min_samples {
            return false;
        }
        if self.ewma_us > self.cfg.trip_factor * self.baseline_us.max(1.0) {
            self.over_threshold += 1;
            if self.over_threshold >= self.cfg.trip_consecutive {
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
            if now_us.saturating_sub(since_us) >= self.cfg.min_quarantine_us {
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
        let ok = latency_us <= self.cfg.probe_timeout_us
            && (latency_us as f64) <= self.cfg.trip_factor * self.baseline_us.max(1.0);
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

    fn cfg() -> QuarantineConfig {
        QuarantineConfig {
            min_samples: 5,
            trip_consecutive: 2,
            min_quarantine_us: 1_000,
            ..QuarantineConfig::default()
        }
    }

    #[test]
    fn steady_latency_never_trips() {
        let mut t = HealthTracker::new(cfg());
        for i in 0..200 {
            assert!(!t.on_completion(i * 100, 900 + (i % 7) * 30));
        }
        assert_eq!(t.state(), HealthState::Healthy);
        assert!(t.events().is_empty());
    }

    #[test]
    fn brownout_trips_then_probe_rejoins() {
        let mut t = HealthTracker::new(cfg());
        let mut now = 0u64;
        for _ in 0..20 {
            now += 100;
            t.on_completion(now, 1_000);
        }
        // 10x latency: the fast EWMA blows past 4x baseline within a few
        // completions while the outlier-gated baseline stays put.
        let mut tripped = false;
        for _ in 0..20 {
            now += 100;
            if t.on_completion(now, 10_000) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert!(t.quarantined());
        assert!(matches!(t.events()[0].1, HealthEvent::Trip { .. }));

        // Dwell, then half-open.
        assert!(!t.tick(now + 10)); // too soon
        now += 2_000;
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
        let mut t = HealthTracker::new(cfg());
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
        now += 2_000;
        t.tick(now);
        t.probe_sent(now);
        assert!(!t.probe_completed(now + 9_000, 9_000)); // still 9x baseline
        assert!(matches!(t.state(), HealthState::Quarantined { .. }));
        // And the dwell timer starts over.
        assert!(!t.tick(now + 9_500));
        assert!(t.tick(now + 9_000 + 1_000));
    }

    #[test]
    fn uniformly_slow_backend_is_not_punished() {
        // 20ms from the very first sample: that IS its baseline.
        let mut t = HealthTracker::new(cfg());
        for i in 0..100 {
            assert!(!t.on_completion(i * 100, 20_000));
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn reset_wipes_history() {
        let mut t = HealthTracker::new(cfg());
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
