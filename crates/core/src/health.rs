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
//! rejoin without a resync. The tracker keeps no history: each transition
//! is returned to the middleware's detection seam, which appends it to the
//! one event log (`MwMetrics::quarantine_events`), so property tests can
//! assert same-seed runs produce identical histories. The seam also owns
//! the half-open probe in flight.
//!
//! The policy is fixed; no experiment varies it. All trips are relative to
//! the backend's own learned baseline, so a uniformly slow backend is not
//! punished — only a backend that got *worse*: the fast EWMA
//! ([`EWMA_ALPHA`]) trips at [`TRIP_FACTOR`] x the slow baseline
//! ([`BASELINE_ALPHA`]) for [`TRIP_CONSECUTIVE`] completions in a row, once
//! [`MIN_SAMPLES`] completions have been scored; a quarantined backend
//! dwells [`MIN_QUARANTINE_US`] before its probe, which re-trips when slower
//! than [`PROBE_TIMEOUT_US`] or [`TRIP_FACTOR`] x baseline.
//!
//! The other gray-failure defence lives here too: [`AdaptiveThreshold`], an
//! accrual-style silence threshold (after Hayashibara et al.'s φ detector)
//! learned from a backend's observed silence gaps. A browned-out backend
//! whose answers stretch raises its own threshold instead of being declared
//! dead — §4.3.4.2's "slow connections classified as failed". Its floor is
//! the fixed heartbeat timeout, so it never fires faster than the fixed
//! detector, and [`ADAPTIVE_CAP_US`] bounds detection of a real crash.

use std::collections::VecDeque;

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

/// One transition in the quarantine history (for metrics and replay checks),
/// returned by the [`HealthTracker`] call that made it.
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

    /// Half-open: the backend is due its one probe read.
    pub fn probing(&self) -> bool {
        matches!(self.state, HealthState::Probing { .. })
    }

    /// Score one completed operation. Returns the trip if this completion
    /// tripped the breaker (Healthy -> Quarantined).
    pub fn on_completion(&mut self, now_us: u64, latency_us: u64) -> Option<HealthEvent> {
        let lat = latency_us as f64;
        self.samples += 1;
        if self.samples == 1 {
            self.ewma_us = lat;
            self.baseline_us = lat;
            return None;
        }
        self.ewma_us += EWMA_ALPHA * (lat - self.ewma_us);
        // The baseline only learns from samples that look normal, so a
        // brownout cannot drag the reference point up underneath itself.
        if lat <= TRIP_FACTOR * self.baseline_us {
            self.baseline_us += BASELINE_ALPHA * (lat - self.baseline_us);
        }
        if self.state != HealthState::Healthy || self.samples < MIN_SAMPLES {
            return None;
        }
        if self.ewma_us > TRIP_FACTOR * self.baseline_us.max(1.0) {
            self.over_threshold += 1;
            if self.over_threshold >= TRIP_CONSECUTIVE {
                self.state = HealthState::Quarantined { since_us: now_us };
                self.over_threshold = 0;
                return Some(HealthEvent::Trip { ewma_us: self.ewma_us, baseline_us: self.baseline_us });
            }
        } else {
            self.over_threshold = 0;
        }
        None
    }

    /// Advance the dwell timer: Quarantined -> Probing once the minimum
    /// quarantine time has elapsed. Returns `true` on that transition.
    pub fn tick(&mut self, now_us: u64) -> bool {
        if let HealthState::Quarantined { since_us } = self.state {
            if now_us.saturating_sub(since_us) >= MIN_QUARANTINE_US {
                self.state = HealthState::Probing { since_us: now_us };
                return true;
            }
        }
        false
    }

    /// The probe completed. Fast enough -> rejoin; slow -> back to
    /// Quarantined for another dwell period. Returns the transition, `None`
    /// when the backend was not probing.
    pub fn probe_completed(&mut self, now_us: u64, latency_us: u64) -> Option<HealthEvent> {
        if !self.probing() {
            return None;
        }
        let ok = latency_us <= PROBE_TIMEOUT_US
            && (latency_us as f64) <= TRIP_FACTOR * self.baseline_us.max(1.0);
        if ok {
            self.state = HealthState::Healthy;
            // Forget the brownout-era score so the next completion doesn't
            // instantly re-trip on stale history.
            self.ewma_us = self.baseline_us;
            self.over_threshold = 0;
            Some(HealthEvent::Rejoin)
        } else {
            self.state = HealthState::Quarantined { since_us: now_us };
            Some(HealthEvent::Retrip)
        }
    }

    /// Hard reset: the backend crashed or was evicted, so its latency
    /// history is meaningless when (if) it returns. Returns the reset when
    /// there was history to wipe.
    pub fn reset(&mut self) -> Option<HealthEvent> {
        let had = self.samples > 0 || self.quarantined();
        *self = HealthTracker::default();
        had.then_some(HealthEvent::Reset)
    }
}

/// Ceiling of the learned silence threshold: bounds detection of a real
/// crash however noisy the observed history was.
pub const ADAPTIVE_CAP_US: u64 = 2_000_000;
/// Safety multiplier on the learned threshold.
pub const ADAPTIVE_FACTOR: f64 = 1.5;
/// How many standard deviations above the mean gap still count as alive.
pub const ADAPTIVE_K: f64 = 4.0;
/// Silence gaps remembered; older ones are forgotten.
pub const ADAPTIVE_WINDOW: usize = 32;

/// Learned suspicion threshold over one backend's silence gaps.
/// Deterministic: plain windowed mean/variance, no clocks of its own — the
/// embedder feeds observed gaps.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveThreshold {
    gaps: VecDeque<u64>,
}

impl AdaptiveThreshold {
    /// Record one observed silence gap.
    pub fn observe(&mut self, gap_us: u64) {
        self.gaps.push_back(gap_us);
        while self.gaps.len() > ADAPTIVE_WINDOW {
            self.gaps.pop_front();
        }
    }

    /// The current suspicion threshold:
    /// `clamp(floor, ADAPTIVE_FACTOR * (mean + ADAPTIVE_K * std), ADAPTIVE_CAP_US)`.
    ///
    /// With a short history the floor applies (behaves exactly like the
    /// fixed-timeout detector until enough gaps are seen).
    pub fn timeout_us(&self, floor_us: u64) -> u64 {
        if self.gaps.len() < 4 {
            return floor_us;
        }
        let n = self.gaps.len() as f64;
        let mean = self.gaps.iter().map(|&g| g as f64).sum::<f64>() / n;
        let var = self.gaps.iter().map(|&g| (g as f64 - mean).powi(2)).sum::<f64>() / n;
        let learned = ADAPTIVE_FACTOR * (mean + ADAPTIVE_K * var.sqrt());
        // The floor wins over the cap: a fixed timeout above it (the
        // TCP-default detector) is never undercut.
        learned.min(ADAPTIVE_CAP_US as f64).max(floor_us as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_latency_never_trips() {
        let mut t = HealthTracker::default();
        for i in 0..200 {
            assert_eq!(t.on_completion(i * 100, 900 + (i % 7) * 30), None);
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn arms_at_min_samples_and_trips_on_the_third_completion_over() {
        // One fast completion sets the baseline; every later one is far
        // over it. Nothing counts before MIN_SAMPLES completions, and then
        // TRIP_CONSECUTIVE completions in a row over the threshold trip.
        let mut t = HealthTracker::default();
        assert_eq!(t.on_completion(100, 1_000), None);
        let trip_at = MIN_SAMPLES + TRIP_CONSECUTIVE as u64 - 1;
        for n in 2..trip_at {
            assert_eq!(t.on_completion(n * 100, 100_000), None, "completion {n}");
        }
        assert!(matches!(t.on_completion(trip_at * 100, 100_000), Some(HealthEvent::Trip { .. })));
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
            let ev = t.on_completion(now, 10_000);
            assert_eq!(matches!(ev, Some(HealthEvent::Trip { .. })), slow == 4, "slow completion {slow}");
        }
        assert!(t.quarantined());

        // Dwell, then half-open.
        assert!(!t.tick(now + MIN_QUARANTINE_US - 1)); // too soon
        now += MIN_QUARANTINE_US;
        assert!(t.tick(now));
        assert!(t.probing());

        // Probe comes back at baseline speed: rejoin, score forgiven.
        assert_eq!(t.probe_completed(now + 1_000, 1_000), Some(HealthEvent::Rejoin));
        assert_eq!(t.state(), HealthState::Healthy);
        assert_eq!(t.on_completion(now + 2_000, 1_000), None);
        // A late answer once healthy resolves nothing.
        assert_eq!(t.probe_completed(now + 3_000, 1_000), None);
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
        assert!(t.tick(now));
        // Still 9x baseline.
        assert_eq!(t.probe_completed(now + 9_000, 9_000), Some(HealthEvent::Retrip));
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
            assert_eq!(t.on_completion(i * 100, 20_000), None);
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }

    #[test]
    fn reset_wipes_history() {
        let mut t = HealthTracker::default();
        // Nothing to wipe yet: no event.
        assert_eq!(t.reset(), None);
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
        assert_eq!(t.reset(), Some(HealthEvent::Reset));
        assert_eq!(t.state(), HealthState::Healthy);
        assert_eq!(t.ewma_us(), 0.0);
        // Fresh history: slow completions below min_samples don't trip.
        for _ in 0..3 {
            now += 100;
            assert_eq!(t.on_completion(now, 30_000), None);
        }
    }

    #[test]
    fn adaptive_threshold_learns_and_clamps() {
        let floor = 100_000;
        let mut t = AdaptiveThreshold::default();
        assert_eq!(t.timeout_us(floor), floor, "floor before history");
        for _ in 0..ADAPTIVE_WINDOW {
            t.observe(20_000);
        }
        assert_eq!(t.timeout_us(floor), floor, "regular fast beats: floor applies");
        // Gaps stretch 20x (brownout): the threshold follows them up.
        for _ in 0..ADAPTIVE_WINDOW {
            t.observe(400_000);
        }
        let th = t.timeout_us(floor);
        assert!(th >= 600_000, "learned threshold {th}");
        assert!(th <= ADAPTIVE_CAP_US, "cap respected");
        // Absurd history still clamps at the cap.
        for _ in 0..ADAPTIVE_WINDOW {
            t.observe(1_000_000_000);
        }
        assert_eq!(t.timeout_us(floor), ADAPTIVE_CAP_US);
        // A fixed timeout above the cap is never undercut.
        assert_eq!(t.timeout_us(75_000_000), 75_000_000);
    }

    #[test]
    fn adaptive_threshold_short_history_holds_the_floor() {
        // Zero to three samples: the learned path must not run at all (a
        // single gap has zero variance and would anchor the threshold to
        // one possibly-tiny observation).
        let mut t = AdaptiveThreshold::default();
        assert_eq!(t.timeout_us(100), 100, "no samples: floor");
        for n in 1..=3 {
            t.observe(3);
            assert_eq!(t.timeout_us(100), 100, "{n} samples: floor");
        }
        // The fourth arms it; gaps of 3 µs still sit under the floor.
        t.observe(3);
        assert_eq!(t.timeout_us(100), 100);
        assert_eq!(t.timeout_us(1), 4, "4 gaps of 3 µs learn 1.5 x 3");
    }
}
