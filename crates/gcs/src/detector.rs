//! Heartbeat failure detector (§4.3.4.2).
//!
//! The paper's complaint: drivers lean on TCP keepalive defaults ("30
//! seconds to 2 hours"), which makes failover hopeless, while aggressive
//! timeouts misclassify slow-but-alive nodes under load. This detector is
//! parameterized so experiment E11 can sweep exactly that tradeoff: a
//! "TCP-default" configuration is just `HeartbeatConfig::tcp_default()`.
//!
//! [`AdaptiveThreshold`] (accrual-style, after Hayashibara et al.'s φ
//! detector) learns a suspicion threshold from observed heartbeat
//! inter-arrival times: a browned-out or loaded peer whose heartbeats
//! stretch raises its own threshold instead of being declared dead — exactly
//! the "slow connections classified as failed" false positive §4.3.4.2 warns
//! about. The fixed timeout remains the floor (adaptive detection never fires
//! *faster* than it) and a hard cap bounds detection time for real crashes.
//! The middleware's backend detection uses it; the group members' peer
//! detector below applies the fixed timeout.

use std::collections::{HashMap, VecDeque};

use crate::types::MemberId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often each member emits heartbeats.
    pub interval_us: u64,
    /// Silence longer than this marks a peer as suspected.
    pub timeout_us: u64,
}

impl HeartbeatConfig {
    /// A tuned LAN detector: 20ms beats, 100ms timeout.
    pub const fn lan() -> Self {
        HeartbeatConfig { interval_us: 20_000, timeout_us: 100_000 }
    }

    /// The OS-default-keepalive anti-pattern the paper describes: the
    /// detector only notices after ~75 seconds.
    pub fn tcp_default() -> Self {
        HeartbeatConfig { interval_us: 20_000, timeout_us: 75_000_000 }
    }
}

/// Knobs for the accrual-style adaptive threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Floor: adaptive detection never fires faster than this (use the
    /// fixed timeout you would otherwise have configured).
    pub min_timeout_us: u64,
    /// Cap: bounds detection time for real crashes no matter how noisy the
    /// observed history was.
    pub max_timeout_us: u64,
    /// Safety multiplier on the learned threshold.
    pub factor: f64,
    /// How many standard deviations above the mean gap still count as
    /// alive.
    pub k: f64,
    /// Inter-arrival history window (draws beyond it are forgotten).
    pub window: usize,
}

impl AdaptiveConfig {
    /// Adaptive companion to [`HeartbeatConfig::lan`]: same 100ms floor,
    /// 2s cap.
    pub fn lan() -> Self {
        AdaptiveConfig {
            min_timeout_us: 100_000,
            max_timeout_us: 2_000_000,
            factor: 1.5,
            k: 4.0,
            window: 32,
        }
    }
}

/// Learned suspicion threshold over one peer's heartbeat inter-arrival
/// history. Deterministic: plain windowed mean/variance, no clocks of its
/// own — the embedder feeds observed gaps.
#[derive(Debug, Clone)]
pub struct AdaptiveThreshold {
    cfg: AdaptiveConfig,
    gaps: VecDeque<u64>,
}

impl AdaptiveThreshold {
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveThreshold { cfg, gaps: VecDeque::new() }
    }

    /// Record one observed inter-arrival gap.
    pub fn observe(&mut self, gap_us: u64) {
        self.gaps.push_back(gap_us);
        while self.gaps.len() > self.cfg.window.max(1) {
            self.gaps.pop_front();
        }
    }

    /// The current suspicion threshold:
    /// `clamp(min, factor * (mean + k * std), max)`.
    ///
    /// With a short history the floor applies (behaves exactly like the
    /// fixed-timeout detector until enough gaps are seen).
    pub fn timeout_us(&self) -> u64 {
        if self.gaps.len() < 4 {
            return self.cfg.min_timeout_us;
        }
        let n = self.gaps.len() as f64;
        let mean = self.gaps.iter().map(|&g| g as f64).sum::<f64>() / n;
        let var = self.gaps.iter().map(|&g| (g as f64 - mean).powi(2)).sum::<f64>() / n;
        // Clamp in the f64 domain, *before* the u64 cast: a NaN (poisoned
        // factor/k) or negative product would otherwise ride the cast's
        // saturation semantics instead of an explicit floor, and a learned
        // timeout of 0 evicts every peer on the next tick.
        let learned = self.cfg.factor * (mean + self.cfg.k * var.sqrt());
        let floor = self.cfg.min_timeout_us as f64;
        let ceil = self.cfg.max_timeout_us as f64;
        let clamped = if learned.is_finite() { learned.clamp(floor, ceil) } else { floor };
        clamped as u64
    }
}

/// Per-peer liveness tracking. Pure state machine: the embedder feeds
/// heartbeats and clock ticks.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: HeartbeatConfig,
    /// Last time we heard from each monitored peer.
    last_heard: HashMap<MemberId, u64>,
    suspected: HashMap<MemberId, bool>,
}

/// Liveness transitions reported by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdEvent {
    Suspect(MemberId),
    /// A suspected peer spoke again (false positive — §4.3.4.2's "slow
    /// connections classified as failed").
    Restore(MemberId),
}

impl FailureDetector {
    /// Monitor `peers` starting at `now`.
    pub fn new(config: HeartbeatConfig, peers: impl IntoIterator<Item = MemberId>, now: u64) -> Self {
        let mut last_heard = HashMap::new();
        let mut suspected = HashMap::new();
        for p in peers {
            last_heard.insert(p, now);
            suspected.insert(p, false);
        }
        FailureDetector { config, last_heard, suspected }
    }

    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Replace the monitored set (view change); fresh peers start unheard-
    /// from as of `now`.
    pub fn reset_peers(&mut self, peers: impl IntoIterator<Item = MemberId>, now: u64) {
        let old = std::mem::take(&mut self.last_heard);
        self.suspected.clear();
        for p in peers {
            let heard = old.get(&p).copied().unwrap_or(now).max(now.saturating_sub(self.config.timeout_us / 2));
            self.last_heard.insert(p, heard);
            self.suspected.insert(p, false);
        }
    }

    /// A message (heartbeat or any traffic) arrived from `from` at `now`.
    pub fn heard_from(&mut self, from: MemberId, now: u64) -> Option<FdEvent> {
        if let Some(t) = self.last_heard.get_mut(&from) {
            *t = (*t).max(now);
            if self.suspected.insert(from, false) == Some(true) {
                return Some(FdEvent::Restore(from));
            }
        }
        None
    }

    /// Periodic check: which peers crossed their timeout at `now`?
    pub fn tick(&mut self, now: u64) -> Vec<FdEvent> {
        // Walk peers in id order: map iteration order varies per process,
        // and the event order matters when several peers time out at once.
        let mut peers: Vec<(MemberId, u64)> =
            self.last_heard.iter().map(|(&p, &h)| (p, h)).collect();
        peers.sort_by_key(|&(p, _)| p);
        let mut events = Vec::new();
        for (peer, heard) in peers {
            let silent = now.saturating_sub(heard);
            let was = self.suspected.get(&peer).copied().unwrap_or(false);
            if silent > self.config.timeout_us && !was {
                self.suspected.insert(peer, true);
                events.push(FdEvent::Suspect(peer));
            }
        }
        events
    }

    pub fn is_suspected(&self, m: MemberId) -> bool {
        self.suspected.get(&m).copied().unwrap_or(false)
    }

    pub fn alive_peers(&self) -> Vec<MemberId> {
        let mut v: Vec<MemberId> = self
            .suspected
            .iter()
            .filter(|(_, &s)| !s)
            .map(|(&m, _)| m)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(timeout: u64) -> FailureDetector {
        FailureDetector::new(
            HeartbeatConfig { interval_us: 10, timeout_us: timeout },
            [MemberId(1), MemberId(2)],
            0,
        )
    }

    #[test]
    fn suspects_after_timeout() {
        let mut d = fd(100);
        assert!(d.tick(100).is_empty(), "exactly at timeout: not yet");
        let events = d.tick(101);
        assert_eq!(events.len(), 2);
        assert!(d.is_suspected(MemberId(1)));
        // No duplicate suspicion events.
        assert!(d.tick(200).is_empty());
    }

    #[test]
    fn simultaneous_suspicions_arrive_in_peer_order() {
        // The event order feeds view changes; it must not depend on map
        // iteration order (which varies across processes).
        let mut d = FailureDetector::new(
            HeartbeatConfig { interval_us: 10, timeout_us: 100 },
            [MemberId(5), MemberId(1), MemberId(3)],
            0,
        );
        let events = d.tick(101);
        assert_eq!(
            events,
            vec![
                FdEvent::Suspect(MemberId(1)),
                FdEvent::Suspect(MemberId(3)),
                FdEvent::Suspect(MemberId(5)),
            ]
        );
    }

    #[test]
    fn heartbeat_resets_and_restores() {
        let mut d = fd(100);
        d.heard_from(MemberId(1), 90);
        let events = d.tick(150);
        assert_eq!(events, vec![FdEvent::Suspect(MemberId(2))]);
        // The false positive case: m2 speaks again.
        assert_eq!(d.heard_from(MemberId(2), 160), Some(FdEvent::Restore(MemberId(2))));
        assert!(!d.is_suspected(MemberId(2)));
    }

    #[test]
    fn unknown_peers_ignored() {
        let mut d = fd(100);
        assert_eq!(d.heard_from(MemberId(9), 10), None);
    }

    #[test]
    fn adaptive_threshold_learns_and_clamps() {
        let cfg = AdaptiveConfig {
            min_timeout_us: 100,
            max_timeout_us: 10_000,
            factor: 1.5,
            k: 4.0,
            window: 8,
        };
        let mut t = AdaptiveThreshold::new(cfg);
        assert_eq!(t.timeout_us(), 100, "floor before history");
        for _ in 0..8 {
            t.observe(20);
        }
        assert_eq!(t.timeout_us(), 100, "regular fast beats: floor applies");
        // Gaps stretch 20x (brownout): the threshold follows them up.
        for _ in 0..8 {
            t.observe(400);
        }
        let th = t.timeout_us();
        assert!(th >= 600, "learned threshold {th}");
        assert!(th <= 10_000, "cap respected");
        // Absurd history still clamps at the cap.
        for _ in 0..8 {
            t.observe(1_000_000);
        }
        assert_eq!(t.timeout_us(), 10_000);
    }

    #[test]
    fn adaptive_threshold_short_history_and_nan_hold_the_floor() {
        let cfg = AdaptiveConfig {
            min_timeout_us: 100,
            max_timeout_us: 10_000,
            factor: 1.5,
            k: 4.0,
            window: 8,
        };
        // Zero and one samples: the learned path must not run at all (a
        // single gap has zero variance and would anchor the threshold to
        // one possibly-tiny observation).
        let mut t = AdaptiveThreshold::new(cfg);
        assert_eq!(t.timeout_us(), 100, "no samples: floor");
        t.observe(3);
        assert_eq!(t.timeout_us(), 100, "single sample: floor");

        // NaN-poisoned config (factor * anything = NaN): the threshold
        // must clamp to the configured floor in the f64 domain, never
        // collapse toward 0 and evict every peer.
        let mut t = AdaptiveThreshold::new(AdaptiveConfig { factor: f64::NAN, ..cfg });
        for _ in 0..8 {
            t.observe(20);
        }
        assert_eq!(t.timeout_us(), 100, "NaN learned value: floor");

        // Same for an infinity (overflowed k): any non-finite learned
        // value falls back to the floor rather than trusting saturation.
        let mut t = AdaptiveThreshold::new(AdaptiveConfig { k: f64::INFINITY, ..cfg });
        for g in [10, 20, 30, 40] {
            t.observe(g);
        }
        assert_eq!(t.timeout_us(), 100, "non-finite learned value: floor");

        // Negative factor (misconfiguration) floors instead of casting a
        // negative f64 to 0.
        let mut t = AdaptiveThreshold::new(AdaptiveConfig { factor: -2.0, ..cfg });
        for _ in 0..8 {
            t.observe(500);
        }
        assert_eq!(t.timeout_us(), 100, "negative learned value: floor");
    }

    #[test]
    fn reset_peers_on_view_change() {
        let mut d = fd(100);
        d.tick(500);
        d.reset_peers([MemberId(2), MemberId(3)], 500);
        assert!(!d.is_suspected(MemberId(2)), "suspicion cleared by reset");
        assert_eq!(d.alive_peers(), vec![MemberId(2), MemberId(3)]);
        // New peers get grace before suspicion.
        assert!(d.tick(520).is_empty());
    }
}
