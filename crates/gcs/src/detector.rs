//! Heartbeat failure detector (§4.3.4.2).
//!
//! The paper's complaint: drivers lean on TCP keepalive defaults ("30
//! seconds to 2 hours"), which makes failover hopeless, while aggressive
//! timeouts misclassify slow-but-alive nodes under load. This detector is
//! parameterized so experiment E11 can sweep exactly that tradeoff: a
//! "TCP-default" configuration is just `HeartbeatConfig::tcp_default()`.
//!
//! The group members' peer detector applies the fixed timeout. The
//! middleware's *backend* detection shares [`HeartbeatConfig`] and can
//! learn a per-backend threshold above it instead (`replimid_core::health`,
//! `MwConfig::adaptive_detection`).

use std::collections::HashMap;

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
