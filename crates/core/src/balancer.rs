//! Load balancing across backend replicas (§3.2).
//!
//! Two orthogonal axes, exactly as the paper frames them:
//!
//! * **Granularity** — connection-level (a session sticks to one replica for
//!   its lifetime), transaction-level (chosen per transaction), or
//!   query-level (chosen per statement).
//! * **Policy** — round-robin, LPRF (least pending requests first, the
//!   C-JDBC policy the paper cites for heterogeneous clusters, §4.1.3), or
//!   static weights.

use crate::msg::BackendId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    Connection,
    Transaction,
    Query,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    RoundRobin,
    /// Least pending requests first: routes to the replica with the fewest
    /// outstanding operations — adapts to heterogeneous/degraded replicas.
    Lprf,
    /// Static weights (requests distributed proportionally). Weights are
    /// per-backend; missing entries default to 1.
    Weighted(Vec<u32>),
}

/// Balancer state: tracks outstanding requests per backend (for LPRF) and
/// the round-robin cursor.
#[derive(Debug, Clone)]
pub struct Balancer {
    pub granularity: Granularity,
    policy: Policy,
    /// Round-robin position in *stable backend id* space: the next pick is
    /// the first healthy id at or after this, circularly. Indexing into the
    /// healthy slice instead would re-pick the same replica when the
    /// healthy set shrinks or grows mid-cycle.
    rr_cursor: usize,
    outstanding: Vec<u64>,
    weighted_credit: Vec<f64>,
}

impl Balancer {
    pub fn new(granularity: Granularity, policy: Policy, backends: usize) -> Self {
        Balancer {
            granularity,
            policy,
            rr_cursor: 0,
            outstanding: vec![0; backends],
            weighted_credit: vec![0.0; backends],
        }
    }

    pub fn resize(&mut self, backends: usize) {
        // Shrinking truncates per-id state, so a later grow re-creates the
        // dropped ids zeroed instead of resurrecting their old counters: an
        // id that comes back is a fresh replica, not the one that left with
        // requests still charged against it.
        self.outstanding.truncate(backends);
        self.weighted_credit.truncate(backends);
        self.outstanding.resize(backends, 0);
        self.weighted_credit.resize(backends, 0.0);
        // The stable-id cursor may point past the new range after a shrink.
        if backends > 0 {
            self.rr_cursor %= backends;
        } else {
            self.rr_cursor = 0;
        }
    }

    /// Pick a backend among `healthy` (indices into the backend list).
    /// Returns `None` when no replica is available.
    pub fn pick(&mut self, healthy: &[BackendId]) -> Option<BackendId> {
        if healthy.is_empty() {
            return None;
        }
        match &self.policy {
            Policy::RoundRobin => {
                let modulus = healthy
                    .iter()
                    .map(|b| b.0 + 1)
                    .max()
                    .unwrap_or(0)
                    .max(self.outstanding.len())
                    .max(1);
                let cursor = self.rr_cursor % modulus;
                let choice = healthy
                    .iter()
                    .copied()
                    .min_by_key(|b| (b.0 + modulus - cursor) % modulus)?;
                self.rr_cursor = (choice.0 + 1) % modulus;
                Some(choice)
            }
            Policy::Lprf => healthy
                .iter()
                .copied()
                .min_by_key(|b| (self.outstanding.get(b.0).copied().unwrap_or(0), b.0)),
            Policy::Weighted(weights) => {
                // Deterministic proportional selection: accumulate credit by
                // weight, pick the richest, then spend it.
                for &b in healthy {
                    let w = weights.get(b.0).copied().unwrap_or(1).max(1) as f64;
                    self.weighted_credit[b.0] += w;
                }
                let best = healthy
                    .iter()
                    .copied()
                    .max_by(|a, b| {
                        self.weighted_credit[a.0]
                            .partial_cmp(&self.weighted_credit[b.0])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.0.cmp(&a.0))
                    })?;
                let total: f64 = healthy
                    .iter()
                    .map(|b| weights.get(b.0).copied().unwrap_or(1).max(1) as f64)
                    .sum();
                self.weighted_credit[best.0] -= total;
                Some(best)
            }
        }
    }

    /// Pick among `candidates` restricted by a parallel `eligible` mask
    /// (freshness-constrained routing). Delegates to [`pick`](Self::pick)
    /// on the filtered slice, so the policy invariants carry over
    /// unchanged — notably the stable-id round-robin cursor, which keeps
    /// rotating fairly even when every call filters a different subset
    /// (the same property `round_robin_no_repeat_when_replica_fails_mid_rotation`
    /// pins down for health filtering). Returns `None` when no candidate
    /// is eligible; the caller decides whether to wait or fall back.
    pub fn pick_fresh(&mut self, candidates: &[BackendId], eligible: &[bool]) -> Option<BackendId> {
        debug_assert_eq!(candidates.len(), eligible.len());
        if eligible.iter().all(|&e| e) {
            return self.pick(candidates);
        }
        let filtered: Vec<BackendId> = candidates
            .iter()
            .zip(eligible)
            .filter_map(|(&b, &e)| e.then_some(b))
            .collect();
        if filtered.is_empty() {
            return None;
        }
        self.pick(&filtered)
    }

    /// Track an operation dispatched to `b` (LPRF input).
    pub fn dispatched(&mut self, b: BackendId) {
        if let Some(o) = self.outstanding.get_mut(b.0) {
            *o += 1;
        }
    }

    /// Track an operation at `b` that ended: answered, timed out, or
    /// failed with its backend. Each dispatched operation ends once, so
    /// `outstanding` counts exactly the operations still in flight.
    pub fn completed(&mut self, b: BackendId) {
        if let Some(o) = self.outstanding.get_mut(b.0) {
            *o = o.saturating_sub(1);
        }
    }

    pub fn outstanding(&self, b: BackendId) -> u64 {
        self.outstanding.get(b.0).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<BackendId> {
        v.iter().map(|&i| BackendId(i)).collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 3);
        let healthy = ids(&[0, 1, 2]);
        let picks: Vec<usize> = (0..6).map(|_| b.pick(&healthy).unwrap().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_unhealthy() {
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 3);
        let healthy = ids(&[0, 2]);
        let picks: Vec<usize> = (0..4).map(|_| b.pick(&healthy).unwrap().0).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn round_robin_no_repeat_when_replica_fails_mid_rotation() {
        // Regression: with the cursor taken modulo healthy.len(), removing
        // backend 0 after picks [0, 1] made the next pick index 2 % 2 = 0,
        // i.e. backend 1 again — the same replica twice in a row.
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 3);
        let all = ids(&[0, 1, 2]);
        assert_eq!(b.pick(&all), Some(BackendId(0)));
        assert_eq!(b.pick(&all), Some(BackendId(1)));
        let degraded = ids(&[1, 2]);
        assert_eq!(b.pick(&degraded), Some(BackendId(2)), "must not re-pick 1");
        assert_eq!(b.pick(&degraded), Some(BackendId(1)));
        assert_eq!(b.pick(&degraded), Some(BackendId(2)));
        // Backend 0 recovers: the rotation folds it back in at its id slot.
        assert_eq!(b.pick(&all), Some(BackendId(0)));
        assert_eq!(b.pick(&all), Some(BackendId(1)));
    }

    #[test]
    fn round_robin_no_repeat_when_set_grows_mid_rotation() {
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 3);
        let two = ids(&[0, 1]);
        assert_eq!(b.pick(&two), Some(BackendId(0)));
        assert_eq!(b.pick(&two), Some(BackendId(1)));
        let three = ids(&[0, 1, 2]);
        assert_eq!(b.pick(&three), Some(BackendId(2)), "new replica joins in turn");
        assert_eq!(b.pick(&three), Some(BackendId(0)));
    }

    #[test]
    fn lprf_prefers_least_loaded() {
        let mut b = Balancer::new(Granularity::Query, Policy::Lprf, 3);
        let healthy = ids(&[0, 1, 2]);
        b.dispatched(BackendId(0));
        b.dispatched(BackendId(0));
        b.dispatched(BackendId(1));
        assert_eq!(b.pick(&healthy), Some(BackendId(2)));
        b.dispatched(BackendId(2));
        b.dispatched(BackendId(2));
        b.dispatched(BackendId(2));
        assert_eq!(b.pick(&healthy), Some(BackendId(1)));
        b.completed(BackendId(0));
        b.completed(BackendId(0));
        assert_eq!(b.pick(&healthy), Some(BackendId(0)));
    }

    #[test]
    fn weighted_is_proportional() {
        // Backend 0 has weight 3, backend 1 weight 1.
        let mut b = Balancer::new(Granularity::Query, Policy::Weighted(vec![3, 1]), 2);
        let healthy = ids(&[0, 1]);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            counts[b.pick(&healthy).unwrap().0] += 1;
        }
        assert_eq!(counts[0] + counts[1], 400);
        assert!((290..=310).contains(&counts[0]), "counts {counts:?}");
    }

    #[test]
    fn resize_shrink_then_grow_does_not_resurrect_counters() {
        let mut b = Balancer::new(Granularity::Query, Policy::Lprf, 4);
        for _ in 0..5 {
            b.dispatched(BackendId(3));
        }
        b.dispatched(BackendId(2));
        b.resize(2); // ids 2 and 3 leave with ops still charged
        b.resize(4); // the id range grows back
        assert_eq!(b.outstanding(BackendId(2)), 0, "stale counter resurrected");
        assert_eq!(b.outstanding(BackendId(3)), 0, "stale counter resurrected");
        // LPRF must treat the re-grown ids as fresh, not as loaded.
        b.dispatched(BackendId(0));
        assert_eq!(b.pick(&ids(&[0, 3])), Some(BackendId(3)));
    }

    #[test]
    fn no_backend_means_none() {
        let mut b = Balancer::new(Granularity::Query, Policy::Lprf, 2);
        assert_eq!(b.pick(&[]), None);
    }

    #[test]
    fn pick_fresh_filters_by_mask() {
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 3);
        let all = ids(&[0, 1, 2]);
        // Only backend 1 is fresh: it must be picked regardless of cursor.
        assert_eq!(b.pick_fresh(&all, &[false, true, false]), Some(BackendId(1)));
        assert_eq!(b.pick_fresh(&all, &[false, true, false]), Some(BackendId(1)));
        // Nobody fresh: the caller gets None, never a stale replica.
        assert_eq!(b.pick_fresh(&all, &[false, false, false]), None);
        // All fresh: behaves exactly like pick().
        assert_eq!(b.pick_fresh(&all, &[true, true, true]), Some(BackendId(2)));
    }

    #[test]
    fn filtered_pick_fairness_bounded_round_robin() {
        // Freshness filtering hands pick() a *different* subset on almost
        // every call. The stable-id cursor must still spread load: over
        // many picks with random ~75%-eligible masks, every backend gets
        // a share, and no backend hogs the rotation.
        let mut b = Balancer::new(Granularity::Query, Policy::RoundRobin, 4);
        let all = ids(&[0, 1, 2, 3]);
        let mut counts = [0u64; 4];
        let mut x: u64 = 0x9e3779b97f4a7c15; // deterministic xorshift
        for _ in 0..4000 {
            let mut mask = [false; 4];
            loop {
                for m in mask.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *m = !x.is_multiple_of(4); // eligible with p = 3/4
                }
                if mask.iter().any(|&m| m) {
                    break;
                }
            }
            let picked = b.pick_fresh(&all, &mask).unwrap();
            assert!(mask[picked.0], "picked a masked-out backend");
            counts[picked.0] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 0, "a backend was starved: {counts:?}");
        assert!(max <= 2 * min, "rotation skew out of bounds: {counts:?}");
    }

    #[test]
    fn filtered_pick_fairness_bounded_lprf() {
        // LPRF under the same masks with a dispatch/complete model: each
        // pick dispatches one op that completes two picks later. LPRF
        // equalizes queue depth, not rotation — its low-id tie-break skews
        // pick counts at light load — so unlike round-robin the guarantee
        // is eligibility plus starvation-freedom, not the 2x bound.
        let mut b = Balancer::new(Granularity::Query, Policy::Lprf, 4);
        let all = ids(&[0, 1, 2, 3]);
        let mut counts = [0u64; 4];
        let mut inflight: Vec<BackendId> = Vec::new();
        let mut x: u64 = 0x243f6a8885a308d3;
        for _ in 0..4000 {
            let mut mask = [false; 4];
            loop {
                for m in mask.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *m = !x.is_multiple_of(4);
                }
                if mask.iter().any(|&m| m) {
                    break;
                }
            }
            let picked = b.pick_fresh(&all, &mask).unwrap();
            assert!(mask[picked.0]);
            counts[picked.0] += 1;
            b.dispatched(picked);
            inflight.push(picked);
            if inflight.len() > 2 {
                b.completed(inflight.remove(0));
            }
        }
        let min = *counts.iter().min().unwrap();
        assert!(min > 0, "a backend was starved: {counts:?}");
    }
}
