//! Metrics the paper says replication evaluations should report (§5.1):
//! latency distributions, throughput, abort/commit counts, and — the
//! neglected ones — availability, MTTF, MTTR, and downtime windows.

/// Log-scaled latency histogram (microseconds), power-of-two buckets from
/// 1µs to ~17 minutes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 31],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { buckets: [0; 31], count: 0, sum: 0, max: 0 }
    }

    pub fn record(&mut self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(30);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += us;
        self.max = self.max.max(us);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (µs). Buckets are approximate;
    /// the sum is not — trace reconciliation depends on that.
    pub fn sum_us(&self) -> u64 {
        self.sum
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the upper bound of the containing bucket,
    /// clamped to the maximum recorded sample (a bucket bound can exceed
    /// every sample it contains — one 1µs sample must not report p99=2µs).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << (i + 1)).min(self.max);
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Tracks service availability over virtual time: callers report each
/// request outcome; the tracker reconstructs downtime windows and derives
/// MTTF/MTTR/nines.
#[derive(Debug, Clone, Default)]
pub struct AvailabilityTracker {
    /// (start_us, end_us) of completed outage windows.
    outages: Vec<(u64, u64)>,
    /// Start of the current outage, if we are in one.
    down_since: Option<u64>,
    first_event: Option<u64>,
    last_event: u64,
    /// Most recent success: failure reports may carry *backdated*
    /// timestamps (when the failed request was dispatched), but an outage
    /// can never begin before the last observed success.
    last_ok: u64,
}

impl AvailabilityTracker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, now_us: u64, ok: bool) {
        if self.first_event.is_none() {
            self.first_event = Some(now_us);
        }
        self.last_event = self.last_event.max(now_us);
        if ok {
            self.last_ok = self.last_ok.max(now_us);
        }
        match (ok, self.down_since) {
            (false, None) => self.down_since = Some(now_us.max(self.last_ok)),
            // A success backdated before the outage started (failure
            // reports carry dispatch times, and `start` is clamped to
            // `last_ok`, which can sit in this report's future) proves
            // nothing about recovery: the outage stays open. Pushing
            // `(start, now_us)` there would invert the window and
            // underflow `downtime_us`.
            (true, Some(start)) if now_us >= start => {
                self.outages.push((start, now_us));
                self.down_since = None;
            }
            _ => {}
        }
    }

    /// Close the observation window at `end_us`. An open outage can start
    /// *after* `end_us` (backdated failure clamped to a later `last_ok`);
    /// clamp so the recorded window is never inverted.
    pub fn finish(&mut self, end_us: u64) {
        self.last_event = self.last_event.max(end_us);
        if let Some(start) = self.down_since.take() {
            self.outages.push((start, end_us.max(start)));
        }
    }

    pub fn outage_count(&self) -> usize {
        self.outages.len()
    }

    pub fn downtime_us(&self) -> u64 {
        // Both push sites guarantee e >= s; saturate anyway so a bad window
        // can never panic the metrics path.
        self.outages.iter().map(|(s, e)| e.saturating_sub(*s)).sum()
    }

    pub fn observed_us(&self) -> u64 {
        match self.first_event {
            Some(first) => self.last_event.saturating_sub(first),
            None => 0,
        }
    }

    /// Mean time to repair: average outage length.
    pub fn mttr_us(&self) -> f64 {
        if self.outages.is_empty() {
            0.0
        } else {
            self.downtime_us() as f64 / self.outages.len() as f64
        }
    }

    /// Mean time to failure: average uptime between outages.
    pub fn mttf_us(&self) -> f64 {
        if self.outages.is_empty() {
            self.observed_us() as f64
        } else {
            let uptime = self.observed_us().saturating_sub(self.downtime_us());
            uptime as f64 / self.outages.len() as f64
        }
    }

    /// Availability ratio: MTTF / (MTTF + MTTR) ≈ uptime / total.
    pub fn availability(&self) -> f64 {
        let total = self.observed_us();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.downtime_us() as f64 / total as f64
    }

    /// "Nines" of availability (the paper's 5-nines = 5.26 min/year bar).
    pub fn nines(&self) -> f64 {
        let a = self.availability();
        if a >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - a).log10()
        }
    }

    pub fn outage_windows(&self) -> &[(u64, u64)] {
        &self.outages
    }
}

/// Middleware-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub reads: u64,
    pub writes: u64,
    pub commits: u64,
    pub aborts: u64,
    pub certification_failures: u64,
    pub rejected_statements: u64,
    pub rewritten_statements: u64,
    pub failovers: u64,
    pub lost_transactions: u64,
    pub divergence_detected: u64,
    /// Backends quarantined by the latency circuit breaker.
    pub quarantine_trips: u64,
    /// Half-open probe reads routed to quarantined backends.
    pub quarantine_probes: u64,
    /// Quarantined backends that passed a probe and rejoined rotation.
    pub quarantine_rejoins: u64,
    /// Failovers where the oracle says the backend was actually alive —
    /// the detector was fooled by a brownout or lossy link.
    pub false_evictions: u64,
    /// Writes rejected fast because the cluster was in degraded read-only
    /// mode (write quorum lost).
    pub degraded_write_rejects: u64,
    /// Tripwire: reads that reached a quarantined backend through the
    /// normal path (must stay 0 — probes are counted separately).
    pub reads_routed_to_quarantined: u64,
    /// Group-commit flushes triggered by the batch filling (`batch_max`).
    pub batch_flush_size: u64,
    /// Group-commit flushes triggered by the deadline timer.
    pub batch_flush_deadline: u64,
    /// Freshness-routed reads where at least one online candidate was
    /// excluded as stale (the freshness filter actually bit).
    pub fresh_filtered_stale: u64,
    /// Freshness-routed reads that fell back to the primary because no
    /// replica had caught up to the session's stamp.
    pub fresh_fallback_primary: u64,
    /// Reads parked in the freshness wait queue until a replica caught up.
    pub freshness_waits: u64,
    /// Parked reads whose wait deadline expired (served by the primary or
    /// failed as unavailable).
    pub freshness_wait_timeouts: u64,
    /// Plan-cache lookups that found a prepared template (admission skipped
    /// the parser).
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that missed (template prepared and inserted) or
    /// hit an uncacheable statement shape.
    pub plan_cache_misses: u64,
    /// Prepared templates evicted by the cache's LRU bound.
    pub plan_cache_evictions: u64,
    /// Multi-group transactions committed by the cross-group 2PC (every
    /// involved group voted yes).
    pub xgroup_commits: u64,
    /// Multi-group transactions aborted because at least one involved
    /// group voted no (reservations in yes-voting groups retracted).
    pub xgroup_aborts: u64,
    /// Graceful drains started (`AdminCmd::DrainBackend` accepted).
    pub drains_started: u64,
    /// Drains that reached `Removed` — gracefully (in-flight work allowed
    /// to complete) or forcibly (the backend died mid-drain).
    pub drains_completed: u64,
    /// Removed backends re-admitted by `AdminCmd::AddBackend`; the next
    /// pong starts the normal rejoin procedure.
    pub backends_added: u64,
}

/// Tracks time spent in degraded read-only mode (write quorum lost but
/// reads still served). Degraded time is *not* downtime — that distinction
/// is the point — so it gets its own tracker beside [`AvailabilityTracker`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradedTracker {
    since: Option<u64>,
    total_us: u64,
    episodes: u64,
}

impl DegradedTracker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_degraded(&self) -> bool {
        self.since.is_some()
    }

    pub fn enter(&mut self, now_us: u64) {
        if self.since.is_none() {
            self.since = Some(now_us);
            self.episodes += 1;
        }
    }

    pub fn exit(&mut self, now_us: u64) {
        if let Some(start) = self.since.take() {
            self.total_us += now_us.saturating_sub(start);
        }
    }

    /// Close the observation window (still-degraded time counts).
    pub fn finish(&mut self, end_us: u64) {
        self.exit(end_us);
    }

    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    pub fn episodes(&self) -> u64 {
        self.episodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for us in [100, 200, 300, 400, 50_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        assert!(h.mean_us() > 10_000.0 / 5.0);
        assert!(h.quantile_us(0.5) >= 200 && h.quantile_us(0.5) <= 512);
        assert!(h.quantile_us(1.0) >= 50_000);
        assert_eq!(h.max_us(), 50_000);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        // Regression: a single 1µs sample lands in the [1,2) bucket, whose
        // upper bound (2) used to be reported as p99 > max.
        let mut h = Histogram::new();
        h.record(1);
        assert_eq!(h.quantile_us(0.99), 1);
        assert_eq!(h.quantile_us(1.0), h.max_us());

        let mut h = Histogram::new();
        for us in [3, 5, 700, 50_000] {
            h.record(us);
        }
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert!(
                h.quantile_us(q) <= h.max_us(),
                "q={q}: {} > max {}",
                h.quantile_us(q),
                h.max_us()
            );
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1_000_000);
    }

    #[test]
    fn availability_windows() {
        let mut t = AvailabilityTracker::new();
        t.record(0, true);
        t.record(1_000_000, false); // outage starts
        t.record(1_500_000, false);
        t.record(2_000_000, true); // repaired after 1s
        t.record(10_000_000, false);
        t.finish(11_000_000); // still down at close: 1s outage
        assert_eq!(t.outage_count(), 2);
        assert_eq!(t.downtime_us(), 2_000_000);
        assert!((t.mttr_us() - 1_000_000.0).abs() < 1.0);
        let a = t.availability();
        assert!((0.8..0.85).contains(&a), "availability {a}");
        assert!(t.nines() < 1.0);
    }

    #[test]
    fn availability_backdated_reports_never_invert_windows() {
        // Failure reports are backdated to the failed request's dispatch
        // time (see Middleware::backend_failed), so `record(t0, false)` with
        // t0 in the past is normal. The outage start is clamped to the last
        // observed success — which can be *later* than a subsequently
        // reported success or an early `finish`.
        let mut t = AvailabilityTracker::new();
        t.record(5_000_000, true); // last_ok = 5s
        t.record(1_000_000, false); // backdated failure -> outage opens at 5s
        t.record(3_000_000, true); // backdated success: outage must stay open
        assert_eq!(t.outage_count(), 0);
        // Closing the window before the clamped start must not push an
        // inverted (start > end) outage; downtime stays 0, no underflow.
        t.finish(2_000_000);
        assert_eq!(t.outage_count(), 1);
        assert_eq!(t.downtime_us(), 0);
        let _ = t.mttr_us();
        assert!(t.availability() <= 1.0);

        // Same shape, but the repair arrives after the clamped start: the
        // window is (5s, 6s), exactly 1s of downtime.
        let mut t = AvailabilityTracker::new();
        t.record(5_000_000, true);
        t.record(1_000_000, false);
        t.record(6_000_000, true);
        assert_eq!(t.outage_count(), 1);
        assert_eq!(t.downtime_us(), 1_000_000);
    }

    #[test]
    fn degraded_tracker_episodes() {
        let mut d = DegradedTracker::new();
        assert!(!d.is_degraded());
        d.enter(1_000);
        d.enter(2_000); // idempotent while degraded
        assert!(d.is_degraded());
        d.exit(5_000);
        assert_eq!(d.total_us(), 4_000);
        assert_eq!(d.episodes(), 1);
        d.enter(10_000);
        d.finish(12_000);
        assert_eq!(d.total_us(), 6_000);
        assert_eq!(d.episodes(), 2);
        assert!(!d.is_degraded());
    }

    #[test]
    fn availability_perfect_service() {
        let mut t = AvailabilityTracker::new();
        t.record(0, true);
        t.record(1_000, true);
        t.finish(2_000);
        assert_eq!(t.availability(), 1.0);
        assert!(t.nines().is_infinite());
        assert_eq!(t.mttr_us(), 0.0);
    }
}
