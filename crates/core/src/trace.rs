//! Transaction-level tracing with per-stage latency attribution (§5.1).
//!
//! Every client transaction carries a [`TraceId`]; each layer (client,
//! middleware, database node) owns a [`TraceSink`] and appends virtual-time
//! [`SpanRec`]s at its event transitions. Because spans are recorded with a
//! per-trace *cursor* — every event records the window since the previous
//! event on that trace and advances the cursor — the spans of a completed
//! trace tile its end-to-end window exactly: no lost and no double-counted
//! time. Any interval a stage forgot to claim surfaces as [`Stage::Other`]
//! instead of silently vanishing, so the reconciliation property
//! (`Σ stage_us == end - start`) holds by construction and the `Other` row
//! in a breakdown table is the instrumentation-coverage gauge.
//!
//! All timestamps are simnet virtual microseconds: two same-seed runs
//! produce bit-identical traces, and the experiments double-run diff in
//! `scripts/verify.sh` covers every number derived from them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::metrics::Histogram;

/// Globally unique transaction trace id (allocated by the issuing client:
/// session id in the high bits, per-client transaction counter in the low).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// The span taxonomy. Client-side stages and middleware-side stages live in
/// the same enum so one waterfall can interleave both sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Request arrival → dispatch decision at the middleware (queueing /
    /// parse / dedup; instantaneous in the simulator, recorded for count).
    Admission,
    /// Load-balancer pick (zero-width marker; the pick itself is free).
    BalancerPick,
    /// Open-loop driver admission queue: arrival → dispatch, the wait a
    /// request spends queued because the in-flight bound was saturated.
    /// Zero for closed-loop clients (they never queue ahead of admission).
    QueueWait,
    /// Group-commit buffering: admission → batch flush (size or deadline).
    /// Zero-width when batching is off (`batch_max <= 1`).
    BatchWait,
    /// Freshness-constrained read routing: read parked because no replica
    /// had applied the session's last committed write yet → dispatch once
    /// the freshness vector catches up (or the wait deadline routes it to
    /// the primary). Never recorded under `ReadPolicy::Any`.
    FreshnessWait,
    /// Total-order wait: GCS publish → self-delivery at the origin.
    Order,
    /// Backend execution window as observed by the middleware (dispatch →
    /// response), including writeset extraction.
    Execute,
    /// Certification wait: Certify publish → ordered verdict at the origin.
    Certify,
    /// Cross-group commit wait (partial replication): first involved
    /// group's prepare delivery → the last involved group's vote arriving,
    /// i.e. the 2PC decision point. Zero-width for single-group
    /// transactions and absent entirely without a placement.
    CrossGroupWait,
    /// Replication fan-out: commit/apply fan-out → last peer ack.
    Fanout,
    /// Client-side: statement sent → timeout fired, and the backed-off
    /// failover resend wait that follows.
    Retry,
    /// Client-side: abort-retry backoff timer wait.
    Backoff,
    /// Client-side: ROLLBACK round trip after a failed attempt.
    Rollback,
    /// Client-side: statement send → reply (the full middleware round trip
    /// as the client sees it, network included).
    ClientRtt,
    /// Database-node busy window for one operation (queue + service time).
    DbService,
    /// Database-node crash recovery: checkpoint load + WAL suffix replay +
    /// durable-device IO, charged on restart (detached — recovery belongs
    /// to no client transaction).
    Replay,
    /// Residual time no stage claimed (tiling catch-all; should stay 0).
    Other,
}

pub const N_STAGES: usize = 17;

impl Stage {
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Admission,
        Stage::BalancerPick,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::FreshnessWait,
        Stage::Order,
        Stage::Execute,
        Stage::Certify,
        Stage::CrossGroupWait,
        Stage::Fanout,
        Stage::Retry,
        Stage::Backoff,
        Stage::Rollback,
        Stage::ClientRtt,
        Stage::DbService,
        Stage::Replay,
        Stage::Other,
    ];

    pub fn idx(self) -> usize {
        match self {
            Stage::Admission => 0,
            Stage::BalancerPick => 1,
            Stage::QueueWait => 2,
            Stage::BatchWait => 3,
            Stage::FreshnessWait => 4,
            Stage::Order => 5,
            Stage::Execute => 6,
            Stage::Certify => 7,
            Stage::CrossGroupWait => 8,
            Stage::Fanout => 9,
            Stage::Retry => 10,
            Stage::Backoff => 11,
            Stage::Rollback => 12,
            Stage::ClientRtt => 13,
            Stage::DbService => 14,
            Stage::Replay => 15,
            Stage::Other => 16,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::BalancerPick => "balancer-pick",
            Stage::QueueWait => "queue-wait",
            Stage::BatchWait => "batch-wait",
            Stage::FreshnessWait => "freshness-wait",
            Stage::Order => "order",
            Stage::Execute => "execute",
            Stage::Certify => "certify",
            Stage::CrossGroupWait => "xgroup-wait",
            Stage::Fanout => "fanout",
            Stage::Retry => "retry",
            Stage::Backoff => "backoff",
            Stage::Rollback => "rollback",
            Stage::ClientRtt => "client-rtt",
            Stage::DbService => "db-service",
            Stage::Replay => "replay",
            Stage::Other => "other",
        }
    }
}

/// One recorded span: `stage` owned the trace's time from `start_us` to
/// `end_us` (virtual microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub stage: Stage,
    pub start_us: u64,
    pub end_us: u64,
}

impl SpanRec {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug, Clone)]
struct OpenTrace {
    start_us: u64,
    cursor_us: u64,
    spans: Vec<SpanRec>,
}

/// Compact record of a completed trace: enough for the reconciliation
/// property and per-second series without retaining every span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub trace: TraceId,
    pub start_us: u64,
    pub end_us: u64,
    /// Total microseconds attributed to each stage (indexed by
    /// [`Stage::idx`]); sums to exactly `end_us - start_us` unless a stage
    /// held more than `u32::MAX` µs (71 virtual minutes), where it
    /// saturates. `u32` keeps a summary at 96 bytes instead of 168.
    pub stage_us: [u32; N_STAGES],
}

impl TraceSummary {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// A completed trace retained with full spans (top-K slowest only), so a
/// waterfall can be rendered after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    pub trace: TraceId,
    pub start_us: u64,
    pub end_us: u64,
    pub spans: Vec<SpanRec>,
}

impl CompletedTrace {
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Bounded, deterministic in-memory sink for trace spans.
///
/// - per-stage [`Histogram`]s aggregate every span ever recorded;
/// - a capped ring buffer keeps the most recent [`TraceSummary`]s; it is
///   copy-on-write, so a clone (a metrics snapshot) shares it until either
///   side writes;
/// - the top-K slowest completed traces are retained with full spans for
///   waterfall rendering.
///
/// All internal collections are ordered (BTreeMap / sorted Vec) and every
/// bound evicts deterministically, so two same-seed runs produce identical
/// sinks.
#[derive(Debug, Clone)]
pub struct TraceSink {
    stage_hist: Vec<Histogram>,
    open: BTreeMap<u64, OpenTrace>,
    completed: Arc<VecDeque<TraceSummary>>,
    slowest: Vec<CompletedTrace>,
    /// Completed traces ever recorded (ring evictions included).
    pub completed_count: u64,
    /// Open traces evicted before completion (bound pressure) plus spans
    /// addressed to traces this sink never opened.
    pub dropped: u64,
    max_open: usize,
    ring_cap: usize,
    top_k: usize,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    pub fn new() -> Self {
        Self::with_bounds(4096, 4096, 8)
    }

    pub fn with_bounds(max_open: usize, ring_cap: usize, top_k: usize) -> Self {
        TraceSink {
            stage_hist: (0..N_STAGES).map(|_| Histogram::new()).collect(),
            open: BTreeMap::new(),
            completed: Arc::default(),
            slowest: Vec::new(),
            completed_count: 0,
            dropped: 0,
            max_open: max_open.max(1),
            ring_cap,
            top_k,
        }
    }

    /// Open a trace window at `now_us`. Re-opening an id already open is a
    /// no-op (resends dedup upstream; first arrival wins).
    pub fn begin(&mut self, trace: TraceId, now_us: u64) {
        if self.open.contains_key(&trace.0) {
            return;
        }
        if self.open.len() >= self.max_open {
            // Trace ids are allocated monotonically, so the smallest key is
            // the oldest open trace: evict it deterministically.
            if let Some((&oldest, _)) = self.open.iter().next() {
                self.open.remove(&oldest);
                self.dropped += 1;
            }
        }
        self.open.insert(
            trace.0,
            OpenTrace { start_us: now_us, cursor_us: now_us, spans: Vec::new() },
        );
    }

    /// Attribute the window since the trace's last event to `stage` and
    /// advance the cursor to `now_us`. Unknown/evicted traces are counted
    /// in `dropped` and otherwise ignored.
    pub fn span(&mut self, trace: TraceId, stage: Stage, now_us: u64) {
        let Some(open) = self.open.get_mut(&trace.0) else {
            self.dropped += 1;
            return;
        };
        let start = open.cursor_us;
        let end = now_us.max(start);
        open.spans.push(SpanRec { stage, start_us: start, end_us: end });
        open.cursor_us = end;
        self.stage_hist[stage.idx()].record(end - start);
    }

    /// Close a trace at `now_us`. Residual time the stages did not claim is
    /// attributed to [`Stage::Other`], preserving exact tiling.
    pub fn end(&mut self, trace: TraceId, now_us: u64) {
        let Some(mut open) = self.open.remove(&trace.0) else {
            self.dropped += 1;
            return;
        };
        let end = now_us.max(open.cursor_us);
        if end > open.cursor_us {
            open.spans
                .push(SpanRec { stage: Stage::Other, start_us: open.cursor_us, end_us: end });
            self.stage_hist[Stage::Other.idx()].record(end - open.cursor_us);
        }
        let mut stage_us = [0u64; N_STAGES];
        for s in &open.spans {
            stage_us[s.stage.idx()] += s.duration_us();
        }
        let stage_us = stage_us.map(|us| u32::try_from(us).unwrap_or(u32::MAX));
        let summary = TraceSummary {
            trace,
            start_us: open.start_us,
            end_us: end,
            stage_us,
        };
        self.completed_count += 1;
        self.push_completed(summary);
        if self.top_k > 0 {
            self.slowest.push(CompletedTrace {
                trace,
                start_us: open.start_us,
                end_us: end,
                spans: open.spans,
            });
            // Slowest first; ties broken by trace id so eviction is
            // deterministic.
            self.slowest
                .sort_by(|a, b| b.duration_us().cmp(&a.duration_us()).then(a.trace.cmp(&b.trace)));
            self.slowest.truncate(self.top_k);
        }
    }

    /// Append to the ring, evicting the oldest summary at `ring_cap`.
    fn push_completed(&mut self, summary: TraceSummary) {
        if self.ring_cap == 0 {
            return;
        }
        let ring = Arc::make_mut(&mut self.completed);
        if ring.len() >= self.ring_cap {
            ring.pop_front();
        }
        ring.push_back(summary);
    }

    /// Record a stand-alone span into the stage histograms without opening
    /// a trace window (used by layers that observe work keyed by op id
    /// rather than owning the transaction, e.g. database-node service time).
    pub fn record_detached(&mut self, stage: Stage, start_us: u64, end_us: u64) {
        self.stage_hist[stage.idx()].record(end_us.saturating_sub(start_us));
    }

    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stage_hist[stage.idx()]
    }

    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Most recent completed-trace summaries, oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &TraceSummary> {
        self.completed.iter()
    }

    /// Top-K slowest completed traces, slowest first, with full spans.
    pub fn slowest(&self) -> &[CompletedTrace] {
        &self.slowest
    }

    /// Merge another sink's aggregates (stage histograms, counters, top-K,
    /// ring). Open traces are not merged.
    pub fn merge(&mut self, other: &TraceSink) {
        for (a, b) in self.stage_hist.iter_mut().zip(&other.stage_hist) {
            a.merge(b);
        }
        self.completed_count += other.completed_count;
        self.dropped += other.dropped;
        for s in other.completed.iter() {
            self.push_completed(s.clone());
        }
        if self.top_k > 0 {
            self.slowest.extend(other.slowest.iter().cloned());
            self.slowest
                .sort_by(|a, b| b.duration_us().cmp(&a.duration_us()).then(a.trace.cmp(&b.trace)));
            self.slowest.truncate(self.top_k);
        }
    }

    /// Render an ASCII waterfall for a captured trace (must be in the
    /// top-K ring). Bars are scaled to the trace's end-to-end window.
    pub fn waterfall(&self, trace: TraceId) -> Option<String> {
        let t = self.slowest.iter().find(|t| t.trace == trace)?;
        Some(render_waterfall(t))
    }
}

/// ASCII waterfall: one row per span, bar offset/width proportional to the
/// span's position in the trace's end-to-end window.
pub fn render_waterfall(t: &CompletedTrace) -> String {
    const COLS: usize = 48;
    let total = t.duration_us().max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "trace {} — {} us end-to-end, {} spans\n",
        t.trace.0,
        t.duration_us(),
        t.spans.len()
    ));
    for s in &t.spans {
        let off = ((s.start_us - t.start_us) as u128 * COLS as u128 / total as u128) as usize;
        let mut width =
            ((s.duration_us() as u128 * COLS as u128).div_ceil(total as u128)) as usize;
        if s.duration_us() == 0 {
            width = 0;
        }
        let off = off.min(COLS);
        let width = width.min(COLS - off);
        let mut bar = String::new();
        bar.push_str(&" ".repeat(off));
        if width == 0 {
            bar.push('|');
        } else {
            bar.push_str(&"#".repeat(width));
        }
        out.push_str(&format!(
            "  {:<13} [{bar:<cols$}] {:>8} us\n",
            s.stage.name(),
            s.duration_us(),
            cols = COLS + 1,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_exactly() {
        let mut sink = TraceSink::new();
        let t = TraceId(7);
        sink.begin(t, 100);
        sink.span(t, Stage::Admission, 100); // zero-width
        sink.span(t, Stage::Order, 350);
        sink.span(t, Stage::Execute, 900);
        sink.end(t, 1_000); // 100us unclaimed -> Other
        let s = sink.completed().next().unwrap();
        assert_eq!(s.duration_us(), 900);
        assert_eq!(s.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(), 900);
        assert_eq!(s.stage_us[Stage::Order.idx()], 250);
        assert_eq!(s.stage_us[Stage::Execute.idx()], 550);
        assert_eq!(s.stage_us[Stage::Other.idx()], 100);
        assert_eq!(sink.completed_count, 1);
        assert_eq!(sink.open_count(), 0);
    }

    #[test]
    fn top_k_keeps_slowest_deterministically() {
        let mut sink = TraceSink::with_bounds(64, 64, 2);
        for (id, dur) in [(1u64, 500u64), (2, 900), (3, 900), (4, 100)] {
            let t = TraceId(id);
            sink.begin(t, 0);
            sink.span(t, Stage::Execute, dur);
            sink.end(t, dur);
        }
        let slow: Vec<u64> = sink.slowest().iter().map(|t| t.trace.0).collect();
        // Ties (2, 3) break toward the lower trace id.
        assert_eq!(slow, vec![2, 3]);
        assert!(sink.waterfall(TraceId(2)).unwrap().contains("900 us"));
        assert!(sink.waterfall(TraceId(4)).is_none());
    }

    #[test]
    fn open_bound_evicts_oldest() {
        let mut sink = TraceSink::with_bounds(2, 8, 2);
        sink.begin(TraceId(1), 0);
        sink.begin(TraceId(2), 0);
        sink.begin(TraceId(3), 0); // evicts 1
        assert_eq!(sink.open_count(), 2);
        assert_eq!(sink.dropped, 1);
        sink.end(TraceId(1), 10); // already evicted: dropped, not completed
        assert_eq!(sink.dropped, 2);
        assert_eq!(sink.completed_count, 0);
    }

    #[test]
    fn backwards_clock_is_clamped() {
        let mut sink = TraceSink::new();
        let t = TraceId(1);
        sink.begin(t, 100);
        sink.span(t, Stage::Execute, 50); // never happens in simnet; clamp
        sink.end(t, 80);
        let s = sink.completed().next().unwrap();
        assert_eq!(s.duration_us(), 0);
        assert_eq!(s.stage_us.iter().map(|&us| u64::from(us)).sum::<u64>(), 0);
    }

    #[test]
    fn long_stage_saturates_and_shorter_traces_still_tile() {
        let mut sink = TraceSink::new();
        let long = u64::from(u32::MAX) + 5;
        sink.begin(TraceId(1), 0);
        sink.span(TraceId(1), Stage::Order, 10);
        sink.span(TraceId(1), Stage::Execute, 10 + long);
        sink.end(TraceId(1), 20 + long);
        let just_fits = u64::from(u32::MAX) - 30;
        sink.begin(TraceId(2), 0);
        sink.span(TraceId(2), Stage::Execute, just_fits);
        sink.end(TraceId(2), just_fits + 30);
        let s: Vec<_> = sink.completed().collect();
        assert_eq!(s[0].duration_us(), 20 + long, "the window itself stays exact");
        assert_eq!(s[0].stage_us[Stage::Execute.idx()], u32::MAX);
        assert_eq!(s[0].stage_us[Stage::Order.idx()], 10);
        assert_eq!(s[0].stage_us[Stage::Other.idx()], 10);
        let sum: u64 = s[1].stage_us.iter().map(|&us| u64::from(us)).sum();
        assert_eq!(sum, s[1].duration_us(), "a trace under u32::MAX µs per stage tiles");
        assert_eq!(s[1].stage_us[Stage::Other.idx()], 30);
    }

    #[test]
    fn a_summary_is_96_bytes() {
        let size = std::mem::size_of::<TraceSummary>();
        println!("footprint: size_of TraceSummary: {size} bytes");
        assert_eq!(size, 96);
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let mut sink = TraceSink::with_bounds(8, 3, 1);
        for id in 0..10u64 {
            sink.begin(TraceId(id), id * 10);
            sink.end(TraceId(id), id * 10 + 5);
        }
        assert_eq!(sink.completed_count, 10);
        let kept: Vec<u64> = sink.completed().map(|s| s.trace.0).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    fn ring_ids(sink: &TraceSink) -> Vec<u64> {
        sink.completed().map(|s| s.trace.0).collect()
    }

    fn complete(sink: &mut TraceSink, ids: std::ops::Range<u64>) {
        for id in ids {
            sink.begin(TraceId(id), id * 10);
            sink.end(TraceId(id), id * 10 + 5);
        }
    }

    #[test]
    fn a_clone_shares_the_ring() {
        let mut sink = TraceSink::with_bounds(8, 4, 1);
        complete(&mut sink, 0..3);
        let snap = sink.clone();
        assert!(Arc::ptr_eq(&sink.completed, &snap.completed));
        assert_eq!(ring_ids(&snap), vec![0, 1, 2]);
    }

    #[test]
    fn a_write_after_a_clone_leaves_the_clone_alone() {
        let mut sink = TraceSink::with_bounds(8, 4, 1);
        complete(&mut sink, 0..4);
        let snap = sink.clone();
        complete(&mut sink, 4..6);
        assert!(!Arc::ptr_eq(&sink.completed, &snap.completed));
        assert_eq!(ring_ids(&snap), vec![0, 1, 2, 3]);
        assert_eq!(snap.completed_count, 4);
        assert_eq!(ring_ids(&sink), vec![2, 3, 4, 5]);
        // Once the snapshot is gone the sink writes in place again.
        drop(snap);
        let before = Arc::as_ptr(&sink.completed);
        complete(&mut sink, 6..7);
        assert_eq!(Arc::as_ptr(&sink.completed), before);
        assert_eq!(ring_ids(&sink), vec![3, 4, 5, 6]);
    }

    #[test]
    fn merge_appends_in_order_and_evicts_the_oldest() {
        let mut a = TraceSink::with_bounds(8, 5, 1);
        complete(&mut a, 0..3);
        let mut b = TraceSink::with_bounds(8, 5, 1);
        complete(&mut b, 10..14);
        let a_snap = a.clone();
        a.merge(&b);
        assert_eq!(ring_ids(&a), vec![2, 10, 11, 12, 13]);
        assert_eq!(a.completed_count, 7);
        assert_eq!(ring_ids(&a_snap), vec![0, 1, 2], "the snapshot keeps its ring");
        assert_eq!(ring_ids(&b), vec![10, 11, 12, 13]);
        // A sink without a ring keeps nothing from a merge either.
        let mut none = TraceSink::with_bounds(8, 0, 1);
        none.merge(&b);
        assert_eq!(ring_ids(&none), Vec::<u64>::new());
        assert_eq!(none.completed_count, 4);
    }

    #[test]
    fn waterfall_renders_all_spans() {
        let mut sink = TraceSink::new();
        let t = TraceId(42);
        sink.begin(t, 0);
        sink.span(t, Stage::Admission, 0);
        sink.span(t, Stage::Order, 400);
        sink.span(t, Stage::Execute, 1_000);
        sink.end(t, 1_000);
        let w = sink.waterfall(t).unwrap();
        assert!(w.contains("admission"));
        assert!(w.contains("order"));
        assert!(w.contains("execute"));
        assert!(w.contains("1000 us end-to-end"));
    }
}
