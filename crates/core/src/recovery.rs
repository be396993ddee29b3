//! The Sequoia-style recovery log (§4.4.2): every totally-ordered write the
//! cluster executed — the plan of an ordered statement, on its session's
//! connection, and the session's end (statement replication), or a
//! certified writeset (writeset replication) — with per-backend
//! checkpoints. A removed or failed replica rejoins by replaying the log
//! from its position, through the same `DbOp::Apply` the live fan-out
//! sends; once it is close to the head, the middleware enacts a global
//! barrier for the final hop.

use std::collections::HashMap;
use std::hash::Hash;

use replimid_sql::Writeset;

use crate::msg::{BackendId, PlanExec};

/// What one log entry carries: what the backends executed at its position.
#[derive(Debug, Clone)]
pub enum LogPayload {
    /// An ordered statement's plan, run on connection `conn` (its session's).
    Plan { conn: u64, plan: PlanExec },
    /// A session's end: connection `conn` closes, aborting the transaction
    /// it left open. Logged, so a backend that was out of rotation when the
    /// session ended closes what its replay of the session's plans opened.
    End { conn: u64 },
    Ws(Writeset),
}

/// One logged write.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Global order position (1-based, dense).
    pub seq: u64,
    pub payload: LogPayload,
}

/// Replay mode for resynchronization (E9): the paper notes a serial replayer
/// "may never catch up if the workload is update-heavy".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    Serial,
    /// Entries touching disjoint tables replay concurrently; the cost of a
    /// batch is the longest per-table chain instead of the sum.
    Parallel,
}

/// Needs-full-resync signal from [`RecoveryLog::read_after`]: the rejoiner's
/// checkpoint fell below the truncation boundary, so the log can no longer
/// bring it up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogTruncated {
    /// The checkpoint the rejoiner asked to read after.
    pub checkpoint: u64,
    /// The truncation boundary it fell below.
    pub truncated: u64,
}

#[derive(Debug, Clone)]
pub struct RecoveryLog {
    entries: Vec<LogEntry>,
    next_seq: u64,
    /// Backend -> last entry seq known applied (checkpoint).
    checkpoints: HashMap<BackendId, u64>,
    /// Entries at or below this seq were purged.
    truncated: u64,
}

impl RecoveryLog {
    pub fn new() -> Self {
        RecoveryLog {
            entries: Vec::new(),
            next_seq: 1,
            checkpoints: HashMap::new(),
            truncated: 0,
        }
    }

    /// Log what the backends execute at the next position; returns it.
    pub fn append(&mut self, payload: LogPayload) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(LogEntry { seq, payload });
        seq
    }

    pub fn head(&self) -> u64 {
        self.next_seq - 1
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Void an entry: it was ordered and logged, but *no backend executed
    /// it* and the client was told so (it will retry as a new entry).
    /// Replaying it would double-apply the retried transaction. The slot
    /// stays (positions are dense); the payload becomes a no-op.
    pub fn void(&mut self, seq: u64) {
        if seq <= self.truncated {
            return;
        }
        let idx = (seq - self.truncated - 1) as usize;
        if let Some(e) = self.entries.get_mut(idx) {
            debug_assert_eq!(e.seq, seq);
            e.payload = LogPayload::Ws(Writeset::default());
        }
    }

    /// Record that `backend` has applied everything up to `seq` ("a
    /// checkpoint is inserted, pointing to the last update statement
    /// executed by the removed node").
    pub fn checkpoint(&mut self, backend: BackendId, seq: u64) {
        self.checkpoints.insert(backend, seq);
    }

    pub fn checkpoint_of(&self, backend: BackendId) -> Option<u64> {
        self.checkpoints.get(&backend).copied()
    }

    /// Entries after `seq`, up to `limit`. An empty tail means the caller
    /// is caught up. `Err(LogTruncated)` is the explicit needs-full-resync
    /// signal: the log was truncated past the checkpoint, the entries this
    /// replica needs are gone, and the only way back is a dump restore —
    /// callers must not treat it like an empty (or misaligned) slice.
    pub fn read_after(&self, seq: u64, limit: usize) -> Result<&[LogEntry], LogTruncated> {
        if seq < self.truncated {
            return Err(LogTruncated { checkpoint: seq, truncated: self.truncated });
        }
        let skip = (seq - self.truncated) as usize;
        let slice = &self.entries[skip.min(self.entries.len())..];
        Ok(&slice[..slice.len().min(limit)])
    }

    /// Purge entries at or below `up_to`, whoever still needs them. The
    /// middleware calls it every heartbeat with the lowest replay floor of
    /// the stream's hosts, so routine trimming never forces a resync; an
    /// operator (or a test) calling it past a rejoiner's checkpoint
    /// simulates log-full pressure and sends that replica to full resync
    /// (§4.4.2). Returns the number purged.
    pub fn force_truncate(&mut self, up_to: u64) -> usize {
        // Clamp to the head: truncating "past the end" must not push
        // `truncated` beyond `next_seq - 1`, or the dense-position
        // invariant (entries[i].seq == truncated + 1 + i) breaks for every
        // later append — `void` would silently skip live entries and
        // `read_after` would demand full resync for seqs that exist.
        let up_to = up_to.min(self.head());
        if up_to <= self.truncated {
            return 0;
        }
        let n = ((up_to - self.truncated) as usize).min(self.entries.len());
        self.entries.drain(..n);
        self.truncated = up_to;
        n
    }

    /// Estimate the *virtual* replay cost of a batch: serial replay costs
    /// the sum of per-entry costs; parallel replay costs the heaviest
    /// per-table-group chain (entries writing a common table serialize).
    ///
    /// This is a *model* — a flat per-entry price with no IO, keyed by the
    /// bare names of the tables each entry writes (a logged plan names
    /// them without the session's database) — kept for the E9 what-if
    /// comparison of replay scheduling strategies. Replay itself is
    /// charged what the node executed (`DbOp::Apply`), and the MTTR
    /// numbers reported by the durability experiments (E20) add the
    /// measured cost of loading a checkpoint and re-executing the WAL
    /// suffix (`DbNode::on_restart`, `Stage::Replay`).
    pub fn replay_cost_us(entries: &[LogEntry], mode: ReplayMode, per_entry_us: u64) -> u64 {
        match mode {
            ReplayMode::Serial => entries.len() as u64 * per_entry_us,
            ReplayMode::Parallel => {
                let tables: Vec<Vec<String>> = entries
                    .iter()
                    .map(|e| match &e.payload {
                        LogPayload::Plan { plan, .. } => {
                            plan.template.written_tables().into_iter().map(|t| t.name).collect()
                        }
                        LogPayload::Ws(ws) => ws.tables().iter().map(|t| t.table().to_string()).collect(),
                        LogPayload::End { .. } => Vec::new(),
                    })
                    .collect();
                grouped_chain_cost(tables.iter().map(|t| (&t[..], per_entry_us)))
            }
        }
    }
}

/// Union-find core of the parallel cost model: items sharing any key (a
/// table) fall into one group whose costs sum; disjoint groups run
/// concurrently, so the charge is the maximum group sum.
pub(crate) fn grouped_chain_cost<'a, K: Hash + Eq + Clone + 'a>(items: impl IntoIterator<Item = (&'a [K], u64)>) -> u64 {
    let mut group_of_key: HashMap<K, usize> = HashMap::new();
    let mut parent: Vec<usize> = Vec::new();
    let mut group_cost: Vec<u64> = Vec::new();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (keys, cost) in items {
        let mut target: Option<usize> = None;
        for k in keys {
            if let Some(&g) = group_of_key.get(k) {
                let root = find(&mut parent, g);
                match target {
                    None => target = Some(root),
                    Some(existing) => {
                        let r = find(&mut parent, existing);
                        if r != root {
                            parent[root] = r;
                            group_cost[r] += group_cost[root];
                            group_cost[root] = 0;
                            target = Some(r);
                        }
                    }
                }
            }
        }
        let g = match target {
            Some(g) => find(&mut parent, g),
            None => {
                parent.push(parent.len());
                group_cost.push(0);
                parent.len() - 1
            }
        };
        for k in keys {
            group_of_key.insert(k.clone(), g);
        }
        group_cost[g] += cost;
    }
    group_cost.into_iter().max().unwrap_or(0)
}

impl Default for RecoveryLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn append(l: &mut RecoveryLog, sql: &str) -> u64 {
        let plan = PlanExec::whole(Arc::new(replimid_sql::parse_statement(sql).unwrap()));
        l.append(LogPayload::Plan { conn: 1, plan })
    }

    fn log_with(n: u64) -> RecoveryLog {
        let mut l = RecoveryLog::new();
        for i in 0..n {
            append(&mut l, &format!("UPDATE t{} SET x = {i}", i % 3));
        }
        l
    }

    fn is_writeset(e: &LogEntry) -> bool {
        matches!(e.payload, LogPayload::Ws(_))
    }

    #[test]
    fn append_and_read() {
        let l = log_with(5);
        assert_eq!(l.head(), 5);
        let tail = l.read_after(2, 10).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 3);
        let capped = l.read_after(0, 2).unwrap();
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn checkpoints_and_purge() {
        let mut l = log_with(10);
        l.checkpoint(BackendId(0), 4);
        l.checkpoint(BackendId(1), 7);
        // Purging to the lowest checkpoint keeps what every rejoiner needs.
        assert_eq!(l.force_truncate(4), 4);
        assert!(l.read_after(2, 10).is_err(), "behind truncation point");
        assert_eq!(l.read_after(4, 100).unwrap().len(), 6);
        assert_eq!(l.checkpoint_of(BackendId(0)), Some(4));
    }

    #[test]
    fn parallel_replay_exploits_disjoint_tables() {
        // 9 entries over 3 disjoint tables: parallel replay is 3x faster.
        let l = log_with(9);
        let entries = l.read_after(0, 100).unwrap();
        let serial = RecoveryLog::replay_cost_us(entries, ReplayMode::Serial, 100);
        let parallel = RecoveryLog::replay_cost_us(entries, ReplayMode::Parallel, 100);
        assert_eq!(serial, 900);
        assert_eq!(parallel, 300);
    }

    #[test]
    fn parallel_replay_merges_overlapping_groups() {
        let mut l = RecoveryLog::new();
        append(&mut l, "UPDATE t1 SET x = 1");
        append(&mut l, "UPDATE t2 SET x = 1");
        // A writeset of both joins them.
        let mut ws = Writeset::default();
        for t in ["t1", "t2"] {
            ws.entries.push(replimid_sql::mvcc::WriteRecord {
                table: replimid_sql::TableName::new("d", t),
                row: replimid_sql::mvcc::RowId(1),
                kind: replimid_sql::mvcc::WriteKind::Update,
                old: None,
                new: None,
            });
        }
        l.append(LogPayload::Ws(ws));
        append(&mut l, "UPDATE t3 SET x = 1");
        let entries = l.read_after(0, 100).unwrap();
        let parallel = RecoveryLog::replay_cost_us(entries, ReplayMode::Parallel, 10);
        // t1+t2 merge into one 30us chain; t3 alone is 10us.
        assert_eq!(parallel, 30);
    }

    /// Pins the exact truncation-boundary contract after `force_truncate`:
    /// `read_after(seq)` is `Err(LogTruncated)` (full resync) strictly
    /// below the truncation point, `Ok` starting at the first surviving
    /// entry at exactly `seq == truncated`, and `Ok(&[])` (caught up) at
    /// the head.
    #[test]
    fn force_truncate_boundary_semantics() {
        let mut l = log_with(10);
        assert_eq!(l.force_truncate(6), 6);

        // seq < truncated: the entries this replica still needs are gone.
        assert!(l.read_after(5, 100).is_err(), "below boundary: full resync");
        // seq == truncated: everything the caller needs survives — the
        // first entry handed back is exactly truncated + 1.
        let tail = l.read_after(6, 100).unwrap();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 7);
        // seq == head: caught up, empty tail (NOT a resync signal).
        assert_eq!(l.read_after(10, 100).unwrap().len(), 0);
        // Re-truncating at or below the boundary is a no-op.
        assert_eq!(l.force_truncate(6), 0);
        assert_eq!(l.force_truncate(3), 0);
    }

    /// Regression for the rejoin-after-truncation contract: a rejoiner's
    /// checkpoint relative to the boundary must yield, respectively, the
    /// explicit needs-full-resync error (strictly below), the surviving
    /// tail (exactly at), and a caught-up empty tail (at the head) — never
    /// a silently misaligned or empty slice.
    #[test]
    fn rejoiner_checkpoint_vs_truncation_boundary() {
        let mut l = log_with(10);
        l.force_truncate(6);

        // checkpoint < truncated: explicit full-resync signal, carrying
        // both positions so the caller can log/act on the gap.
        let err = l.read_after(3, 100).unwrap_err();
        assert_eq!(err, LogTruncated { checkpoint: 3, truncated: 6 });

        // checkpoint == truncated: the whole surviving tail, correctly
        // aligned (first entry is exactly truncated + 1).
        let tail = l.read_after(6, 100).unwrap();
        assert_eq!(tail.len(), 4);
        assert!(tail.iter().enumerate().all(|(i, e)| e.seq == 7 + i as u64), "misaligned tail");

        // checkpoint == head: caught up — an empty Ok, not a resync.
        assert!(l.read_after(l.head(), 100).is_ok_and(|t| t.is_empty()));
    }

    #[test]
    fn void_at_truncation_boundary() {
        let mut l = log_with(10);
        l.force_truncate(6);
        // Voiding at or below the boundary is a no-op (entry purged).
        l.void(6);
        l.void(1);
        // The first surviving entry (seq 7) is index 0: voiding it must
        // hit that entry, not its neighbour.
        assert!(!is_writeset(&l.read_after(6, 100).unwrap()[0]));
        l.void(7);
        let tail = l.read_after(6, 100).unwrap();
        assert!(is_writeset(&tail[0]), "seq 7 payload replaced with no-op writeset");
        assert!(!is_writeset(&tail[1]), "seq 8 untouched");
        // Voiding the head entry works too (last index).
        l.void(10);
        assert!(is_writeset(&l.read_after(9, 100).unwrap()[0]));
    }

    /// Regression for the over-truncation off-by-one: forcing the boundary
    /// past the head used to leave `truncated > head`, so entries appended
    /// afterwards were unreachable (`read_after` -> `None`) and unvoidable.
    #[test]
    fn force_truncate_past_head_clamps_to_head() {
        let mut l = log_with(5);
        assert_eq!(l.force_truncate(100), 5, "only 5 entries existed to purge");
        assert_eq!(l.head(), 5);
        // The boundary clamped to the head: reading at the head yields an
        // empty tail, not a resync.
        assert_eq!(l.read_after(5, 100).unwrap().len(), 0);
        let seq = append(&mut l, "UPDATE t0 SET x = 1");
        assert_eq!(seq, 6);
        // The fresh entry is dense with the boundary and fully reachable.
        let tail = l.read_after(5, 100).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 6);
        l.void(6);
        assert!(is_writeset(&l.read_after(5, 100).unwrap()[0]), "fresh entry voidable");
    }
}
