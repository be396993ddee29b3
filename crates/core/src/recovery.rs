//! The Sequoia-style recovery log (§4.4.2): every totally-ordered write the
//! cluster executed — statement text (statement replication) or certified
//! writeset (writeset replication) — with per-backend checkpoints. A removed
//! or failed replica rejoins by replaying the log from its checkpoint; once
//! it is close to the head, the middleware enacts a global barrier for the
//! final hop.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use replimid_sql::mvcc::{RowId, WriteKind, WriteRecord};
use replimid_sql::{BinlogEntry, CommitTs, Lsn, Writeset};

use crate::msg::BackendId;

/// What one log entry carries.
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    Sql { default_db: Option<Arc<str>>, sql: String },
    Ws(Writeset),
}

/// One logged write.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Global order position (1-based, dense).
    pub seq: u64,
    pub payload: LogPayload,
    /// Tables written (for parallel replay grouping). Shared by every entry
    /// that writes the same set (see [`RecoveryLog::append_sql`]).
    pub tables: Arc<[String]>,
}

impl LogEntry {
    pub fn is_writeset(&self) -> bool {
        matches!(self.payload, LogPayload::Ws(_))
    }
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

/// Convert log entries into the `BinlogEntry` shape the database node's
/// apply path consumes. For SQL entries the writeset carries synthetic
/// zero-row records naming the written tables, so the parallel-apply cost
/// model can group them; the statements themselves drive execution.
pub fn to_binlog_entries(entries: &[LogEntry]) -> Vec<BinlogEntry> {
    entries
        .iter()
        .map(|e| match &e.payload {
            LogPayload::Sql { default_db, sql } => BinlogEntry {
                lsn: Lsn(e.seq),
                commit_ts: CommitTs(e.seq),
                default_db: default_db.as_deref().map(str::to_string),
                statements: vec![sql.clone()],
                writeset: Writeset {
                    entries: e
                        .tables
                        .iter()
                        .map(|t| WriteRecord {
                            database: String::new(),
                            table: t.clone(),
                            row: RowId(0),
                            kind: WriteKind::Update,
                            old: None,
                            new: None,
                            temp: false,
                        })
                        .collect(),
                    counters: None,
                },
            },
            LogPayload::Ws(ws) => BinlogEntry {
                lsn: Lsn(e.seq),
                commit_ts: CommitTs(e.seq),
                default_db: None,
                statements: Vec::new(),
                writeset: ws.clone(),
            },
        })
        .collect()
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
    /// Every written-table set and default database logged so far, one
    /// allocation each, shared by the entries that carry them: trimming an
    /// entry then frees only its own payload. Freeing three more small
    /// strings per entry, a heartbeat after they were allocated, cost
    /// write-sat about a third more wall time per operation. Bounded by the
    /// schema, not by the run.
    tables: HashMap<Vec<String>, Arc<[String]>>,
    dbs: HashMap<String, Arc<str>>,
}

impl RecoveryLog {
    pub fn new() -> Self {
        RecoveryLog {
            entries: Vec::new(),
            next_seq: 1,
            checkpoints: HashMap::new(),
            truncated: 0,
            tables: HashMap::new(),
            dbs: HashMap::new(),
        }
    }

    pub fn append_sql(&mut self, default_db: Option<String>, sql: String, tables: Vec<String>) -> u64 {
        let default_db = default_db
            .map(|db| self.dbs.entry(db).or_insert_with_key(|db| Arc::from(db.as_str())).clone());
        self.push(LogPayload::Sql { default_db, sql }, tables)
    }

    pub fn append_ws(&mut self, ws: Writeset) -> u64 {
        let tables = ws.tables().into_iter().map(|(_, t)| t).collect();
        self.push(LogPayload::Ws(ws), tables)
    }

    fn push(&mut self, payload: LogPayload, tables: Vec<String>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tables = self.tables.entry(tables).or_insert_with_key(|t| t.as_slice().into()).clone();
        self.entries.push(LogEntry { seq, payload, tables });
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
            e.tables = Arc::from([]);
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
    /// per-table-group chain (entries sharing any table serialize).
    ///
    /// This is a *model* — a flat per-entry price with no IO — kept for the
    /// E9 what-if comparison of replay scheduling strategies. The MTTR
    /// numbers reported by the durability experiments (E20) do not use it:
    /// there, a restarted node pays the measured cost of loading its
    /// checkpoint, scanning and re-executing its WAL suffix, and the
    /// block-device time of both (`DbNode::on_restart`, `Stage::Replay`),
    /// and the middleware-side rejoin window is clocked from real
    /// recovery-log shipping.
    pub fn replay_cost_us(entries: &[LogEntry], mode: ReplayMode, per_entry_us: u64) -> u64 {
        match mode {
            ReplayMode::Serial => entries.len() as u64 * per_entry_us,
            ReplayMode::Parallel => grouped_chain_cost(entries.iter().map(|e| (&e.tables[..], per_entry_us))),
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
    use super::*;

    fn log_with(n: u64) -> RecoveryLog {
        let mut l = RecoveryLog::new();
        for i in 0..n {
            l.append_sql(
                Some("d".into()),
                format!("UPDATE t{} SET x = {i}", i % 3),
                vec![format!("t{}", i % 3)],
            );
        }
        l
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
        l.append_sql(None, "a".into(), vec!["t1".into()]);
        l.append_sql(None, "b".into(), vec!["t2".into()]);
        l.append_sql(None, "c".into(), vec!["t1".into(), "t2".into()]); // joins both
        l.append_sql(None, "d".into(), vec!["t3".into()]);
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
        assert_eq!(l.read_after(l.head(), 100), Ok(&[][..]));
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
        assert!(!l.read_after(6, 100).unwrap()[0].is_writeset());
        l.void(7);
        let tail = l.read_after(6, 100).unwrap();
        assert!(tail[0].is_writeset(), "seq 7 payload replaced with no-op writeset");
        assert!(tail[0].tables.is_empty());
        assert!(!tail[1].is_writeset(), "seq 8 untouched");
        // Voiding the head entry works too (last index).
        l.void(10);
        assert!(l.read_after(9, 100).unwrap()[0].is_writeset());
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
        let seq = l.append_sql(None, "UPDATE t0 SET x = 1".into(), vec!["t0".into()]);
        assert_eq!(seq, 6);
        // The fresh entry is dense with the boundary and fully reachable.
        let tail = l.read_after(5, 100).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 6);
        l.void(6);
        assert!(l.read_after(5, 100).unwrap()[0].is_writeset(), "fresh entry voidable");
    }

    #[test]
    fn binlog_conversion_preserves_payload_kind() {
        let mut l = RecoveryLog::new();
        l.append_sql(Some("d".into()), "UPDATE t SET x = 1".into(), vec!["t".into()]);
        l.append_ws(Writeset::default());
        let entries = to_binlog_entries(l.read_after(0, 10).unwrap());
        assert_eq!(entries[0].statements.len(), 1);
        assert_eq!(entries[0].writeset.tables(), vec![(String::new(), "t".to_string())]);
        assert!(entries[1].statements.is_empty());
    }
}
