//! The engine's commit log ("binlog"), consumed by master-slave replication
//! (log shipping, Fig. 1/3 of the paper) and by recovery.
//!
//! Each committed write transaction appends one entry carrying *both*
//! representations the paper contrasts (§4.3.2): the SQL statement texts
//! (statement-based shipping) and the extracted writeset (transaction-based
//! shipping). Consumers pick one; experiments E6/E15 compare them.

use std::ops::Deref;
use std::sync::Arc;

use crate::mvcc::CommitTs;
use crate::writeset::Writeset;

/// Log sequence number: position in the binlog, starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

/// One committed transaction in the log: its position and timestamp, and
/// what it wrote behind one shared [`Arc`]. A copy of an entry (a read of
/// the log, a shipped batch, the WAL mirror, a backend provisioned from
/// another's image) shares that payload instead of copying its rows; the
/// payload's fields read through the entry (`entry.writeset`).
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogEntry {
    pub lsn: Lsn,
    pub commit_ts: CommitTs,
    payload: Arc<BinlogPayload>,
}

/// What a committed transaction wrote, in both shipping representations.
#[derive(Debug, PartialEq)]
pub struct BinlogPayload {
    /// The session's selected database when the transaction ran; a replayer
    /// must `USE` it before executing unqualified statements (real binlogs
    /// record the default database the same way).
    pub default_db: Option<Arc<str>>,
    /// SQL texts of the write statements the transaction executed, in order.
    pub statements: Vec<String>,
    /// Extracted row-level writeset.
    pub writeset: Writeset,
}

impl BinlogEntry {
    pub fn new(lsn: Lsn, commit_ts: CommitTs, payload: BinlogPayload) -> Self {
        BinlogEntry { lsn, commit_ts, payload: Arc::new(payload) }
    }
}

impl Deref for BinlogEntry {
    type Target = BinlogPayload;

    fn deref(&self) -> &BinlogPayload {
        &self.payload
    }
}

/// Append-only commit log with truncation (log purging is routine
/// maintenance, §4.4.4 — and "replica stopped because its log is full" is a
/// §4.4.2 failure the middleware has to handle).
#[derive(Debug, Clone, Default)]
pub struct Binlog {
    entries: Vec<BinlogEntry>,
    /// LSN of the first retained entry minus one (truncated prefix length).
    truncated: u64,
    next_lsn: u64,
    /// Nobody will ever read this log: `append` drops entries as they land
    /// (see [`Binlog::set_floor`]).
    unread: bool,
}

impl Binlog {
    pub fn new() -> Self {
        Binlog { entries: Vec::new(), truncated: 0, next_lsn: 1, unread: false }
    }

    /// Append a committed transaction. When nobody reads the log it is
    /// purged as it lands and nothing is copied; a kept entry shares the
    /// session's default-database name and copies the writeset.
    pub fn append(
        &mut self,
        commit_ts: CommitTs,
        default_db: Option<&Arc<str>>,
        statements: Vec<String>,
        writeset: &Writeset,
    ) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        if self.unread {
            // Everything older went when the log stopped being read.
            debug_assert!(self.entries.is_empty());
            self.truncated = lsn.0;
        } else {
            let payload = BinlogPayload { default_db: default_db.cloned(), statements, writeset: writeset.clone() };
            self.entries.push(BinlogEntry::new(lsn, commit_ts, payload));
        }
        lsn
    }

    /// Whether `append` keeps what it is given (see [`Binlog::set_floor`]).
    pub fn keeps_entries(&self) -> bool {
        !self.unread
    }

    /// Highest LSN written, or 0 if empty.
    pub fn head(&self) -> Lsn {
        Lsn(self.next_lsn - 1)
    }

    /// Entries strictly after `after`, in order. Returns `None` if the log
    /// was truncated past `after` (the consumer must full-resync — the
    /// paper's "hours of dump/restore", §4.4.2).
    pub fn read_after(&self, after: Lsn) -> Option<&[BinlogEntry]> {
        if after.0 < self.truncated {
            return None;
        }
        let skip = (after.0 - self.truncated) as usize;
        Some(&self.entries[skip.min(self.entries.len())..])
    }

    /// Purge entries with LSN <= `up_to`, clamped to the head: truncating
    /// "past the end" must not push `truncated` beyond `next_lsn - 1`, or
    /// the dense-LSN invariant (entries[i].lsn == truncated + 1 + i) breaks
    /// for every later append. Returns the number of entries purged.
    fn truncate(&mut self, up_to: Lsn) -> usize {
        let up_to = up_to.0.min(self.head().0);
        if up_to <= self.truncated {
            return 0;
        }
        let drop_n = ((up_to - self.truncated) as usize).min(self.entries.len());
        self.entries.drain(..drop_n);
        self.truncated = up_to;
        drop_n
    }

    /// `Some(floor)`: purge the entries with LSN <= `floor` (clamped to the
    /// head). `None`: nobody reads this log any more; purge every entry,
    /// now and as it lands, so none outlives the commit that wrote it.
    /// Returns the number purged now.
    pub fn set_floor(&mut self, floor: Option<Lsn>) -> usize {
        self.unread = floor.is_none();
        self.truncate(floor.unwrap_or(Lsn(u64::MAX)))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reposition an empty log at `head`, as if entries `1..=head` had been
    /// written and purged. Crash recovery rebases the reborn binlog at the
    /// checkpoint's head: peers further behind than the checkpoint get an
    /// honest `read_after == None` and must full-resync.
    pub fn rebase(&mut self, head: u64) {
        self.entries.clear();
        self.truncated = head;
        self.next_lsn = head + 1;
    }

    /// Re-append a preserved entry with its original LSN (crash-recovery
    /// replay). Entries must arrive in LSN order at the current head.
    pub fn push_raw(&mut self, entry: BinlogEntry) {
        debug_assert_eq!(entry.lsn.0, self.next_lsn, "raw push out of order");
        self.next_lsn = entry.lsn.0 + 1;
        self.entries.push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(log: &mut Binlog, n: u64) -> Lsn {
        log.append(CommitTs(n), None, vec![format!("stmt {n}")], &Writeset::default())
    }

    #[test]
    fn append_and_read() {
        let mut log = Binlog::new();
        entry(&mut log, 1);
        entry(&mut log, 2);
        entry(&mut log, 3);
        let tail = log.read_after(Lsn(1)).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, Lsn(2));
        assert_eq!(log.read_after(Lsn(3)).unwrap().len(), 0);
        assert_eq!(log.read_after(Lsn(0)).unwrap().len(), 3);
    }

    #[test]
    fn truncation_forces_full_resync() {
        let mut log = Binlog::new();
        for n in 1..=5 {
            entry(&mut log, n);
        }
        log.truncate(Lsn(3));
        assert_eq!(log.len(), 2);
        assert!(log.read_after(Lsn(2)).is_none(), "reader behind truncation point");
        assert_eq!(log.read_after(Lsn(3)).unwrap().len(), 2);
        assert_eq!(log.read_after(Lsn(4)).unwrap().len(), 1);
    }

    #[test]
    fn idempotent_truncate() {
        let mut log = Binlog::new();
        for n in 1..=3 {
            entry(&mut log, n);
        }
        log.truncate(Lsn(2));
        log.truncate(Lsn(2));
        log.truncate(Lsn(1));
        assert_eq!(log.len(), 1);
        assert_eq!(log.head(), Lsn(3));
    }

    /// Truncating past the head used to leave `truncated > head`: the next
    /// entry landed at index 0 with an LSN at or below the boundary, so
    /// `read_after(head)` demanded a resync and `read_after(truncated)`
    /// handed back entries at or below `after`.
    #[test]
    fn truncate_past_head_clamps_to_head() {
        let mut log = Binlog::new();
        for n in 1..=5 {
            entry(&mut log, n);
        }
        assert_eq!(log.truncate(Lsn(u64::MAX)), 5, "only 5 entries existed to purge");
        assert_eq!(log.head(), Lsn(5));
        assert_eq!(log.read_after(Lsn(5)).unwrap().len(), 0, "caught up, not a resync");
        let lsn = entry(&mut log, 6);
        assert_eq!(lsn, Lsn(6));
        let tail = log.read_after(Lsn(5)).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].lsn, Lsn(6));
        assert_eq!(log.read_after(Lsn(6)).unwrap().len(), 0);
    }

    /// A finite floor purges only what exists; an unread log (`None`) also
    /// purges every later entry as it lands, while the head keeps counting.
    #[test]
    fn floors_purge_existing_entries_and_unread_logs_keep_nothing() {
        let mut log = Binlog::new();
        entry(&mut log, 1);
        entry(&mut log, 2);
        assert_eq!(log.set_floor(Some(Lsn(u64::MAX))), 2);
        entry(&mut log, 3);
        assert_eq!(log.read_after(Lsn(2)).unwrap().len(), 1, "a finite floor kept the new entry");
        assert_eq!(log.set_floor(None), 1);
        assert_eq!(entry(&mut log, 4), Lsn(4));
        assert!(log.is_empty());
        assert_eq!(log.read_after(Lsn(4)).unwrap().len(), 0, "caught up at the head");
        assert!(log.read_after(Lsn(3)).is_none(), "entry 4 is gone");
        log.set_floor(Some(Lsn(0)));
        entry(&mut log, 5);
        assert_eq!(log.read_after(Lsn(4)).unwrap()[0].lsn, Lsn(5), "readers are back");
    }
}
