//! Writeset certification for transaction-based multi-master replication
//! (§4.3.2; the Postgres-R / Middle-R lineage).
//!
//! Certification is deterministic from the totally-ordered stream of
//! certification requests, so every middleware replica reaches the same
//! verdicts — which is precisely what makes the certifier *replicable*
//! instead of the single point of failure §3.2 warns about. The experiments
//! can still configure a deliberately-unreplicated certifier to reproduce
//! the SPOF outage.

use std::collections::HashMap;

use replimid_sql::{TableName, Writeset, WsKey};

/// One certified transaction in the conflict window.
#[derive(Debug, Clone)]
struct Certified {
    /// Position in the certification sequence (1-based).
    pos: u64,
    /// Keys written (released again if the certification is retracted by a
    /// cross-group abort).
    key_hashes: Vec<u64>,
}

/// First-committer-wins certifier with a sliding conflict window.
#[derive(Debug, Clone)]
pub struct Certifier {
    /// Certification sequence position (count of certified transactions).
    pos: u64,
    window: Vec<Certified>,
    /// Per-key last-certified position (fast path).
    last_writer: HashMap<u64, u64>,
    /// Keep at most this many transactions in the window; transactions
    /// older than everything active can be pruned by the caller via
    /// `prune_before`.
    max_window: usize,
    stats: CertifierStats,
}

/// Outcome of certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Commit,
    /// A concurrent transaction already certified a write to an overlapping
    /// key (first-committer-wins).
    Abort,
}

/// Running totals for the certification stage, deterministic from the
/// ordered request stream (every replica's copy agrees). Snapshotted into
/// `MwMetrics` for per-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifierStats {
    /// Certification requests processed.
    pub checks: u64,
    pub commits: u64,
    pub aborts: u64,
    /// Writeset keys examined across all checks.
    pub keys_checked: u64,
    /// Largest conflict window observed (certified transactions retained).
    pub max_window: usize,
}

impl Certifier {
    pub fn new() -> Self {
        Certifier {
            pos: 0,
            window: Vec::new(),
            last_writer: HashMap::new(),
            max_window: 65_536,
            stats: CertifierStats::default(),
        }
    }

    /// Snapshot of the running certification statistics.
    pub fn stats(&self) -> CertifierStats {
        self.stats
    }

    /// Current position; transactions snapshot this when they begin.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Certify a transaction that began at `start_pos` with writeset `ws`.
    /// `pk_of` resolves primary keys, by database and table name, for key
    /// extraction. Deterministic: every replica feeding the same ordered
    /// stream gets the same verdicts.
    pub fn certify(&mut self, start_pos: u64, ws: &Writeset, pk_of: impl Fn(&str, &str) -> Option<usize>) -> Verdict {
        self.certify_by_table(start_pos, ws, |t| pk_of(t.database(), t.table()))
    }

    /// [`Certifier::certify`], with primary keys resolved by table.
    pub fn certify_by_table(&mut self, start_pos: u64, ws: &Writeset, pk_of: impl Fn(&TableName) -> Option<usize>) -> Verdict {
        let keys: Vec<WsKey> = ws.keys(pk_of);
        let hashes: Vec<u64> = keys.iter().map(WsKey::hash).collect();
        self.stats.checks += 1;
        self.stats.keys_checked += hashes.len() as u64;
        for h in &hashes {
            if let Some(&writer_pos) = self.last_writer.get(h) {
                if writer_pos > start_pos {
                    self.stats.aborts += 1;
                    return Verdict::Abort;
                }
            }
        }
        self.stats.commits += 1;
        // Passed: record it.
        self.pos += 1;
        let pos = self.pos;
        for &h in &hashes {
            self.last_writer.insert(h, pos);
        }
        self.window.push(Certified { pos, key_hashes: hashes });
        self.stats.max_window = self.stats.max_window.max(self.window.len());
        if self.window.len() > self.max_window {
            let cutoff = self.window[self.window.len() - self.max_window].pos;
            self.prune_before(cutoff);
        }
        Verdict::Commit
    }

    /// Undo the certification recorded at `pos` (cross-group 2PC abort:
    /// this group voted yes — optimistically inserting its keys — but
    /// another involved group voted no, so the reservation is released).
    /// The position itself stays consumed; only the conflict entries go.
    /// Deterministic: every replica retracts at the same point in its
    /// group-local stream because the decision is a pure function of the
    /// involved streams.
    pub fn retract(&mut self, pos: u64) {
        let Some(idx) = self.window.iter().position(|c| c.pos == pos) else {
            return; // already pruned past it — nothing left to release
        };
        let removed = self.window.remove(idx);
        for h in &removed.key_hashes {
            if self.last_writer.get(h) == Some(&pos) {
                // Roll the key back to the newest surviving writer, if any
                // (a later transaction may already have re-certified it).
                let prev = self
                    .window
                    .iter()
                    .filter(|c| c.key_hashes.contains(h))
                    .map(|c| c.pos)
                    .max();
                match prev {
                    Some(p) => {
                        self.last_writer.insert(*h, p);
                    }
                    None => {
                        self.last_writer.remove(h);
                    }
                }
            }
        }
        self.stats.commits -= 1;
        self.stats.aborts += 1;
    }

    /// Drop window entries older than `pos` (no active transaction started
    /// before it). Key entries are retained in `last_writer` only while
    /// their writer remains in the window.
    pub fn prune_before(&mut self, pos: u64) {
        self.window.retain(|c| c.pos >= pos);
        let retained: std::collections::HashSet<u64> =
            self.window.iter().map(|c| c.pos).collect();
        self.last_writer.retain(|_, p| retained.contains(p) || *p >= pos);
        let _ = &retained;
    }
}

impl Default for Certifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_sql::mvcc::{RowId, WriteKind, WriteRecord};
    use replimid_sql::Value;

    fn ws(keys: &[i64]) -> Writeset {
        Writeset {
            entries: keys
                .iter()
                .map(|&k| WriteRecord {
                    table: TableName::new("d", "t"),
                    row: RowId(k as u64),
                    kind: WriteKind::Update,
                    old: Some(vec![Value::Int(k), Value::Int(0)]),
                    new: Some(vec![Value::Int(k), Value::Int(1)]),
                })
                .collect(),
            counters: None,
        }
    }

    fn pk(_db: &str, _t: &str) -> Option<usize> {
        Some(0)
    }

    #[test]
    fn non_overlapping_both_commit() {
        let mut c = Certifier::new();
        let s = c.position();
        assert_eq!(c.certify(s, &ws(&[1]), pk), Verdict::Commit);
        assert_eq!(c.certify(s, &ws(&[2]), pk), Verdict::Commit);
    }

    #[test]
    fn first_committer_wins_on_overlap() {
        let mut c = Certifier::new();
        let s = c.position(); // both transactions started here
        assert_eq!(c.certify(s, &ws(&[1, 2]), pk), Verdict::Commit);
        assert_eq!(c.certify(s, &ws(&[2, 3]), pk), Verdict::Abort, "overlaps key 2");
        // A transaction that started after the first commit is fine.
        let s2 = c.position();
        assert_eq!(c.certify(s2, &ws(&[2]), pk), Verdict::Commit);
    }

    #[test]
    fn serial_rewrites_of_same_key_commit() {
        let mut c = Certifier::new();
        for _ in 0..10 {
            let s = c.position();
            assert_eq!(c.certify(s, &ws(&[7]), pk), Verdict::Commit);
        }
    }

    #[test]
    fn determinism_across_replicas() {
        let run = || {
            let mut c = Certifier::new();
            let mut verdicts = Vec::new();
            let s0 = c.position();
            verdicts.push(c.certify(s0, &ws(&[1, 2]), pk));
            verdicts.push(c.certify(s0, &ws(&[2]), pk));
            let s1 = c.position();
            verdicts.push(c.certify(s1, &ws(&[1]), pk));
            verdicts.push(c.certify(0, &ws(&[9]), pk));
            verdicts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_checks_and_verdicts() {
        let mut c = Certifier::new();
        let s = c.position();
        assert_eq!(c.certify(s, &ws(&[1, 2]), pk), Verdict::Commit);
        assert_eq!(c.certify(s, &ws(&[2]), pk), Verdict::Abort);
        assert_eq!(c.certify(c.position(), &ws(&[3]), pk), Verdict::Commit);
        let st = c.stats();
        assert_eq!(st.checks, 3);
        assert_eq!(st.commits, 2);
        assert_eq!(st.aborts, 1);
        assert_eq!(st.keys_checked, 4);
        assert_eq!(st.max_window, 2);
    }

    #[test]
    fn retract_releases_reserved_keys() {
        let mut c = Certifier::new();
        let s = c.position();
        assert_eq!(c.certify(s, &ws(&[1]), pk), Verdict::Commit);
        let reserved = c.position();
        // A concurrent writer of key 1 aborts against the reservation...
        assert_eq!(c.certify(s, &ws(&[1]), pk), Verdict::Abort);
        // ...until the cross-group decision retracts it.
        c.retract(reserved);
        assert_eq!(c.certify(s, &ws(&[1]), pk), Verdict::Commit);
        // Retracting a pos whose key was since re-certified keeps the newer
        // writer authoritative.
        c.retract(reserved);
        assert_eq!(c.certify(s, &ws(&[1]), pk), Verdict::Abort);
    }

    #[test]
    fn pruning_keeps_recent_conflicts() {
        let mut c = Certifier::new();
        let s = c.position();
        c.certify(s, &ws(&[1]), pk);
        let mid = c.position();
        c.certify(mid, &ws(&[2]), pk);
        c.prune_before(mid);
        // Conflict with the recent write must still be detected.
        assert_eq!(c.certify(mid, &ws(&[2]), pk), Verdict::Abort);
    }
}
