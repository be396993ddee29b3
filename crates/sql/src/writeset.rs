//! Transaction writesets (§4.3.2).
//!
//! A writeset is "the set of data W updated by a transaction T, such that
//! applying W to a replica is equivalent to executing T on it" (paper,
//! footnote 2) — *almost*. The paper's point, which we reproduce faithfully,
//! is that applying a writeset does **not** reproduce the side effects that
//! live outside versioned storage: sequence advances, AUTO_INCREMENT
//! counters, and session/environment variables. The optional
//! `CounterSync` extension (the paper's industrial-agenda fix) closes that
//! hole by shipping counter states alongside the row images.

use crate::catalog::TableName;
use crate::mvcc::WriteRecord;
use crate::sequence::SeqKey;
use crate::value::Value;

/// Counter states a transaction bumped, shipped only when the engine is
/// configured with `capture_counters` (the paper's proposed fix; off by
/// default to reproduce the gap).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterSync {
    /// Sequence -> value after the transaction.
    pub sequences: Vec<(SeqKey, i64)>,
    /// Table -> AUTO_INCREMENT counter after the transaction.
    pub auto_increments: Vec<(TableName, i64)>,
}

impl CounterSync {
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty() && self.auto_increments.is_empty()
    }
}

/// The writeset of one committed transaction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Writeset {
    pub entries: Vec<WriteRecord>,
    /// Present only under `capture_counters` (see [`CounterSync`]).
    pub counters: Option<CounterSync>,
}

/// Identity of a row for certification: its primary-key value when the table
/// has one, else its full before-image.
#[derive(Debug, Clone, PartialEq)]
pub struct WsKey {
    pub table: TableName,
    pub key: Vec<Value>,
}

impl WsKey {
    /// Stable hash for conflict-window indexing in the certifier: FNV-64
    /// of the database name, the table name and the key values.
    pub fn hash(&self) -> u64 {
        let mut h = self.table.hasher();
        for v in &self.key {
            v.hash_into(&mut h);
        }
        h.finish()
    }
}

impl Writeset {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Tables touched, deduplicated, in order of first write.
    pub fn tables(&self) -> Vec<TableName> {
        let mut out: Vec<TableName> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.table) {
                out.push(e.table.clone());
            }
        }
        out
    }

    /// Row identities for certification. `pk_of` maps a table to its
    /// primary-key column index, if it has one.
    pub fn keys(&self, pk_of: impl Fn(&TableName) -> Option<usize>) -> Vec<WsKey> {
        self.entries
            .iter()
            .map(|e| {
                let image = e.old.as_ref().or(e.new.as_ref());
                let key = match (pk_of(&e.table), image) {
                    (Some(pk), Some(img)) => vec![img[pk].clone()],
                    (_, Some(img)) => img.clone(),
                    (_, None) => Vec::new(),
                };
                WsKey { table: e.table.clone(), key }
            })
            .collect()
    }

    /// Split the writeset by a row classifier (partial replication: one
    /// slice per group). Returns `(class, slice)` pairs sorted by
    /// class; entry order within each slice is preserved. Counter syncs
    /// ride with the lowest class (they are global by nature — the
    /// limitation the paper's §4.2.3 gap already documents).
    pub fn split_by(self, class_of: impl Fn(&WriteRecord) -> usize) -> Vec<(usize, Writeset)> {
        let mut out: Vec<(usize, Writeset)> = Vec::new();
        for e in self.entries {
            let c = class_of(&e);
            match out.iter_mut().find(|(cc, _)| *cc == c) {
                Some((_, ws)) => ws.entries.push(e),
                None => out.push((c, Writeset { entries: vec![e], counters: None })),
            }
        }
        out.sort_by_key(|&(c, _)| c);
        if let (Some(counters), Some((_, first))) = (self.counters, out.first_mut()) {
            first.counters = Some(counters);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::{RowId, WriteKind};

    fn rec(kind: WriteKind, old: Option<Vec<Value>>, new: Option<Vec<Value>>) -> WriteRecord {
        WriteRecord { table: TableName::new("d", "t"), row: RowId(1), kind, old, new }
    }

    #[test]
    fn keys_prefer_primary_key() {
        let ws = Writeset {
            entries: vec![rec(
                WriteKind::Update,
                Some(vec![Value::Int(7), Value::Text("a".into())]),
                Some(vec![Value::Int(7), Value::Text("b".into())]),
            )],
            counters: None,
        };
        let keys = ws.keys(|_| Some(0));
        assert_eq!(keys[0].key, vec![Value::Int(7)]);
        let keys = ws.keys(|_| None);
        assert_eq!(keys[0].key.len(), 2, "falls back to the full image");
    }

    #[test]
    fn insert_uses_new_image() {
        let ws = Writeset {
            entries: vec![rec(WriteKind::Insert, None, Some(vec![Value::Int(3)]))],
            counters: None,
        };
        let keys = ws.keys(|_| Some(0));
        assert_eq!(keys[0].key, vec![Value::Int(3)]);
    }

    #[test]
    fn key_hash_distinguishes_rows() {
        let a = WsKey { table: TableName::new("d", "t"), key: vec![Value::Int(1)] };
        let b = WsKey { table: TableName::new("d", "t"), key: vec![Value::Int(2)] };
        assert_ne!(a.hash(), b.hash());
    }

    /// The hashes the certifier keys its conflict window by: FNV-64 of the
    /// length-prefixed database and table names, then the key values. The
    /// certified streams of every replica depend on them.
    #[test]
    fn key_hashes_are_pinned() {
        assert_eq!(ws_key("bench", "t0", vec![Value::Int(42)]).hash(), 5688391833256766033);
        assert_eq!(ws_key("shop", "acct", vec![Value::Text("alice".into()), Value::Null]).hash(), 13472693203114643035);
        assert_eq!(ws_key("d", "t", Vec::new()).hash(), 17105561236574065327);
    }

    fn ws_key(database: &str, table: &str, key: Vec<Value>) -> WsKey {
        WsKey { table: TableName::new(database, table), key }
    }

    #[test]
    fn split_by_partitions_entries_and_keeps_order() {
        let mut r1 = rec(WriteKind::Insert, None, Some(vec![Value::Int(1)]));
        r1.table = TableName::new("d", "a");
        let mut r2 = rec(WriteKind::Insert, None, Some(vec![Value::Int(2)]));
        r2.table = TableName::new("d", "b");
        let mut r3 = rec(WriteKind::Insert, None, Some(vec![Value::Int(3)]));
        r3.table = TableName::new("d", "a");
        let ws = Writeset { entries: vec![r1, r2, r3], counters: Some(CounterSync::default()) };
        let parts = ws.split_by(|r| if r.table.table() == "a" { 0 } else { 1 });
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1.entries.len(), 2);
        assert_eq!(parts[0].1.entries[1].new, Some(vec![Value::Int(3)]));
        assert!(parts[0].1.counters.is_some(), "counters ride the lowest class");
        assert_eq!(parts[1].1.entries.len(), 1);
        assert!(parts[1].1.counters.is_none());
    }

    #[test]
    fn tables_deduplicated() {
        let ws = Writeset {
            entries: vec![
                rec(WriteKind::Insert, None, Some(vec![Value::Int(1)])),
                rec(WriteKind::Insert, None, Some(vec![Value::Int(2)])),
            ],
            counters: None,
        };
        assert_eq!(ws.tables().len(), 1);
    }
}
