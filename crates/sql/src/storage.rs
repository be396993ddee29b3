//! Versioned row storage: one `Table` per SQL table, each row a chain of
//! MVCC versions. The engine is externally synchronized; concurrency is the
//! interleaving of statements from different connections, which is exactly
//! the concurrency a replication middleware deals in.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::num::NonZeroU64;

use crate::ast::ColumnDef;
use crate::catalog::TableName;
use crate::checksum::Fnv64;
use crate::error::SqlError;
use crate::mvcc::{CommitTs, RowId, Snapshot, TxId};
use crate::value::Value;

/// Schema of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: TableName,
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the primary key, if any.
    pub primary_key: Option<usize>,
}

impl TableSchema {
    pub fn new(name: TableName, columns: Vec<ColumnDef>) -> Self {
        let primary_key = columns.iter().position(|c| c.primary_key);
        TableSchema { name, columns, primary_key }
    }
}

/// One MVCC version of a row: 48 bytes. Transaction ids and commit
/// timestamps start at 1, so each optional stamp is a [`Stamp`] that packs
/// `None` into the zero its value never takes.
#[derive(Debug, Clone)]
struct Version {
    /// Transaction that created this version.
    begin_tx: TxId,
    /// Commit timestamp of the creator; `None` while uncommitted.
    begin_ts: Stamp,
    /// Transaction that deleted/superseded this version, if any.
    end_tx: Stamp,
    /// Commit timestamp of the ender; `None` while the ender is uncommitted.
    end_ts: Stamp,
    values: Box<[Value]>,
}

/// A transaction id or commit timestamp that may be absent, in 8 bytes.
type Stamp = Option<NonZeroU64>;

fn stamp(n: u64) -> Stamp {
    Some(NonZeroU64::new(n).expect("transaction ids and commit timestamps start at 1"))
}

impl Version {
    /// A fresh, uncommitted version written by `tx`.
    fn new(tx: TxId, values: Vec<Value>) -> Self {
        Version { begin_tx: tx, begin_ts: None, end_tx: None, end_ts: None, values: values.into() }
    }

    fn begin_ts(&self) -> Option<CommitTs> {
        self.begin_ts.map(|t| CommitTs(t.get()))
    }

    fn end_tx(&self) -> Option<TxId> {
        self.end_tx.map(|t| TxId(t.get()))
    }

    fn end_ts(&self) -> Option<CommitTs> {
        self.end_ts.map(|t| CommitTs(t.get()))
    }

    /// Is this version visible to `snap` (its own uncommitted writes are)?
    fn visible_to(&self, snap: Snapshot) -> bool {
        let created_visible = if self.begin_tx == snap.tx {
            // Own write: visible unless this version was already superseded
            // by the same transaction.
            true
        } else {
            match self.begin_ts() {
                Some(ts) => ts <= snap.ts,
                None => false, // other transaction's uncommitted insert
            }
        };
        if !created_visible {
            return false;
        }
        match (self.end_tx(), self.end_ts()) {
            (None, _) => true,
            (Some(etx), _) if etx == snap.tx => false, // deleted by self
            (Some(_), Some(ets)) => ets > snap.ts,     // deleted after my snapshot?
            (Some(_), None) => true,                   // deleter uncommitted
        }
    }

    /// True when no snapshot at or after `horizon` (nor any future one) can
    /// see this version.
    fn garbage(&self, horizon: CommitTs) -> bool {
        matches!(self.end_ts(), Some(ets) if ets <= horizon)
    }
}

/// One row's versions, oldest first: 48 bytes. Nearly every row has a
/// single version, kept inline so the row needs no heap block of its own.
/// A chain with no versions is a slot emptied by an abort or by vacuum; it
/// allocates nothing.
#[derive(Debug, Clone)]
enum Chain {
    One(Version),
    Many(Vec<Version>),
}

impl Chain {
    const EMPTY: Chain = Chain::Many(Vec::new());

    fn versions(&self) -> &[Version] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    fn versions_mut(&mut self) -> &mut [Version] {
        match self {
            Chain::One(v) => std::slice::from_mut(v),
            Chain::Many(vs) => vs,
        }
    }

    /// Append `v` as the newest version.
    fn push(&mut self, v: Version) {
        *self = match std::mem::replace(self, Chain::EMPTY) {
            Chain::One(first) => Chain::Many(vec![first, v]),
            Chain::Many(mut vs) => {
                vs.push(v);
                Chain::Many(vs)
            }
        };
    }

    /// Keep the versions `keep` accepts, back inline when one is left.
    fn retain(&mut self, mut keep: impl FnMut(&Version) -> bool) {
        *self = match std::mem::replace(self, Chain::EMPTY) {
            Chain::One(v) if keep(&v) => Chain::One(v),
            Chain::One(_) => Chain::EMPTY,
            Chain::Many(mut vs) => {
                vs.retain(keep);
                match vs.len() {
                    0 => Chain::EMPTY,
                    1 => Chain::One(vs.pop().expect("one version")),
                    _ => Chain::Many(vs),
                }
            }
        };
    }
}

/// Version chains in a slab: row ids are minted densely from 1 by
/// [`Table::insert`] and never reused, so `RowId(n)` lives in slot `n - 1`
/// and slot order is row-id order. A slot emptied by an aborted insert or
/// by vacuum keeps its 48 bytes.
type Chains = Vec<Chain>;

/// The slot of `row` (none for `RowId(0)`, which is never minted).
fn slot(row: RowId) -> usize {
    row.0.wrapping_sub(1) as usize
}

/// The versions of `row`, oldest first; none if it has no slot or its slot
/// was emptied.
fn versions(rows: &[Chain], row: RowId) -> &[Version] {
    rows.get(slot(row)).map_or(&[], Chain::versions)
}

/// The rows the primary-key index lists under one key: one, unless a key
/// was deleted and reinserted or moved by an update before vacuum pruned
/// the stale rows, so the one is kept inline. 16 bytes.
#[derive(Debug, Clone)]
enum RowIds {
    One(RowId),
    Many(Box<[RowId]>),
}

impl RowIds {
    fn as_slice(&self) -> &[RowId] {
        match self {
            RowIds::One(id) => std::slice::from_ref(id),
            RowIds::Many(ids) => ids,
        }
    }

    /// List `id` too, once.
    fn add(&mut self, id: RowId) {
        let ids = self.as_slice();
        if !ids.contains(&id) {
            *self = RowIds::Many(ids.iter().copied().chain([id]).collect());
        }
    }

    /// Keep the ids `keep` accepts; false when none is left.
    fn retain(&mut self, keep: impl Fn(&RowId) -> bool) -> bool {
        match self {
            RowIds::One(id) => keep(id),
            RowIds::Many(ids) => {
                let kept: Vec<RowId> = ids.iter().copied().filter(|id| keep(id)).collect();
                *self = match kept[..] {
                    [id] => RowIds::One(id),
                    _ => RowIds::Many(kept.into()),
                };
                !self.as_slice().is_empty()
            }
        }
    }
}

/// Why a row-level write was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Another uncommitted transaction already wrote the row.
    UncommittedWriter,
    /// First-committer-wins: a version newer than our snapshot committed.
    NewerCommit,
}

/// A table: schema, version chains, primary-key index, and the
/// non-transactional bits the paper warns about (auto-increment counter).
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    rows: Chains,
    /// PK value -> candidate row ids (stale entries pruned lazily).
    pk_index: BTreeMap<IndexKey, RowIds>,
    /// Non-transactional AUTO_INCREMENT counter: advances even when the
    /// surrounding transaction rolls back (§4.2.3 / §4.3.2).
    pub auto_inc: i64,
    /// Commit timestamp of the last committed write to this table; used by
    /// serializable table-level validation and replication freshness checks.
    pub last_commit_ts: CommitTs,
}

/// Orderable index key wrapping a `Value`.
#[derive(Debug, Clone, PartialEq)]
struct IndexKey(Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            pk_index: BTreeMap::new(),
            auto_inc: 0,
            last_commit_ts: CommitTs::ZERO,
        }
    }

    /// Number of row version chains (live + dead) that hold a version;
    /// exposed for vacuum tests.
    pub fn chain_count(&self) -> usize {
        self.rows.iter().filter(|c| !c.versions().is_empty()).count()
    }

    pub fn version_count(&self) -> usize {
        self.rows.iter().map(|c| c.versions().len()).sum()
    }

    /// Iterate over rows visible to `snap`.
    pub fn scan<'a>(&'a self, snap: Snapshot) -> impl Iterator<Item = (RowId, &'a [Value])> + 'a {
        self.rows.iter().enumerate().filter_map(move |(i, chain)| {
            chain
                .versions()
                .iter()
                .rev()
                .find(|v| v.visible_to(snap))
                .map(|v| (RowId(i as u64 + 1), &v.values[..]))
        })
    }

    /// Read one row if visible.
    pub fn get(&self, row: RowId, snap: Snapshot) -> Option<&[Value]> {
        versions(&self.rows, row)
            .iter()
            .rev()
            .find(|v| v.visible_to(snap))
            .map(|v| &v.values[..])
    }

    /// The row with primary key `key` visible to `snap`, and its values.
    /// Keys are unique per snapshot ([`Self::claim_key`]), so there is at
    /// most one.
    pub fn lookup_pk(&self, key: &Value, snap: Snapshot) -> Option<(RowId, &[Value])> {
        let pk = self.schema.primary_key?;
        let ids = self.pk_index.get(&IndexKey(key.clone()))?;
        ids.as_slice().iter().find_map(|&id| {
            let vals = self.get(id, snap)?;
            (vals[pk] == *key).then_some((id, vals))
        })
    }

    /// The rows the index lists under `key`.
    fn key_rows(&self, key: &Value) -> &[RowId] {
        self.pk_index.get(&IndexKey(key.clone())).map_or(&[], RowIds::as_slice)
    }

    /// May `snap` write a row whose primary key (column `pk`) is `key`?
    /// See [`claim_key`].
    fn claim_key(&self, pk: usize, key: &Value, snap: Snapshot) -> Result<(), SqlError> {
        claim_key(&self.schema, &self.rows, self.key_rows(key), pk, key, snap)
    }

    /// Open transactions other than `me` that hold `row`: each created a
    /// version of it that is not committed yet, or ended one.
    pub fn row_holders(&self, row: RowId, me: TxId) -> Vec<TxId> {
        holders(versions(&self.rows, row).iter(), me)
    }

    /// Open transactions other than `me` that hold primary key `key` with
    /// a version not committed yet.
    pub fn key_holders(&self, key: &Value, me: TxId) -> Vec<TxId> {
        match self.schema.primary_key {
            Some(pk) => holders(key_versions(&self.rows, self.key_rows(key), pk, key), me),
            None => Vec::new(),
        }
    }

    /// Insert a row version for transaction `snap.tx`. Claiming the key
    /// and listing the row under it take one index descent.
    pub fn insert(&mut self, values: Vec<Value>, snap: Snapshot) -> Result<RowId, SqlError> {
        debug_assert_eq!(values.len(), self.schema.columns.len());
        let id = RowId(self.rows.len() as u64 + 1);
        if let Some(pk) = self.schema.primary_key {
            let key = &values[pk];
            if key.is_null() {
                return Err(SqlError::ConstraintViolation(format!(
                    "primary key '{}' may not be NULL",
                    self.schema.columns[pk].name
                )));
            }
            match self.pk_index.entry(IndexKey(key.clone())) {
                Entry::Vacant(e) => {
                    e.insert(RowIds::One(id));
                }
                Entry::Occupied(mut e) => {
                    claim_key(&self.schema, &self.rows, e.get().as_slice(), pk, key, snap)?;
                    e.get_mut().add(id);
                }
            }
        }
        self.rows.push(Chain::One(Version::new(snap.tx, values)));
        Ok(id)
    }

    /// Find the newest version of `row` and classify the write conflict, if
    /// any, for a transaction holding `snap` under first-committer-wins.
    fn writable_version(
        &self,
        row: RowId,
        snap: Snapshot,
        first_committer_wins: bool,
    ) -> Result<usize, ConflictKind> {
        let chain = versions(&self.rows, row);
        // The newest version is last in the chain.
        let idx = chain.len().checked_sub(1).expect("writable_version on missing row");
        let v = &chain[idx];
        if let Some(etx) = v.end_tx() {
            if etx != snap.tx && v.end_ts.is_none() {
                return Err(ConflictKind::UncommittedWriter);
            }
        }
        if v.begin_tx != snap.tx {
            match v.begin_ts() {
                None => return Err(ConflictKind::UncommittedWriter),
                Some(ts) if first_committer_wins && ts > snap.ts => {
                    return Err(ConflictKind::NewerCommit)
                }
                _ => {}
            }
        }
        Ok(idx)
    }

    /// Supersede the newest version of `row` with `values`.
    /// Returns the before-image on success.
    pub fn update(
        &mut self,
        row: RowId,
        values: Vec<Value>,
        snap: Snapshot,
        first_committer_wins: bool,
    ) -> Result<Vec<Value>, ConflictOrError> {
        if let Some(pk) = self.schema.primary_key {
            let new_key = values[pk].clone();
            if new_key.is_null() {
                return Err(ConflictOrError::Error(SqlError::ConstraintViolation(format!(
                    "primary key '{}' may not be NULL",
                    self.schema.columns[pk].name
                ))));
            }
            let old = self
                .get(row, snap)
                .ok_or_else(|| ConflictOrError::Error(SqlError::Internal("row vanished".into())))?;
            if old[pk] != new_key {
                self.claim_key(pk, &new_key, snap).map_err(ConflictOrError::Error)?;
            }
        }
        let idx = self
            .writable_version(row, snap, first_committer_wins)
            .map_err(ConflictOrError::Conflict)?;
        let newest = &mut self.rows[slot(row)].versions_mut()[idx];
        let before = newest.values.to_vec();
        newest.end_tx = stamp(snap.tx.0);
        newest.end_ts = None;
        if let Some(pk) = self.schema.primary_key {
            if before[pk] != values[pk] {
                self.pk_index
                    .entry(IndexKey(values[pk].clone()))
                    .and_modify(|ids| ids.add(row))
                    .or_insert(RowIds::One(row));
            }
        }
        self.rows[slot(row)].push(Version::new(snap.tx, values));
        Ok(before)
    }

    /// Delete the row (end its newest version). Returns the before-image.
    pub fn delete(
        &mut self,
        row: RowId,
        snap: Snapshot,
        first_committer_wins: bool,
    ) -> Result<Vec<Value>, ConflictOrError> {
        let idx = self
            .writable_version(row, snap, first_committer_wins)
            .map_err(ConflictOrError::Conflict)?;
        let newest = &mut self.rows[slot(row)].versions_mut()[idx];
        let before = newest.values.to_vec();
        newest.end_tx = stamp(snap.tx.0);
        newest.end_ts = None;
        Ok(before)
    }

    /// Stamp all versions written by `tx` with its commit timestamp.
    pub fn commit_stamp(&mut self, row: RowId, tx: TxId, ts: CommitTs) {
        if let Some(chain) = self.rows.get_mut(slot(row)) {
            for v in chain.versions_mut() {
                if v.begin_tx == tx && v.begin_ts.is_none() {
                    v.begin_ts = stamp(ts.0);
                }
                if v.end_tx() == Some(tx) && v.end_ts.is_none() {
                    v.end_ts = stamp(ts.0);
                }
            }
        }
        if ts > self.last_commit_ts {
            self.last_commit_ts = ts;
        }
    }

    /// Unwind the effects of an aborted transaction on `row`.
    pub fn abort_unwind(&mut self, row: RowId, tx: TxId) {
        if let Some(chain) = self.rows.get_mut(slot(row)) {
            chain.retain(|v| !(v.begin_tx == tx && v.begin_ts.is_none()));
            for v in chain.versions_mut() {
                if v.end_tx() == Some(tx) && v.end_ts.is_none() {
                    v.end_tx = None;
                }
            }
        }
    }

    /// Drop versions no active snapshot can see (vacuum-style maintenance,
    /// §4.4.4). Returns the number of versions reclaimed.
    pub fn vacuum(&mut self, horizon: CommitTs) -> usize {
        let mut reclaimed = 0;
        for chain in &mut self.rows {
            let before = chain.versions().len();
            chain.retain(|v| !v.garbage(horizon));
            reclaimed += before - chain.versions().len();
        }
        // Prune index entries pointing at emptied slots.
        let rows = &self.rows;
        self.pk_index.retain(|_, ids| ids.retain(|&id| !versions(rows, id).is_empty()));
        reclaimed
    }

    /// Checksum of the *committed* state visible at `ts` — the divergence
    /// detector replicas compare (§4.3.2).
    pub fn checksum_into(&self, ts: CommitTs, h: &mut Fnv64) {
        h.write_str(self.schema.name.table());
        let snap = Snapshot { ts, tx: TxId(u64::MAX) };
        // Hash rows in a canonical order: by primary key when present, else
        // by full row contents, so row-id allocation differences between
        // replicas do not register as divergence.
        let mut rows: Vec<&[Value]> = self.scan(snap).map(|(_, v)| v).collect();
        if let Some(pk) = self.schema.primary_key {
            rows.sort_by(|a, b| a[pk].total_cmp(&b[pk]));
        } else {
            rows.sort_by(|a, b| {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.total_cmp(y);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        h.write_u64(rows.len() as u64);
        for row in rows {
            for v in row {
                v.hash_into(h);
            }
        }
    }

    /// All committed rows at `ts` (used by dumps and writeset application).
    pub fn committed_rows(&self, ts: CommitTs) -> Vec<Vec<Value>> {
        let snap = Snapshot { ts, tx: TxId(u64::MAX) };
        self.scan(snap).map(|(_, v)| v.to_vec()).collect()
    }
}

/// Every version, of the rows `ids` (the index's list under `key`), whose
/// primary key (column `pk`) is `key`.
fn key_versions<'a>(
    rows: &'a [Chain],
    ids: &'a [RowId],
    pk: usize,
    key: &'a Value,
) -> impl Iterator<Item = &'a Version> + 'a {
    ids.iter().flat_map(|&id| versions(rows, id)).filter(move |v| v.values[pk] == *key)
}

/// May `snap` write a row whose primary key (column `pk`) is `key`, given
/// the rows `ids` the index lists under it? Not if a version of the key is
/// visible to it or still uncommitted (a duplicate), nor if one committed
/// after its snapshot: first-committer-wins, as for an update of a row
/// committed since.
fn claim_key(
    schema: &TableSchema,
    rows: &[Chain],
    ids: &[RowId],
    pk: usize,
    key: &Value,
    snap: Snapshot,
) -> Result<(), SqlError> {
    let mut newer = false;
    for v in key_versions(rows, ids, pk, key) {
        if v.visible_to(snap) || (v.begin_ts.is_none() && v.end_tx.is_none()) {
            let name = &schema.columns[pk].name;
            return Err(SqlError::DuplicateKey(format!("{name}={key}")));
        }
        newer |= v.begin_ts().is_some_and(|ts| ts > snap.ts);
    }
    if newer {
        return Err(SqlError::WriteConflict {
            table: schema.name.table().to_string(),
            detail: format!("{:?}", ConflictKind::NewerCommit),
        });
    }
    Ok(())
}

/// The transactions other than `me` with an uncommitted begin or end on
/// one of `versions`, each once.
fn holders<'a>(versions: impl Iterator<Item = &'a Version>, me: TxId) -> Vec<TxId> {
    let mut out: Vec<TxId> = Vec::new();
    for v in versions {
        let begun = v.begin_ts.is_none().then_some(v.begin_tx);
        let ended = v.end_tx().filter(|_| v.end_ts.is_none());
        for tx in [begun, ended].into_iter().flatten() {
            if tx != me && !out.contains(&tx) {
                out.push(tx);
            }
        }
    }
    out
}

/// Either a concurrency conflict (retryable, engine-translated into
/// `SqlError::WriteConflict`) or a hard error.
#[derive(Debug)]
pub enum ConflictOrError {
    Conflict(ConflictKind),
    Error(SqlError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            TableName::new("d", "t"),
            vec![
                ColumnDef {
                    name: "id".into(),
                    data_type: DataType::Int,
                    not_null: true,
                    primary_key: true,
                    auto_increment: false,
                    default: None,
                },
                ColumnDef {
                    name: "v".into(),
                    data_type: DataType::Text,
                    not_null: false,
                    primary_key: false,
                    auto_increment: false,
                    default: None,
                },
            ],
        )
    }

    fn snap(tx: u64, ts: u64) -> Snapshot {
        Snapshot { ts: CommitTs(ts), tx: TxId(tx) }
    }

    #[test]
    fn insert_visible_to_self_not_others() {
        let mut t = Table::new(schema());
        let s1 = snap(1, 0);
        let s2 = snap(2, 0);
        t.insert(vec![Value::Int(1), Value::Text("a".into())], s1).unwrap();
        assert_eq!(t.scan(s1).count(), 1);
        assert_eq!(t.scan(s2).count(), 0);
    }

    #[test]
    fn commit_makes_row_visible_at_later_snapshots() {
        let mut t = Table::new(schema());
        let s1 = snap(1, 0);
        let id = t.insert(vec![Value::Int(1), Value::Null], s1).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(5));
        assert_eq!(t.scan(snap(2, 5)).count(), 1);
        assert_eq!(t.scan(snap(2, 4)).count(), 0, "older snapshot must not see it");
    }

    #[test]
    fn duplicate_pk_rejected_even_uncommitted() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        // Different transaction, same key, insert not yet committed.
        let err = t.insert(vec![Value::Int(1), Value::Null], snap(2, 0)).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
    }

    #[test]
    fn update_conflict_on_uncommitted_writer() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        // tx2 updates, uncommitted.
        t.update(id, vec![Value::Int(1), Value::Text("x".into())], snap(2, 1), true)
            .unwrap();
        // tx3 must conflict.
        let err = t
            .update(id, vec![Value::Int(1), Value::Text("y".into())], snap(3, 1), true)
            .unwrap_err();
        assert!(matches!(err, ConflictOrError::Conflict(ConflictKind::UncommittedWriter)));
    }

    #[test]
    fn first_committer_wins() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        // tx2 (snapshot ts=1) updates and commits at ts=2.
        t.update(id, vec![Value::Int(1), Value::Text("x".into())], snap(2, 1), true)
            .unwrap();
        t.commit_stamp(id, TxId(2), CommitTs(2));
        // tx3 with old snapshot (ts=1) now conflicts under SI...
        let err = t
            .update(id, vec![Value::Int(1), Value::Text("y".into())], snap(3, 1), true)
            .unwrap_err();
        assert!(matches!(err, ConflictOrError::Conflict(ConflictKind::NewerCommit)));
        // ...but succeeds under read committed semantics (no FCW).
        t.update(id, vec![Value::Int(1), Value::Text("y".into())], snap(4, 2), false)
            .unwrap();
    }

    #[test]
    fn abort_unwinds_versions() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        t.update(id, vec![Value::Int(1), Value::Text("x".into())], snap(2, 1), true)
            .unwrap();
        t.abort_unwind(id, TxId(2));
        let visible = t.get(id, snap(3, 1)).unwrap();
        assert_eq!(visible[1], Value::Null, "before-image restored");
        assert_eq!(t.version_count(), 1);
    }

    #[test]
    fn delete_and_vacuum() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        t.delete(id, snap(2, 1), true).unwrap();
        t.commit_stamp(id, TxId(2), CommitTs(2));
        // Still visible at ts=1, invisible at ts=2.
        assert!(t.get(id, snap(9, 1)).is_some());
        assert!(t.get(id, snap(9, 2)).is_none());
        let reclaimed = t.vacuum(CommitTs(2));
        assert_eq!(reclaimed, 1);
        assert_eq!(t.chain_count(), 0);
    }

    #[test]
    fn checksum_ignores_row_id_allocation_order() {
        let mut a = Table::new(schema());
        let mut b = Table::new(schema());
        let s = snap(1, 0);
        let r1 = a.insert(vec![Value::Int(1), Value::Text("x".into())], s).unwrap();
        let r2 = a.insert(vec![Value::Int(2), Value::Text("y".into())], s).unwrap();
        a.commit_stamp(r1, TxId(1), CommitTs(1));
        a.commit_stamp(r2, TxId(1), CommitTs(1));
        // b inserts in the opposite order.
        let r1 = b.insert(vec![Value::Int(2), Value::Text("y".into())], s).unwrap();
        let r2 = b.insert(vec![Value::Int(1), Value::Text("x".into())], s).unwrap();
        b.commit_stamp(r1, TxId(1), CommitTs(1));
        b.commit_stamp(r2, TxId(1), CommitTs(1));
        let mut ha = Fnv64::new();
        let mut hb = Fnv64::new();
        a.checksum_into(CommitTs(1), &mut ha);
        b.checksum_into(CommitTs(1), &mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn a_version_is_48_bytes() {
        let size = std::mem::size_of::<Version>();
        println!("footprint: size_of Version: {size} bytes");
        assert_eq!(size, 48);
    }

    /// A write record and a certification key name their table by one
    /// shared [`TableName`] pointer, not two owned strings.
    #[test]
    fn a_write_record_is_72_bytes_and_a_writeset_key_32() {
        let record = std::mem::size_of::<crate::mvcc::WriteRecord>();
        let key = std::mem::size_of::<crate::writeset::WsKey>();
        println!("footprint: size_of WriteRecord: {record} bytes, WsKey: {key} bytes");
        assert_eq!(record, 72);
        assert_eq!(key, 32);
    }

    #[test]
    fn a_chain_is_48_bytes_and_a_key_list_16() {
        let chain = std::mem::size_of::<Chain>();
        let ids = std::mem::size_of::<RowIds>();
        println!("footprint: size_of Chain: {chain} bytes, RowIds: {ids} bytes");
        assert_eq!(chain, 48);
        assert_eq!(ids, 16);
    }

    fn row(k: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Null]
    }

    fn is_one(t: &Table, id: RowId) -> bool {
        matches!(t.rows[slot(id)], Chain::One(_))
    }

    #[test]
    fn a_slot_emptied_by_an_aborted_insert_is_invisible() {
        let mut t = Table::new(schema());
        let kept = t.insert(row(1), snap(1, 0)).unwrap();
        t.commit_stamp(kept, TxId(1), CommitTs(1));
        let gone = t.insert(row(2), snap(2, 1)).unwrap();
        t.abort_unwind(gone, TxId(2));
        // Its own transaction, another one and a committed snapshot alike.
        for s in [snap(2, 1), snap(3, 1), snap(4, 9)] {
            assert_eq!(t.scan(s).map(|(id, _)| id).collect::<Vec<_>>(), vec![kept]);
            assert!(t.get(gone, s).is_none());
            assert!(t.lookup_pk(&Value::Int(2), s).is_none());
        }
        assert!(t.row_holders(gone, TxId(9)).is_empty());
        assert!(t.key_holders(&Value::Int(2), TxId(9)).is_empty());
        assert!(t.get(RowId(0), snap(4, 9)).is_none(), "row id 0 is never minted");
        assert!(t.get(RowId(99), snap(4, 9)).is_none());
        // The key is free again, and the slot is not reused.
        let again = t.insert(row(2), snap(5, 1)).unwrap();
        assert_eq!(again, RowId(3));
        assert_eq!((t.chain_count(), t.version_count()), (2, 2));
    }

    #[test]
    fn counts_stay_exact_from_insert_to_vacuum() {
        let mut t = Table::new(schema());
        let counts = |t: &Table| (t.chain_count(), t.version_count());
        let a = t.insert(row(1), snap(1, 0)).unwrap();
        let b = t.insert(row(2), snap(1, 0)).unwrap();
        assert_eq!(counts(&t), (2, 2));
        t.commit_stamp(a, TxId(1), CommitTs(1));
        t.commit_stamp(b, TxId(1), CommitTs(1));
        // An update adds a version; its abort takes it away again.
        t.update(a, vec![Value::Int(1), Value::Text("x".into())], snap(2, 1), true).unwrap();
        assert_eq!(counts(&t), (2, 3));
        t.abort_unwind(a, TxId(2));
        assert_eq!(counts(&t), (2, 2));
        // A committed update keeps both versions until vacuum.
        t.update(a, vec![Value::Int(1), Value::Text("y".into())], snap(3, 1), true).unwrap();
        t.commit_stamp(a, TxId(3), CommitTs(3));
        assert_eq!(counts(&t), (2, 3));
        // A delete adds no version.
        t.delete(b, snap(4, 3), true).unwrap();
        t.commit_stamp(b, TxId(4), CommitTs(4));
        assert_eq!(counts(&t), (2, 3));
        // A horizon before the delete keeps `b`; the last one empties its slot.
        assert_eq!(t.vacuum(CommitTs(3)), 1);
        assert_eq!(counts(&t), (2, 2));
        assert_eq!(t.vacuum(CommitTs(4)), 1);
        assert_eq!(counts(&t), (1, 1));
        assert_eq!(t.vacuum(CommitTs(4)), 0);
        assert_eq!(counts(&t), (1, 1));
    }

    #[test]
    fn a_chain_goes_inline_to_a_list_and_back() {
        let mut t = Table::new(schema());
        let id = t.insert(row(1), snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        assert!(is_one(&t, id));
        t.update(id, vec![Value::Int(1), Value::Text("x".into())], snap(2, 1), true).unwrap();
        t.commit_stamp(id, TxId(2), CommitTs(2));
        assert!(!is_one(&t, id));
        assert_eq!(t.get(id, snap(9, 1)).unwrap()[1], Value::Null);
        assert_eq!(t.get(id, snap(9, 2)).unwrap()[1], Value::Text("x".into()));
        assert_eq!(t.vacuum(CommitTs(2)), 1);
        assert!(is_one(&t, id));
        assert_eq!(t.get(id, snap(9, 2)).unwrap()[1], Value::Text("x".into()));
        assert_eq!(t.lookup_pk(&Value::Int(1), snap(9, 2)).map(|(r, _)| r), Some(id));
    }

    #[test]
    fn a_table_whose_first_rows_aborted_scans_and_inserts() {
        let mut t = Table::new(schema());
        for k in 1..=3 {
            let id = t.insert(row(k), snap(1, 0)).unwrap();
            t.abort_unwind(id, TxId(1));
        }
        assert_eq!(t.scan(snap(9, 9)).count(), 0);
        assert_eq!(t.chain_count(), 0);
        let id = t.insert(row(1), snap(2, 0)).unwrap();
        assert_eq!(id, RowId(4));
        t.commit_stamp(id, TxId(2), CommitTs(1));
        let seen: Vec<(RowId, Vec<Value>)> =
            t.scan(snap(9, 1)).map(|(r, v)| (r, v.to_vec())).collect();
        assert_eq!(seen, vec![(id, row(1))]);
        assert_eq!(t.lookup_pk(&Value::Int(1), snap(9, 1)).map(|(r, _)| r), Some(id));
        assert!(matches!(t.insert(row(1), snap(3, 1)), Err(SqlError::DuplicateKey(_))));
    }

    /// One key listed under one row, then several, then one again, with
    /// lookups and duplicate-key claims checked at every step.
    #[test]
    fn key_walks_from_one_row_to_several_and_back() {
        let mut t = Table::new(schema());
        let (k1, k7) = (Value::Int(1), Value::Int(7));
        let row_of = |t: &Table, k: &Value, ts| t.lookup_pk(k, snap(99, ts)).map(|(row, _)| row);
        let claim = |t: &Table, k: &Value, ts| t.claim_key(0, k, snap(98, ts));
        let listed = |t: &Table, k: &Value| t.key_rows(k).to_vec();
        let dup = |r: Result<(), SqlError>| matches!(r, Err(SqlError::DuplicateKey(_)));

        let r1 = t.insert(vec![k1.clone(), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(r1, TxId(1), CommitTs(1));
        assert!(matches!(t.pk_index[&IndexKey(k1.clone())], RowIds::One(r) if r == r1));
        assert_eq!(row_of(&t, &k1, 1), Some(r1));
        assert!(dup(claim(&t, &k1, 1)));

        // Delete and reinsert before vacuum: two rows under one key.
        t.delete(r1, snap(2, 1), true).unwrap();
        t.commit_stamp(r1, TxId(2), CommitTs(2));
        assert!(claim(&t, &k1, 2).is_ok());
        let r2 = t.insert(vec![k1.clone(), Value::Null], snap(3, 2)).unwrap();
        assert!(dup(claim(&t, &k1, 2)), "an uncommitted insert holds the key");
        t.commit_stamp(r2, TxId(3), CommitTs(3));
        assert_eq!(listed(&t, &k1), vec![r1, r2]);
        assert_eq!(row_of(&t, &k1, 1), Some(r1));
        assert_eq!(row_of(&t, &k1, 2), None);
        assert_eq!(row_of(&t, &k1, 3), Some(r2));
        assert!(dup(claim(&t, &k1, 3)));
        assert!(
            matches!(claim(&t, &k1, 2), Err(SqlError::WriteConflict { .. })),
            "committed after the snapshot: first-committer-wins"
        );

        // A primary-key update away and back lists the row once.
        t.update(r2, vec![k7.clone(), Value::Null], snap(4, 3), true).unwrap();
        t.commit_stamp(r2, TxId(4), CommitTs(4));
        assert_eq!(row_of(&t, &k1, 4), None);
        assert_eq!(row_of(&t, &k7, 4), Some(r2));
        assert!(claim(&t, &k1, 4).is_ok());
        assert!(dup(claim(&t, &k7, 4)));
        t.update(r2, vec![k1.clone(), Value::Null], snap(5, 4), true).unwrap();
        t.commit_stamp(r2, TxId(5), CommitTs(5));
        assert_eq!(listed(&t, &k1), vec![r1, r2]);
        assert_eq!(row_of(&t, &k1, 5), Some(r2));
        assert_eq!(row_of(&t, &k7, 5), None);
        assert_eq!(row_of(&t, &k7, 4), Some(r2), "the old snapshot still sees the move");
        assert!(dup(claim(&t, &k1, 5)));
        assert!(claim(&t, &k7, 5).is_ok());

        // Vacuum drops the dead row and the key is back to one row.
        assert_eq!(t.vacuum(CommitTs(5)), 3);
        assert!(matches!(t.pk_index[&IndexKey(k1.clone())], RowIds::One(r) if r == r2));
        assert_eq!(row_of(&t, &k1, 5), Some(r2));
        assert_eq!(row_of(&t, &k7, 5), None);
        assert!(dup(claim(&t, &k1, 5)));
        assert!(claim(&t, &k7, 5).is_ok());
    }

    #[test]
    fn pk_change_keeps_lookups_consistent() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Int(1), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(id, TxId(1), CommitTs(1));
        t.update(id, vec![Value::Int(7), Value::Null], snap(2, 1), true).unwrap();
        t.commit_stamp(id, TxId(2), CommitTs(2));
        let s = snap(9, 2);
        assert_eq!(t.lookup_pk(&Value::Int(7), s).map(|(row, _)| row), Some(id));
        assert!(t.lookup_pk(&Value::Int(1), s).is_none());
    }
}
