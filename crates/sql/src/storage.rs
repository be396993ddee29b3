//! Versioned row storage: one `Table` per SQL table, each row a chain of
//! MVCC versions. The engine is externally synchronized; concurrency is the
//! interleaving of statements from different connections, which is exactly
//! the concurrency a replication middleware deals in.

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
/// A chain with no versions is a slot emptied by an abort, a prune or
/// vacuum; it allocates nothing.
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

    /// Drop the versions that are garbage below `horizon`
    /// ([`Version::garbage`]); returns how many.
    fn prune(&mut self, horizon: CommitTs) -> usize {
        let before = self.versions().len();
        if self.versions().iter().any(|v| v.garbage(horizon)) {
            self.retain(|v| !v.garbage(horizon));
        }
        before - self.versions().len()
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
/// and slot order is row-id order. A slot emptied by an aborted insert, a
/// prune or vacuum keeps its 48 bytes.
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

/// The primary-key index: a keyless open-addressing table of row ids,
/// rebuilt from the slab it indexes. A row is placed once for each distinct
/// primary-key value its versions hold, by linear probing from the home
/// slot of that value's hash, and a probe reads each candidate's key back
/// from the row, as a hash index that keeps only a hash code and a tuple id
/// rechecks the heap tuple. Nothing is deleted in place: a slot whose row
/// no longer holds the key (an aborted insert, a pruned or vacuumed row)
/// stays until the next rebuild, on growth or by vacuum.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    /// A power-of-two number of slots, at most 7/8 of them used.
    slots: Vec<Slot>,
    used: usize,
}

/// One index entry, 8 bytes: a row id in the low [`ROW_BITS`] and the top
/// bits of the key's hash above it, so a probe reads back only the rows
/// whose hash matches. 0 is an empty slot (row ids start at 1).
type Slot = u64;

const ROW_BITS: u32 = 40;
const ROW_MASK: u64 = (1 << ROW_BITS) - 1;

/// The hash a key is placed and probed by: FNV over the value, finished
/// with a multiply so its top bits pick the home slot.
fn key_hash(key: &Value) -> u64 {
    let mut h = Fnv64::new();
    key.hash_into(&mut h);
    h.finish().wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The hash bits a slot keeps beside its row id.
fn tag(hash: u64) -> u64 {
    hash & !ROW_MASK
}

/// Each distinct primary-key value (column `pk`) the versions of `chain`
/// hold, once.
fn chain_keys(chain: &Chain, pk: usize) -> impl Iterator<Item = &Value> {
    let vs = chain.versions();
    vs.iter()
        .enumerate()
        .filter(move |&(i, v)| vs[..i].iter().all(|w| w.values[pk] != v.values[pk]))
        .map(move |(_, v)| &v.values[pk])
}

impl KeyIndex {
    /// The occupied slots from `hash`'s home slot to the first empty one.
    fn run(&self, hash: u64) -> impl Iterator<Item = Slot> + '_ {
        let (home, mask) = (self.home(hash), self.slots.len().wrapping_sub(1));
        (0..self.slots.len()).map(move |i| self.slots[(home + i) & mask]).take_while(|&s| s != 0)
    }

    /// The slot `hash`'s probe starts at: its top bits.
    fn home(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.slots.len().trailing_zeros())) as usize
    }

    /// The rows placed under `hash`, each once and in ascending row id:
    /// each step takes the least matching row id above the last one.
    fn rows(&self, hash: u64) -> impl Iterator<Item = RowId> + '_ {
        let mut last = 0;
        std::iter::from_fn(move || {
            last = self
                .run(hash)
                .filter(|&s| tag(s) == tag(hash) && s & ROW_MASK > last)
                .map(|s| s & ROW_MASK)
                .min()?;
            Some(RowId(last))
        })
    }

    /// Place `row` under `hash`, or, if that would pass 7/8 load, rebuild
    /// from the slab `rows`, which already holds `row`'s version.
    fn add(&mut self, hash: u64, row: RowId, rows: &[Chain], pk: usize) {
        if (self.used + 1) * 8 <= self.slots.len() * 7 {
            self.place(hash, row);
        } else {
            self.rebuild(rows, pk);
        }
    }

    /// Place `row` under `hash`; there is room.
    fn place(&mut self, hash: u64, row: RowId) {
        assert!(row.0 != 0 && row.0 <= ROW_MASK, "row id {} does not fit an index slot", row.0);
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = tag(hash) | row.0;
        self.used += 1;
    }

    /// Index the slab `rows` afresh in the fewest slots that keep it under
    /// 7/8 full: twice the slots when it grew full, fewer after a vacuum.
    fn rebuild(&mut self, rows: &[Chain], pk: usize) {
        let n: usize = rows.iter().map(|c| chain_keys(c, pk).count()).sum();
        // The old slots are dropped first: the slab is the source.
        self.slots = Vec::new();
        self.slots = vec![0; (n * 8 / 7 + 1).next_power_of_two().max(8)];
        self.used = 0;
        for (i, chain) in rows.iter().enumerate() {
            for key in chain_keys(chain, pk) {
                self.place(key_hash(key), RowId(i as u64 + 1));
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
    /// Candidate row ids by primary-key hash (empty without a key).
    pk_index: KeyIndex,
    /// Non-transactional AUTO_INCREMENT counter: advances even when the
    /// surrounding transaction rolls back (§4.2.3 / §4.3.2).
    pub auto_inc: i64,
    /// Commit timestamp of the last committed write to this table; used by
    /// serializable table-level validation and replication freshness checks.
    pub last_commit_ts: CommitTs,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            pk_index: KeyIndex::default(),
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
        self.key_rows(key).find_map(|id| {
            let vals = self.get(id, snap)?;
            (vals[pk] == *key).then_some((id, vals))
        })
    }

    /// The rows the index places under `key`'s hash, ascending: every row
    /// a version of which holds `key`, and maybe others.
    fn key_rows(&self, key: &Value) -> impl Iterator<Item = RowId> + '_ {
        self.pk_index.rows(key_hash(key))
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

    /// Insert a row version for transaction `snap.tx`.
    pub fn insert(&mut self, values: Vec<Value>, snap: Snapshot) -> Result<RowId, SqlError> {
        debug_assert_eq!(values.len(), self.schema.columns.len());
        let id = RowId(self.rows.len() as u64 + 1);
        let keyed = match self.schema.primary_key {
            Some(pk) => {
                let key = &values[pk];
                if key.is_null() {
                    return Err(SqlError::ConstraintViolation(format!(
                        "primary key '{}' may not be NULL",
                        self.schema.columns[pk].name
                    )));
                }
                let hash = key_hash(key);
                claim_key(&self.schema, &self.rows, self.pk_index.rows(hash), pk, key, snap)?;
                Some((pk, hash))
            }
            None => None,
        };
        self.rows.push(Chain::One(Version::new(snap.tx, values)));
        if let Some((pk, hash)) = keyed {
            self.pk_index.add(hash, id, &self.rows, pk);
        }
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
            // Another transaction ended the newest version: still open, it
            // holds the row; committed, it deleted the row (an update ends a
            // version only beneath a newer one), and overwriting its stamp
            // would lose the delete.
            if etx != snap.tx {
                return Err(match v.end_ts {
                    None => ConflictKind::UncommittedWriter,
                    Some(_) => ConflictKind::NewerCommit,
                });
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
            let new_key = &values[pk];
            if new_key.is_null() {
                return Err(ConflictOrError::Error(SqlError::ConstraintViolation(format!(
                    "primary key '{}' may not be NULL",
                    self.schema.columns[pk].name
                ))));
            }
            let old = self
                .get(row, snap)
                .ok_or_else(|| ConflictOrError::Error(SqlError::Internal("row vanished".into())))?;
            if old[pk] != *new_key {
                self.claim_key(pk, new_key, snap).map_err(ConflictOrError::Error)?;
            }
        }
        let idx = self
            .writable_version(row, snap, first_committer_wins)
            .map_err(ConflictOrError::Conflict)?;
        let chain = &mut self.rows[slot(row)];
        let newest = &mut chain.versions_mut()[idx];
        let before = newest.values.to_vec();
        newest.end_tx = stamp(snap.tx.0);
        newest.end_ts = None;
        // A key another version of the row holds is placed already.
        let moved = (self.schema.primary_key)
            .filter(|&pk| chain.versions().iter().all(|v| v.values[pk] != values[pk]))
            .map(|pk| (pk, key_hash(&values[pk])));
        chain.push(Version::new(snap.tx, values));
        if let Some((pk, hash)) = moved {
            self.pk_index.add(hash, row, &self.rows, pk);
        }
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

    /// Drop the versions of `row` that no snapshot at or after `horizon`
    /// can see: what a commit does to each row it wrote. Index slots of
    /// keys no version holds any more stay until the next rebuild, as
    /// after an abort. Returns the number of versions dropped.
    pub fn prune(&mut self, row: RowId, horizon: CommitTs) -> usize {
        self.rows.get_mut(slot(row)).map_or(0, |chain| chain.prune(horizon))
    }

    /// [`Table::prune`] every row and rebuild the index (vacuum-style
    /// maintenance, §4.4.4). Returns the number of versions reclaimed.
    pub fn vacuum(&mut self, horizon: CommitTs) -> usize {
        let reclaimed = self.rows.iter_mut().map(|chain| chain.prune(horizon)).sum();
        if let Some(pk) = self.schema.primary_key {
            self.pk_index.rebuild(&self.rows, pk);
        }
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

/// Every version, of the rows `ids` (the index's candidates for `key`),
/// whose primary key (column `pk`) is `key`.
fn key_versions<'a>(
    rows: &'a [Chain],
    ids: impl Iterator<Item = RowId> + 'a,
    pk: usize,
    key: &'a Value,
) -> impl Iterator<Item = &'a Version> + 'a {
    ids.flat_map(|id| versions(rows, id)).filter(move |v| v.values[pk] == *key)
}

/// May `snap` write a row whose primary key (column `pk`) is `key`, given
/// the index's candidate rows `ids` for it? Not if a version of the key is
/// visible to it or still uncommitted (a duplicate), nor if one committed
/// after its snapshot: first-committer-wins, as for an update of a row
/// committed since.
fn claim_key(
    schema: &TableSchema,
    rows: &[Chain],
    ids: impl Iterator<Item = RowId>,
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
    use replimid_det::{detcheck, DetRng};
    use std::collections::BTreeSet;

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
    fn a_chain_is_48_bytes_and_an_index_slot_8() {
        let chain = std::mem::size_of::<Chain>();
        let slot = std::mem::size_of::<Slot>();
        println!("footprint: size_of Chain: {chain} bytes, primary-key index slot: {slot} bytes");
        assert_eq!(chain, 48);
        assert_eq!(slot, 8);
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
        let listed = |t: &Table, k: &Value| t.key_rows(k).collect::<Vec<_>>();
        let dup = |r: Result<(), SqlError>| matches!(r, Err(SqlError::DuplicateKey(_)));

        let r1 = t.insert(vec![k1.clone(), Value::Null], snap(1, 0)).unwrap();
        t.commit_stamp(r1, TxId(1), CommitTs(1));
        assert_eq!(listed(&t, &k1), vec![r1]);
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
        assert_eq!(listed(&t, &k1), vec![r2]);
        assert_eq!(row_of(&t, &k1, 5), Some(r2));
        assert_eq!(row_of(&t, &k7, 5), None);
        assert!(dup(claim(&t, &k1, 5)));
        assert!(claim(&t, &k7, 5).is_ok());
    }

    /// Every row id of `t`: the candidates a scan of every version checks.
    fn every_row(t: &Table) -> impl Iterator<Item = RowId> {
        (1..=t.rows.len() as u64).map(RowId)
    }

    /// `claim_key` over every row instead of the index's candidates.
    fn scan_claim(t: &Table, key: &Value, s: Snapshot) -> Result<(), SqlError> {
        claim_key(&t.schema, &t.rows, every_row(t), 0, key, s)
    }

    /// After every step, lookups at several snapshots, key claims and key
    /// holders agree with a scan of every version.
    fn agrees_with_a_scan(t: &Table, open: &[(Snapshot, Vec<RowId>)], now: u64, rng: &mut DetRng) {
        let committed = |ts| snap(u64::MAX, ts);
        let snaps: Vec<Snapshot> = open
            .iter()
            .map(|(s, _)| *s)
            .chain([committed(now), committed(rng.gen_range(0..=now))])
            .collect();
        for key in (-1..=KEYS).map(Value::Int) {
            let live = t.scan(committed(now)).filter(|(_, v)| v[0] == key).count();
            assert!(live <= 1, "{live} committed rows hold {key}");
            for &s in &snaps {
                let seen = t.scan(s).find(|(_, v)| v[0] == key);
                assert_eq!(t.lookup_pk(&key, s), seen, "lookup of {key} at {s:?}");
                assert_eq!(t.claim_key(0, &key, s), scan_claim(t, &key, s), "claim of {key} at {s:?}");
                let scanned = holders(key_versions(&t.rows, every_row(t), 0, &key), s.tx);
                assert_eq!(t.key_holders(&key, s.tx), scanned, "holders of {key} for {:?}", s.tx);
            }
        }
    }

    const KEYS: i64 = 24;

    /// The rows `s` sees.
    fn seen(t: &Table, s: Snapshot) -> Vec<(RowId, Vec<Value>)> {
        t.scan(s).map(|(r, v)| (r, v.to_vec())).collect()
    }

    /// The index against a scan of every version, over random inserts,
    /// updates (key moves among them), deletes and reinserts, commits,
    /// aborts and an occasional vacuum. The key domain is small, so rows
    /// pile up under each key while the index grows through several
    /// rebuilds and probes collide at 7/8 load. Each commit prunes the
    /// rows it wrote, as the engine's does, and a twin table that never
    /// drops a version shows every open snapshot the same rows.
    #[test]
    fn the_index_finds_what_a_scan_of_every_version_finds() {
        detcheck::check("key_index_model", 4, |rng| {
            let (mut t, mut unpruned) = (Table::new(schema()), Table::new(schema()));
            let (mut next_tx, mut now) = (1, 0);
            // Open transactions: their snapshots and the rows they wrote.
            let mut open: Vec<(Snapshot, Vec<RowId>)> = Vec::new();
            // Rows a commit left more than one version because an open
            // snapshot pinned them; a vacuum at the latest commit clears it.
            let mut pinned: BTreeSet<RowId> = BTreeSet::new();
            let (mut sizes, mut full, mut idle_checks) = (vec![0], false, 0);
            let horizon = |open: &[(Snapshot, Vec<RowId>)], now| {
                CommitTs(open.iter().map(|(s, _)| s.ts.0).min().unwrap_or(now))
            };
            for _ in 0..600 {
                if open.len() < 3 && (open.is_empty() || rng.gen_bool(0.3)) {
                    open.push((snap(next_tx, now), Vec::new()));
                    next_tx += 1;
                }
                let i = rng.gen_range(0..open.len());
                let s = open[i].0;
                let key = Value::Int(rng.gen_range(0..KEYS));
                let visible: Vec<(RowId, Value)> = t.scan(s).map(|(r, v)| (r, v[0].clone())).collect();
                let target = (!visible.is_empty()).then(|| visible[rng.gen_range(0..visible.len())].clone());
                let wrote = match (rng.gen_range(0..100), target) {
                    (0..=39, _) => {
                        let want = scan_claim(&t, &key, s);
                        let got = t.insert(vec![key.clone(), Value::Null], s);
                        assert_eq!(got.as_ref().err(), want.as_ref().err(), "insert of {key}");
                        assert_eq!(unpruned.insert(vec![key.clone(), Value::Null], s), got);
                        got.ok()
                    }
                    (40..=59, Some((row, old))) => {
                        let new = if rng.gen_bool(0.5) { key } else { old.clone() };
                        let want = if new == old { Ok(()) } else { scan_claim(&t, &new, s) };
                        let values = vec![new, Value::Text("u".into())];
                        let twin = unpruned.update(row, values.clone(), s, true).is_ok();
                        let got = t.update(row, values, s, true);
                        assert_eq!(got.is_ok(), twin, "the unpruned twin's update of {row:?}");
                        match got {
                            Ok(_) => {
                                assert_eq!(want, Ok(()), "update of row {row:?}");
                                Some(row)
                            }
                            Err(ConflictOrError::Error(e)) => {
                                assert_eq!(Err(e), want, "update of row {row:?}");
                                None
                            }
                            Err(ConflictOrError::Conflict(_)) => None,
                        }
                    }
                    (60..=79, Some((row, _))) => {
                        let got = t.delete(row, s, true).ok().map(|_| row);
                        assert_eq!(unpruned.delete(row, s, true).ok().map(|_| row), got);
                        got
                    }
                    (80..=89, _) => {
                        now += 1;
                        let rows = open.swap_remove(i).1;
                        let h = horizon(&open, now);
                        for &row in &rows {
                            t.commit_stamp(row, s.tx, CommitTs(now));
                            unpruned.commit_stamp(row, s.tx, CommitTs(now));
                            t.prune(row, h);
                            if h.0 < now {
                                pinned.insert(row);
                            } else {
                                pinned.remove(&row);
                            }
                        }
                        None
                    }
                    (90..=96, _) => {
                        for &row in &open.swap_remove(i).1 {
                            t.abort_unwind(row, s.tx);
                            unpruned.abort_unwind(row, s.tx);
                        }
                        None
                    }
                    (97.., _) => {
                        let h = horizon(&open, now);
                        t.vacuum(h);
                        if h.0 == now {
                            pinned.clear();
                        }
                        None
                    }
                    _ => None,
                };
                if let Some(row) = wrote {
                    open[i].1.push(row);
                }
                if sizes.last() != Some(&t.pk_index.slots.len()) {
                    sizes.push(t.pk_index.slots.len());
                }
                full |= t.pk_index.used * 8 == t.pk_index.slots.len() * 7;
                agrees_with_a_scan(&t, &open, now, rng);
                for s in open.iter().map(|(s, _)| *s).chain([snap(u64::MAX, now)]) {
                    assert_eq!(seen(&t, s), seen(&unpruned, s), "rows at {s:?}");
                }
                if open.is_empty() {
                    idle_checks += 1;
                    for row in every_row(&t).filter(|r| !pinned.contains(r)) {
                        let n = versions(&t.rows, row).len();
                        assert!(n <= 1, "row {row:?} kept {n} versions with no snapshot open");
                    }
                }
            }
            assert!(idle_checks > 0, "no transaction was ever left open alone");
            assert!(t.version_count() < unpruned.version_count(), "nothing was pruned");
            let grown = sizes.windows(2).filter(|w| w[1] > w[0]).count();
            assert!(grown >= 3, "the index went through sizes {sizes:?} only");
            assert!(full, "the index never reached 7/8 load");
        });
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
