//! Durable storage under the engine: a simulated block device, a
//! bitcask-style framed write-ahead log, and checkpoint snapshots.
//!
//! Everything here is hermetic and deterministic — no real filesystem, no
//! external crates. The "device" is a byte vector with an explicit fsync
//! horizon; time is *not* modelled here (the engine has no clock authority).
//! Instead every operation bumps [`IoCounters`], and the database-node actor
//! converts those counters into virtual time with the simulator's disk
//! model. That keeps the dependency direction clean: `sql` knows bytes,
//! `simnet` knows microseconds.
//!
//! On-disk layout (integers in [`crate::keycode`] big-endian order, but a
//! record's position marks in LEB128 varints):
//!
//! ```text
//! WAL record frame:   [len: u64][fnv64(payload): u64][payload: len bytes]
//! payload:            keycode-encoded [`WalRecord`]
//! checkpoint device:  one frame holding an encoded [`Checkpoint`]
//! ```
//!
//! Crash semantics ([`CrashKind`]):
//! - `Clean`: an orderly stop — every buffered write reaches the platter.
//! - `LostTail`: power loss — bytes past the last fsync vanish.
//! - `TornTail`: power loss mid-write — a prefix of the unsynced region
//!   survives and its final sector is garbage. Recovery truncates at the
//!   first record whose checksum fails.
//!
//! Nothing before the fsync horizon is ever altered, which is exactly the
//! guarantee the recovery property tests pin down: zero committed loss past
//! the last fsync.

use std::sync::Arc;

use crate::ast::{ObjectName, Statement};
use crate::auth::User;
use crate::binlog::{BinlogEntry, BinlogPayload, Lsn};
use crate::catalog::{ProcedureDef, TableName, TriggerDef};
use crate::checksum::Fnv64;
use crate::dump::{DatabaseDump, Dump, TableDump};
use crate::keycode;
use crate::mvcc::{CommitTs, RowId, WriteKind, WriteRecord};
use crate::parser::parse_statement;
use crate::positions::{Mark, Marks, Positions, Watermark};
use crate::value::Value;
use crate::writeset::{CounterSync, Writeset};

/// How a backend process dies (injected by the fault schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashKind {
    /// Orderly shutdown: all buffered writes are flushed first.
    #[default]
    Clean,
    /// Power loss: every byte past the last fsync is gone.
    LostTail,
    /// Power loss mid-write: part of the unsynced tail survives, its last
    /// written byte torn (corrupted).
    TornTail,
}

impl CrashKind {
    pub fn name(self) -> &'static str {
        match self {
            CrashKind::Clean => "clean",
            CrashKind::LostTail => "lost-tail",
            CrashKind::TornTail => "torn-tail",
        }
    }
}

/// IO work performed against the simulated device, drained by the node
/// actor and converted to virtual time via `simnet`'s disk model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub fsyncs: u64,
}

impl IoCounters {
    pub fn is_zero(&self) -> bool {
        *self == IoCounters::default()
    }
}

/// A simulated block device: an append-only byte image with an fsync
/// horizon separating durable from buffered bytes.
#[derive(Debug, Clone, Default)]
pub struct BlockDev {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a power loss.
    synced: usize,
}

impl BlockDev {
    pub fn append(&mut self, bytes: &[u8], io: &mut IoCounters) {
        self.data.extend_from_slice(bytes);
        io.bytes_written += bytes.len() as u64;
    }

    pub fn fsync(&mut self, io: &mut IoCounters) {
        self.synced = self.data.len();
        io.fsyncs += 1;
    }

    pub fn read_all(&self, io: &mut IoCounters) -> &[u8] {
        io.bytes_read += self.data.len() as u64;
        &self.data
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// Discard the image (checkpoint truncation). Counted as a metadata
    /// write, not a data write.
    pub fn clear(&mut self, io: &mut IoCounters) {
        self.data.clear();
        self.synced = 0;
        io.fsyncs += 1;
    }

    /// Truncate buffered garbage found during recovery; never cuts into the
    /// synced region's valid records (callers pass a scan-validated length).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
        self.synced = self.synced.min(self.data.len());
    }

    /// Apply crash semantics. `entropy` picks the torn offset
    /// deterministically (the caller draws it from the simulation RNG).
    pub fn crash(&mut self, kind: CrashKind, entropy: u64) {
        match kind {
            CrashKind::Clean => {
                self.synced = self.data.len();
            }
            CrashKind::LostTail => {
                self.data.truncate(self.synced);
            }
            CrashKind::TornTail => {
                let unsynced = self.data.len() - self.synced;
                if unsynced > 0 {
                    let keep = (entropy as usize) % (unsynced + 1);
                    self.data.truncate(self.synced + keep);
                    if keep > 0 {
                        // The torn sector's final byte is garbage.
                        let last = self.data.len() - 1;
                        self.data[last] ^= 0xa5;
                    }
                }
                self.synced = self.synced.min(self.data.len());
            }
        }
    }

    /// Mark the current image durable without charging an fsync — used
    /// after recovery, when the surviving bytes were just read *from* disk.
    fn mark_synced(&mut self) {
        self.synced = self.data.len();
    }
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

const FRAME_HEADER: usize = 16; // len (8) + fnv64 (8)

fn frame(payload: &[u8], out: &mut Vec<u8>) {
    keycode::encode_u64(out, payload.len() as u64);
    let mut h = Fnv64::new();
    h.write_bytes(payload);
    keycode::encode_u64(out, h.finish());
    out.extend_from_slice(payload);
}

/// Walk framed records from `bytes`, stopping at the first frame that is
/// short, oversized, or checksum-corrupt. Returns the payloads and the
/// length of the valid prefix; `torn` is true when trailing bytes remain.
fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize, bool) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER {
            return (records, pos, true);
        }
        let (len, rest2) = keycode::decode_u64(rest).expect("checked length");
        let (sum, body) = keycode::decode_u64(rest2).expect("checked length");
        let len = len as usize;
        if body.len() < len {
            return (records, pos, true);
        }
        let payload = &body[..len];
        let mut h = Fnv64::new();
        h.write_bytes(payload);
        if h.finish() != sum {
            return (records, pos, true);
        }
        records.push(payload);
        pos += FRAME_HEADER + len;
    }
    (records, pos, false)
}

// ---------------------------------------------------------------------
// Binary codec (keycode integers + escaped strings throughout)
// ---------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

struct Rd<'a> {
    b: &'a [u8],
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b }
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        let (v, rest) = keycode::decode_u64(self.b).map_err(|e| format!("u64: {e:?}"))?;
        self.b = rest;
        Ok(v)
    }

    /// A LEB128 varint (see [`put_varint`]).
    fn varint(&mut self) -> DecodeResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint: too long".into())
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        let (v, rest) = keycode::decode_i64(self.b).map_err(|e| format!("i64: {e:?}"))?;
        self.b = rest;
        Ok(v)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        let (&v, rest) = self.b.split_first().ok_or("u8: truncated")?;
        self.b = rest;
        Ok(v)
    }

    fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.u8()? != 0)
    }

    fn str(&mut self) -> DecodeResult<String> {
        let (v, rest) = keycode::decode_str(self.b).map_err(|e| format!("str: {e:?}"))?;
        self.b = rest;
        Ok(v)
    }

    fn done(&self) -> DecodeResult<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.b.len()))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    keycode::encode_str(out, s);
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn get_opt_str(rd: &mut Rd<'_>) -> DecodeResult<Option<Arc<str>>> {
    Ok(if rd.u8()? == 0 { None } else { Some(rd.str()?.into()) })
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            keycode::encode_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(2);
            keycode::encode_u64(out, f.to_bits());
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
        Value::Timestamp(t) => {
            out.push(5);
            keycode::encode_i64(out, *t);
        }
    }
}

fn get_value(rd: &mut Rd<'_>) -> DecodeResult<Value> {
    Ok(match rd.u8()? {
        0 => Value::Null,
        1 => Value::Int(rd.i64()?),
        2 => Value::Float(f64::from_bits(rd.u64()?)),
        3 => Value::Text(rd.str()?),
        4 => Value::Bool(rd.u8()? != 0),
        5 => Value::Timestamp(rd.i64()?),
        t => return Err(format!("bad value tag {t}")),
    })
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    keycode::encode_u64(out, row.len() as u64);
    for v in row {
        put_value(out, v);
    }
}

fn get_row(rd: &mut Rd<'_>) -> DecodeResult<Vec<Value>> {
    let n = rd.u64()?;
    (0..n).map(|_| get_value(rd)).collect()
}

fn put_opt_row(out: &mut Vec<u8>, row: &Option<Vec<Value>>) {
    match row {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_row(out, r);
        }
    }
}

fn get_opt_row(rd: &mut Rd<'_>) -> DecodeResult<Option<Vec<Value>>> {
    Ok(if rd.u8()? == 0 { None } else { Some(get_row(rd)?) })
}

fn put_write_record(out: &mut Vec<u8>, w: &WriteRecord) {
    put_str(out, w.table.database());
    put_str(out, w.table.table());
    keycode::encode_u64(out, w.row.0);
    out.push(match w.kind {
        WriteKind::Insert => 0,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    });
    put_opt_row(out, &w.old);
    put_opt_row(out, &w.new);
    out.push(w.table.is_temp() as u8);
}

fn get_write_record(rd: &mut Rd<'_>, names: &mut Names) -> DecodeResult<WriteRecord> {
    let record = WriteRecord {
        table: names.get(rd)?,
        row: RowId(rd.u64()?),
        kind: match rd.u8()? {
            0 => WriteKind::Insert,
            1 => WriteKind::Update,
            2 => WriteKind::Delete,
            t => return Err(format!("bad write kind {t}")),
        },
        old: get_opt_row(rd)?,
        new: get_opt_row(rd)?,
    };
    // The temp flag: the empty database name says the same.
    rd.bool()?;
    Ok(record)
}

/// The table names one decode pass has minted: every record of a table
/// shares its one [`TableName`] instead of minting its own (`load` decodes
/// a whole WAL with one).
#[derive(Default)]
struct Names(Vec<TableName>);

impl Names {
    /// Decode a (database, table) pair as the pass's name for it.
    fn get(&mut self, rd: &mut Rd<'_>) -> DecodeResult<TableName> {
        let (database, table) = (rd.str()?, rd.str()?);
        if let Some(name) = self.0.iter().find(|n| n.is(&database, &table)) {
            return Ok(name.clone());
        }
        let name = TableName::new(&database, &table);
        self.0.push(name.clone());
        Ok(name)
    }
}

fn put_counter_sync(out: &mut Vec<u8>, cs: &CounterSync) {
    keycode::encode_u64(out, cs.sequences.len() as u64);
    for ((db, name), v) in &cs.sequences {
        put_str(out, db);
        put_str(out, name);
        keycode::encode_i64(out, *v);
    }
    keycode::encode_u64(out, cs.auto_increments.len() as u64);
    for (table, v) in &cs.auto_increments {
        put_str(out, table.database());
        put_str(out, table.table());
        keycode::encode_i64(out, *v);
    }
}

fn get_counter_sync(rd: &mut Rd<'_>, names: &mut Names) -> DecodeResult<CounterSync> {
    let mut cs = CounterSync::default();
    for _ in 0..rd.u64()? {
        cs.sequences.push(((rd.str()?, rd.str()?), rd.i64()?));
    }
    for _ in 0..rd.u64()? {
        cs.auto_increments.push((names.get(rd)?, rd.i64()?));
    }
    Ok(cs)
}

fn put_writeset(out: &mut Vec<u8>, ws: &Writeset) {
    keycode::encode_u64(out, ws.entries.len() as u64);
    for e in &ws.entries {
        put_write_record(out, e);
    }
    match &ws.counters {
        None => out.push(0),
        Some(cs) => {
            out.push(1);
            put_counter_sync(out, cs);
        }
    }
}

fn get_writeset(rd: &mut Rd<'_>, names: &mut Names) -> DecodeResult<Writeset> {
    let n = rd.u64()?;
    let entries = (0..n).map(|_| get_write_record(rd, names)).collect::<DecodeResult<_>>()?;
    let counters = if rd.u8()? == 0 { None } else { Some(get_counter_sync(rd, names)?) };
    Ok(Writeset { entries, counters })
}

fn put_binlog_entry(out: &mut Vec<u8>, e: &BinlogEntry) {
    keycode::encode_u64(out, e.lsn.0);
    keycode::encode_u64(out, e.commit_ts.0);
    put_opt_str(out, e.default_db.as_deref());
    keycode::encode_u64(out, e.statements.len() as u64);
    for s in &e.statements {
        put_str(out, s);
    }
    put_writeset(out, &e.writeset);
}

fn get_binlog_entry(rd: &mut Rd<'_>, names: &mut Names) -> DecodeResult<BinlogEntry> {
    let lsn = Lsn(rd.u64()?);
    let commit_ts = CommitTs(rd.u64()?);
    let default_db = get_opt_str(rd)?;
    let n = rd.u64()?;
    let statements = (0..n).map(|_| rd.str()).collect::<DecodeResult<_>>()?;
    let writeset = get_writeset(rd, names)?;
    Ok(BinlogEntry::new(lsn, commit_ts, BinlogPayload { default_db, statements, writeset }))
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One durable log record. Every `Commit` carries the ordered positions it
/// applied (and those applied without a commit just before it), so data
/// and positions live or die together across a torn tail — a node can
/// never recover data it has no position for (the double-apply hazard of
/// split redo/metadata logs), nor a position whose data it lost.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction, mirrored from the binlog, with the foreign
    /// binlog position at append time.
    Commit { entry: BinlogEntry, applied_lsn: u64, marks: Vec<Mark> },
    /// Replication positions advanced without a local commit (a failed
    /// ordered statement, an applied no-op, a shipped entry).
    Meta { applied_lsn: u64, marks: Vec<Mark> },
    /// Non-transactional counter state (sequences, AUTO_INCREMENT) at append
    /// time. These advance outside commit records (§4.2.3: a NEXTVAL in an
    /// aborted transaction still bumps the sequence), so without this record
    /// a crash between checkpoints would recover stale counters and hand out
    /// duplicate keys.
    Counters(CounterSync),
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Commit { entry, applied_lsn, marks } => {
                // keycode key prefix: (tag, lsn) — record keys compare in
                // log order as raw bytes.
                keycode::encode_u64(&mut out, 1);
                keycode::encode_u64(&mut out, entry.lsn.0);
                keycode::encode_u64(&mut out, *applied_lsn);
                put_marks(&mut out, marks);
                put_binlog_entry(&mut out, entry);
            }
            WalRecord::Meta { applied_lsn, marks } => {
                keycode::encode_u64(&mut out, 2);
                keycode::encode_u64(&mut out, *applied_lsn);
                put_marks(&mut out, marks);
            }
            WalRecord::Counters(cs) => {
                keycode::encode_u64(&mut out, 3);
                put_counter_sync(&mut out, cs);
            }
        }
        out
    }

    fn decode(payload: &[u8], names: &mut Names) -> DecodeResult<WalRecord> {
        let mut rd = Rd::new(payload);
        let rec = match rd.u64()? {
            1 => {
                let _key_lsn = rd.u64()?;
                let applied_lsn = rd.u64()?;
                let marks = get_marks(&mut rd)?;
                let entry = get_binlog_entry(&mut rd, names)?;
                WalRecord::Commit { entry, applied_lsn, marks }
            }
            2 => WalRecord::Meta { applied_lsn: rd.u64()?, marks: get_marks(&mut rd)? },
            3 => WalRecord::Counters(get_counter_sync(&mut rd, names)?),
            t => return Err(format!("bad record tag {t}")),
        };
        rd.done()?;
        Ok(rec)
    }
}

/// LEB128: seven bits a byte, low bits first, high bit set on every byte
/// but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A record's marks as varints: the count, then (group, position) each.
/// Nearly every record carries one mark, which takes a few bytes.
fn put_marks(out: &mut Vec<u8>, marks: &[Mark]) {
    put_varint(out, marks.len() as u64);
    for &(g, pos) in marks {
        put_varint(out, g.into());
        put_varint(out, pos);
    }
}

fn get_marks(rd: &mut Rd) -> DecodeResult<Vec<Mark>> {
    let n = rd.varint()?;
    (0..n)
        .map(|_| {
            let g = u32::try_from(rd.varint()?).map_err(|_| "mark group: out of range")?;
            Ok((g, rd.varint()?))
        })
        .collect()
}

/// Per group: the contiguous prefix, then the positions applied above it.
fn put_positions(out: &mut Vec<u8>, p: &Positions) {
    keycode::encode_u64(out, p.groups().len() as u64);
    for w in p.groups() {
        keycode::encode_u64(out, w.value());
        keycode::encode_u64(out, w.above().count() as u64);
        for pos in w.above() {
            keycode::encode_u64(out, pos);
        }
    }
}

fn get_positions(rd: &mut Rd) -> DecodeResult<Positions> {
    let mut groups = Vec::new();
    for _ in 0..rd.u64()? {
        let mut w = Watermark::at(rd.u64()?);
        for _ in 0..rd.u64()? {
            w.mark(rd.u64()?);
        }
        groups.push(w);
    }
    Ok(Positions::from_groups(groups))
}

// ---------------------------------------------------------------------
// Checkpoint codec
// ---------------------------------------------------------------------

/// Magic + version guarding the checkpoint image.
const CKPT_MAGIC: u64 = 0x524d_434b_5054_0002; // "RMCKPT" v2: per-group positions

/// A durable snapshot of engine state plus the replication positions it
/// covers. Recovery loads the checkpoint, then replays the WAL suffix.
/// The operator-facing dump/restore path round-trips through this exact
/// format, so a backup taken by an operator is bit-for-bit what recovery
/// itself consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub dump: Dump,
    pub applied_lsn: u64,
    pub ordered: Positions,
    /// Local binlog head at snapshot time; the reborn binlog is rebased
    /// here, so peers further behind get an honest "log truncated" signal.
    pub binlog_head: u64,
}

/// Encode a checkpoint to its durable byte image.
pub fn encode_checkpoint(c: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    keycode::encode_u64(&mut out, CKPT_MAGIC);
    keycode::encode_u64(&mut out, c.applied_lsn);
    put_positions(&mut out, &c.ordered);
    keycode::encode_u64(&mut out, c.binlog_head);
    keycode::encode_u64(&mut out, c.dump.at_ts.0);
    keycode::encode_u64(&mut out, c.dump.checksum);
    keycode::encode_u64(&mut out, c.dump.databases.len() as u64);
    for db in &c.dump.databases {
        put_str(&mut out, &db.name);
        keycode::encode_u64(&mut out, db.tables.len() as u64);
        for t in &db.tables {
            // Schema (columns, defaults, PK flags) rides as rendered SQL:
            // `parse(render(stmt)) == stmt` is property-tested, so the text
            // form is the one schema codec that cannot drift from the AST.
            let ddl = Statement::CreateTable {
                name: ObjectName::bare(t.name.clone()),
                columns: t.columns.clone(),
                temporary: false,
                if_not_exists: false,
            };
            put_str(&mut out, &ddl.to_string());
            keycode::encode_i64(&mut out, t.auto_inc);
            keycode::encode_u64(&mut out, t.rows.len() as u64);
            for row in &t.rows {
                put_row(&mut out, row);
            }
        }
        keycode::encode_u64(&mut out, db.sequences.len() as u64);
        for (name, v) in &db.sequences {
            put_str(&mut out, name);
            keycode::encode_i64(&mut out, *v);
        }
        keycode::encode_u64(&mut out, db.triggers.len() as u64);
        for trg in &db.triggers {
            let ddl = Statement::CreateTrigger {
                name: trg.name.clone(),
                event: trg.event,
                table: ObjectName::bare(trg.table.clone()),
                body: trg.body.clone(),
            };
            put_str(&mut out, &ddl.to_string());
        }
        keycode::encode_u64(&mut out, db.procedures.len() as u64);
        for p in &db.procedures {
            let ddl = Statement::CreateProcedure {
                name: ObjectName::bare(p.name.clone()),
                params: p.params.clone(),
                body: p.body.clone(),
            };
            put_str(&mut out, &ddl.to_string());
        }
    }
    match &c.dump.users {
        None => out.push(0),
        Some(users) => {
            out.push(1);
            keycode::encode_u64(&mut out, users.len() as u64);
            for u in users {
                put_str(&mut out, &u.name);
                put_str(&mut out, &u.password);
                keycode::encode_u64(&mut out, u.grants.len() as u64);
                for (db, p) in &u.grants {
                    put_str(&mut out, db);
                    out.push(match p {
                        crate::ast::Privilege::All => 0,
                        crate::ast::Privilege::Read => 1,
                        crate::ast::Privilege::Write => 2,
                    });
                }
            }
        }
    }
    out
}

fn table_from_ddl(ddl: &str) -> DecodeResult<(String, Vec<crate::ast::ColumnDef>)> {
    match parse_statement(ddl) {
        Ok(Statement::CreateTable { name, columns, .. }) => Ok((name.name, columns)),
        Ok(other) => Err(format!("checkpoint table DDL parsed as {other}")),
        Err(e) => Err(format!("checkpoint table DDL: {e}")),
    }
}

/// Decode a checkpoint image (inverse of [`encode_checkpoint`]).
pub fn decode_checkpoint(bytes: &[u8]) -> DecodeResult<Checkpoint> {
    let mut rd = Rd::new(bytes);
    if rd.u64()? != CKPT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let applied_lsn = rd.u64()?;
    let ordered = get_positions(&mut rd)?;
    let binlog_head = rd.u64()?;
    let at_ts = CommitTs(rd.u64()?);
    let checksum = rd.u64()?;
    let mut databases = Vec::new();
    for _ in 0..rd.u64()? {
        let name = rd.str()?;
        let mut tables = Vec::new();
        for _ in 0..rd.u64()? {
            let (tname, columns) = table_from_ddl(&rd.str()?)?;
            let auto_inc = rd.i64()?;
            let nrows = rd.u64()?;
            let rows = (0..nrows).map(|_| get_row(&mut rd)).collect::<DecodeResult<_>>()?;
            tables.push(TableDump { name: tname, columns, rows, auto_inc });
        }
        let mut sequences = Vec::new();
        for _ in 0..rd.u64()? {
            sequences.push((rd.str()?, rd.i64()?));
        }
        let mut triggers = Vec::new();
        for _ in 0..rd.u64()? {
            match parse_statement(&rd.str()?) {
                Ok(Statement::CreateTrigger { name, event, table, body }) => {
                    triggers.push(TriggerDef { name, event, table: table.name, body });
                }
                other => return Err(format!("checkpoint trigger DDL: {other:?}")),
            }
        }
        let mut procedures = Vec::new();
        for _ in 0..rd.u64()? {
            match parse_statement(&rd.str()?) {
                Ok(Statement::CreateProcedure { name, params, body }) => {
                    procedures.push(ProcedureDef { name: name.name, params, body });
                }
                other => return Err(format!("checkpoint procedure DDL: {other:?}")),
            }
        }
        databases.push(DatabaseDump { name, tables, sequences, triggers, procedures });
    }
    let users = if rd.u8()? == 0 {
        None
    } else {
        let mut users = Vec::new();
        for _ in 0..rd.u64()? {
            let name = rd.str()?;
            let password = rd.str()?;
            let mut grants = std::collections::BTreeMap::new();
            for _ in 0..rd.u64()? {
                let db = rd.str()?;
                let p = match rd.u8()? {
                    0 => crate::ast::Privilege::All,
                    1 => crate::ast::Privilege::Read,
                    2 => crate::ast::Privilege::Write,
                    t => return Err(format!("bad privilege tag {t}")),
                };
                grants.insert(db, p);
            }
            users.push(User { name: name.into(), password, grants });
        }
        Some(users)
    };
    rd.done()?;
    Ok(Checkpoint {
        dump: Dump { at_ts, databases, users, checksum },
        applied_lsn,
        ordered,
        binlog_head,
    })
}

// ---------------------------------------------------------------------
// Durable store: WAL device + checkpoint device + policy
// ---------------------------------------------------------------------

/// Durability policy. Off by default at the engine level (the field is an
/// `Option` on `EngineConfig`); these knobs only exist once it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Take a checkpoint (snapshot + WAL truncate) every N commit records.
    /// 0 disables periodic checkpoints (the log only grows).
    pub checkpoint_every: u64,
    /// Fsync the WAL every N records. 1 = group-commit every maintenance
    /// round; larger values leave an unsynced tail that `LostTail` and
    /// `TornTail` crashes actually destroy.
    pub fsync_every: u64,
    /// Two-phase checkpoint install. Phase 1 stages the new image after
    /// the current one *unsynced* and leaves the WAL alone; phase 2 — the
    /// next maintenance round — fsyncs, compacts the device to the new
    /// image, and cuts the covered WAL prefix. The gap between the phases
    /// is exactly the window where a crash tears an in-progress
    /// checkpoint: recovery then falls back to the previous image plus a
    /// longer WAL replay. Off (the default) keeps the historical atomic
    /// install, byte-for-byte.
    pub two_phase_checkpoint: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { checkpoint_every: 64, fsync_every: 1, two_phase_checkpoint: false }
    }
}

/// What one maintenance round did (returned by `Engine::wal_maintain`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalMaintain {
    /// Records appended to the WAL this round.
    pub appended: u64,
    /// Rows snapshotted, when this round took a checkpoint (the caller
    /// charges dump CPU for them).
    pub checkpoint_rows: Option<u64>,
}

/// Observable durable-layer state, for experiments and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    pub wal_bytes: u64,
    pub wal_synced_bytes: u64,
    pub wal_records: u64,
    pub checkpoints_taken: u64,
}

/// What recovery did, in engine-local terms. The node actor layers IO and
/// CPU time on top to produce the measured MTTR contribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub checkpoint_loaded: bool,
    /// Rows restored from the checkpoint snapshot.
    pub checkpoint_rows: u64,
    /// WAL commit records replayed into the engine.
    pub entries_replayed: u64,
    /// A torn tail was detected and truncated at the first bad checksum.
    pub torn_truncated: bool,
    /// An in-progress (staged, never completed) checkpoint image was
    /// damaged by the crash; recovery fell back to the previous image and
    /// replayed the longer WAL suffix it still covers. Only possible with
    /// `DurabilityConfig::two_phase_checkpoint`.
    pub checkpoint_fallback: bool,
    /// Engine CPU consumed replaying the suffix (virtual µs).
    pub replay_cpu_us: u64,
    /// Recovered replication positions (durable metadata): the foreign
    /// binlog LSN, and the per-group ordered positions.
    pub applied_lsn: u64,
    pub ordered: Positions,
}

/// The engine's durable half: both devices plus append/fsync/checkpoint
/// policy state.
#[derive(Debug, Clone)]
pub struct DurableStore {
    pub cfg: DurabilityConfig,
    wal: BlockDev,
    ckpt: BlockDev,
    io: IoCounters,
    wal_records: u64,
    records_since_fsync: u64,
    commits_since_ckpt: u64,
    checkpoints_taken: u64,
    /// Highest local binlog LSN mirrored into the WAL.
    pub logged_head: u64,
    /// Foreign binlog LSN as of the last record written (change detection).
    last_applied_lsn: u64,
    /// Ordered positions the WAL and checkpoint hold, fsynced or not.
    logged: Positions,
    /// Per-group ordered prefixes covered by the last WAL fsync or
    /// completed checkpoint: what any crash kind leaves recoverable.
    synced: Vec<u64>,
    /// Counter state as of the last `Counters` record (change detection).
    last_counters: CounterSync,
    /// A phase-1 (staged, unsynced) checkpoint image awaits completion.
    ckpt_pending: bool,
}

impl DurableStore {
    pub fn new(cfg: DurabilityConfig) -> Self {
        DurableStore {
            cfg: DurabilityConfig { fsync_every: cfg.fsync_every.max(1), ..cfg },
            wal: BlockDev::default(),
            ckpt: BlockDev::default(),
            io: IoCounters::default(),
            wal_records: 0,
            records_since_fsync: 0,
            commits_since_ckpt: 0,
            checkpoints_taken: 0,
            logged_head: 0,
            last_applied_lsn: 0,
            logged: Positions::default(),
            synced: Vec::new(),
            last_counters: CounterSync::default(),
            ckpt_pending: false,
        }
    }

    fn append_record(&mut self, rec: &WalRecord) {
        let payload = rec.encode();
        let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
        frame(&payload, &mut framed);
        self.wal.append(&framed, &mut self.io);
        self.wal_records += 1;
        self.records_since_fsync += 1;
    }

    /// Log a commit with the ordered positions it applied.
    pub fn append_commit(&mut self, entry: &BinlogEntry, applied_lsn: u64, marks: impl Into<Marks>) {
        let Marks(marks) = marks.into();
        self.log_marks(applied_lsn, &marks);
        self.append_record(&WalRecord::Commit { entry: entry.clone(), applied_lsn, marks });
        self.logged_head = self.logged_head.max(entry.lsn.0);
        self.commits_since_ckpt += 1;
    }

    /// Log positions that advanced without a commit.
    pub fn append_meta(&mut self, applied_lsn: u64, marks: impl Into<Marks>) {
        let Marks(marks) = marks.into();
        self.log_marks(applied_lsn, &marks);
        self.append_record(&WalRecord::Meta { applied_lsn, marks });
    }

    fn log_marks(&mut self, applied_lsn: u64, marks: &[Mark]) {
        self.last_applied_lsn = applied_lsn;
        for &m in marks {
            self.logged.mark(m);
        }
    }

    /// Log non-transactional counter state (§4.2.3). Called by the engine
    /// whenever sequences/AUTO_INCREMENT counters moved since the last log.
    pub fn append_counters(&mut self, cs: &CounterSync) {
        self.append_record(&WalRecord::Counters(cs.clone()));
        self.last_counters = cs.clone();
    }

    pub fn counters_changed(&self, cs: &CounterSync) -> bool {
        self.last_counters != *cs
    }

    /// Record counter state covered by other means (a fresh checkpoint, a
    /// completed recovery) without writing a record.
    pub fn note_counters(&mut self, cs: CounterSync) {
        self.last_counters = cs;
    }

    pub fn applied_lsn_changed(&self, applied_lsn: u64) -> bool {
        self.last_applied_lsn != applied_lsn
    }

    /// Fsync if the policy's record budget is spent.
    pub fn maybe_fsync(&mut self) {
        if self.records_since_fsync >= self.cfg.fsync_every {
            self.wal.fsync(&mut self.io);
            self.records_since_fsync = 0;
            // No install is staged here (maintenance completes one before
            // appending), so `logged` is what the synced records hold.
            self.synced = self.logged.prefixes();
        }
    }

    /// The per-group ordered prefixes a crash of any kind cannot take this
    /// store below: covered by the last WAL fsync or completed checkpoint.
    pub fn synced_ordered(&self) -> &[u64] {
        &self.synced
    }

    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.commits_since_ckpt >= self.cfg.checkpoint_every
    }

    /// Write a checkpoint image and truncate the WAL. The default mode is
    /// the classic atomic-in-model install: image cleared, written, and
    /// fsynced before the log is cut, so a crash between maintenance
    /// rounds only ever sees a complete image. With
    /// [`DurabilityConfig::two_phase_checkpoint`] this is only phase 1:
    /// the new image is *staged* after the current one, unsynced, and the
    /// WAL is left alone until [`Self::complete_checkpoint`] runs next
    /// round — so a crash in between exposes an in-progress checkpoint to
    /// `LostTail`/`TornTail` damage.
    pub fn install_checkpoint(&mut self, c: &Checkpoint) {
        let payload = encode_checkpoint(c);
        let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
        frame(&payload, &mut framed);
        if self.cfg.two_phase_checkpoint {
            // Degenerate back-to-back installs: finish the staged one
            // first so the device never carries two pending images.
            if self.ckpt_pending {
                self.complete_checkpoint();
            }
            self.ckpt.append(&framed, &mut self.io);
            self.ckpt_pending = true;
            self.commits_since_ckpt = 0;
        } else {
            self.ckpt.clear(&mut self.io);
            self.ckpt.append(&framed, &mut self.io);
            self.ckpt.fsync(&mut self.io);
            self.wal.clear(&mut self.io);
            self.wal_records = 0;
            self.records_since_fsync = 0;
            self.commits_since_ckpt = 0;
            self.checkpoints_taken += 1;
            self.synced = c.ordered.prefixes();
        }
        self.logged_head = self.logged_head.max(c.binlog_head);
        self.last_applied_lsn = c.applied_lsn;
        self.logged = c.ordered.clone();
    }

    /// A staged (phase-1) checkpoint image awaits completion.
    pub fn checkpoint_pending(&self) -> bool {
        self.ckpt_pending
    }

    /// Phase 2 of a two-phase install: fsync the staged image, compact the
    /// device down to it (write-new-then-rename, modeled as a rewrite),
    /// and cut the WAL prefix the image covers. The caller runs this at
    /// the start of the next maintenance round, *before* appending new
    /// records, so everything in the WAL at this point is covered by the
    /// staged snapshot.
    pub fn complete_checkpoint(&mut self) {
        if !self.ckpt_pending {
            return;
        }
        self.ckpt.fsync(&mut self.io);
        let bytes = self.ckpt.read_all(&mut self.io).to_vec();
        let (frames, _, _) = scan_frames(&bytes);
        if let Some(last) = frames.last() {
            let payload = last.to_vec();
            let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
            frame(&payload, &mut framed);
            self.ckpt.clear(&mut self.io);
            self.ckpt.append(&framed, &mut self.io);
            self.ckpt.fsync(&mut self.io);
        }
        self.wal.clear(&mut self.io);
        self.wal_records = 0;
        self.records_since_fsync = 0;
        self.checkpoints_taken += 1;
        self.ckpt_pending = false;
        // Nothing was appended since the staged install set `logged`.
        self.synced = self.logged.prefixes();
    }

    /// Apply crash semantics to both devices. Under atomic installs the
    /// checkpoint device is always fully synced, so any crash kind is a
    /// no-op there; under two-phase installs a staged image sits in the
    /// unsynced region, where `LostTail` vaporizes it and `TornTail`
    /// leaves a damaged prefix for recovery to detect and skip.
    pub fn crash(&mut self, kind: CrashKind, entropy: u64) {
        self.wal.crash(kind, entropy);
        if kind != CrashKind::Clean {
            // Rotate the entropy so the WAL and checkpoint tear offsets
            // are decorrelated but still seed-deterministic.
            self.ckpt.crash(kind, entropy.rotate_left(17));
        }
    }

    /// Read both devices back for recovery: the newest decodable
    /// checkpoint image and the valid WAL record prefix. Truncates torn
    /// garbage in place and marks the surviving images synced. The final
    /// bool reports a checkpoint fallback: a newer (staged) image existed
    /// but was damaged, so recovery uses the previous one.
    pub fn load(&mut self) -> (Option<Checkpoint>, Vec<WalRecord>, bool, bool) {
        let ckpt_bytes = self.ckpt.read_all(&mut self.io).to_vec();
        let (ckpt_frames, _, ckpt_torn) = scan_frames(&ckpt_bytes);
        let mut win: Option<(usize, Checkpoint)> = None;
        let mut ckpt_fallback = ckpt_torn;
        for (i, p) in ckpt_frames.iter().enumerate().rev() {
            match decode_checkpoint(p) {
                Ok(c) => {
                    win = Some((i, c));
                    break;
                }
                // A checksum-valid but undecodable image can only be a
                // torn write that collided with the FNV: fall back.
                Err(_) => ckpt_fallback = true,
            }
        }
        // The staged image won (two-phase install interrupted by a clean
        // or harmless crash): it snapshots state as of the last append,
        // so the entire surviving WAL is covered — complete the install
        // during recovery exactly as the next round would have.
        let staged_won =
            matches!(&win, Some((i, _)) if *i + 1 == ckpt_frames.len() && ckpt_frames.len() > 1);
        // Compact the device to the winning image when recovery skipped
        // damaged or superseded frames. Only reachable under two-phase
        // installs: the atomic path leaves exactly one clean frame.
        if ckpt_torn || ckpt_frames.len() > 1 {
            let keep = win.as_ref().map(|(i, _)| ckpt_frames[*i].to_vec());
            self.ckpt.clear(&mut self.io);
            if let Some(payload) = keep {
                let mut framed = Vec::with_capacity(payload.len() + FRAME_HEADER);
                frame(&payload, &mut framed);
                self.ckpt.append(&framed, &mut self.io);
                self.ckpt.fsync(&mut self.io);
            }
        }
        self.ckpt_pending = false;
        let checkpoint = win.map(|(_, c)| c);

        let wal_bytes = self.wal.read_all(&mut self.io).to_vec();
        let (frames, mut valid_len, mut torn) = scan_frames(&wal_bytes);
        let mut records = Vec::with_capacity(frames.len());
        let mut names = Names::default();
        for (i, payload) in frames.iter().enumerate() {
            match WalRecord::decode(payload, &mut names) {
                Ok(r) => records.push(r),
                Err(_) => {
                    // A frame with a valid checksum but undecodable payload
                    // can only be a torn write that collided with the FNV —
                    // treat everything from here on as garbage.
                    valid_len = frames[..i].iter().map(|f| f.len() + FRAME_HEADER).sum();
                    torn = true;
                    break;
                }
            }
        }
        self.wal.truncate(valid_len);
        self.wal.mark_synced();
        if staged_won {
            // Finish the interrupted install: every surviving WAL record
            // predates the staged snapshot, so the suffix is redundant.
            self.wal.clear(&mut self.io);
            records.clear();
            self.checkpoints_taken += 1;
        }
        self.wal_records = records.len() as u64;
        self.records_since_fsync = 0;
        (checkpoint, records, torn, ckpt_fallback)
    }

    /// Reset policy cursors after recovery rebuilt the engine.
    pub fn rearm(&mut self, logged_head: u64, applied_lsn: u64, ordered: &Positions) {
        self.logged_head = logged_head;
        self.last_applied_lsn = applied_lsn;
        self.synced = ordered.prefixes();
        self.logged = ordered.clone();
        self.commits_since_ckpt = self.wal_records;
    }

    pub fn take_io(&mut self) -> IoCounters {
        std::mem::take(&mut self.io)
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            wal_bytes: self.wal.len() as u64,
            wal_synced_bytes: self.wal.synced_len() as u64,
            wal_records: self.wal_records,
            checkpoints_taken: self.checkpoints_taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lsn: u64, rows: usize) -> BinlogEntry {
        let entries = (0..rows)
            .map(|i| WriteRecord {
                table: TableName::new("db", "t"),
                row: RowId(i as u64 + 1),
                kind: WriteKind::Insert,
                old: None,
                new: Some(vec![
                    Value::Int(i as i64),
                    Value::Text(format!("row-{i}\0with-nul")),
                    Value::Float(1.5),
                    Value::Null,
                    Value::Bool(true),
                    Value::Timestamp(-7),
                ]),
            })
            .collect();
        BinlogEntry::new(
            Lsn(lsn),
            CommitTs(lsn * 10),
            BinlogPayload {
                default_db: Some("db".into()),
                statements: vec![format!("INSERT INTO t VALUES ({lsn})")],
                writeset: Writeset { entries, counters: None },
            },
        )
    }

    fn store_with(n: u64, fsync_every: u64) -> DurableStore {
        let mut s = DurableStore::new(DurabilityConfig { checkpoint_every: 0, fsync_every, ..Default::default() });
        for lsn in 1..=n {
            s.append_commit(&entry(lsn, 2), 0, lsn);
            s.maybe_fsync();
        }
        s
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The WAL bytes of one write record and of one commit record. They
    /// feed the device model (bytes written are virtual disk time) and are
    /// what crash recovery reads back, so how a record names its table in
    /// memory must not move them.
    #[test]
    fn wal_bytes_are_pinned() {
        let e = entry(3, 1);
        let mut rec = Vec::new();
        put_write_record(&mut rec, &e.writeset.entries[0]);
        assert_eq!(hex(&rec), "646200007400000000000000000001000001000000000000000601800000000000000003726f772d3000ff776974682d6e756c0000023ff8000000000000000401057ffffffffffffff900");
        let commit = WalRecord::Commit { entry: e, applied_lsn: 7, marks: vec![(0, 9), (3, 2)] };
        assert_eq!(
            hex(&commit.encode()),
            "00000000000000010000000000000003000000000000000702000903020000000000000003000000000000001e01646200000000000000000001494e5345525420494e544f20742056414c5545532028332900000000000000000001646200007400000000000000000001000001000000000000000601800000000000000003726f772d3000ff776974682d6e756c0000023ff8000000000000000401057ffffffffffffff90000"
        );
    }

    #[test]
    fn record_round_trip() {
        for rec in [
            WalRecord::Commit { entry: entry(3, 4), applied_lsn: 7, marks: vec![(0, 9), (3, 2), (1, 1 << 40)] },
            WalRecord::Meta { applied_lsn: 1, marks: vec![(1, 2)] },
            WalRecord::Meta { applied_lsn: 1, marks: Vec::new() },
            WalRecord::Counters(CounterSync {
                sequences: vec![(("shop".into(), "s".into()), 42)],
                auto_increments: vec![(TableName::new("shop", "t"), 7)],
            }),
        ] {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc, &mut Names::default()).unwrap(), rec);
        }
    }

    /// A load decodes every record of one table to one shared name: the
    /// replayed entries (which the reborn binlog keeps) hold one `Arc` per
    /// table, not one per record.
    #[test]
    fn a_load_shares_one_name_per_table() {
        let mut s = store_with(3, 1);
        s.crash(CrashKind::Clean, 0);
        let (_, records, _, _) = s.load();
        let names: Vec<&TableName> = records
            .iter()
            .flat_map(|r| match r {
                WalRecord::Commit { entry, .. } => entry.writeset.entries.iter().map(|w| &w.table).collect(),
                _ => Vec::new(),
            })
            .collect();
        assert_eq!(names.len(), 6);
        for n in &names {
            assert!(std::ptr::eq(n.database(), names[0].database()), "a record minted its own name");
        }
    }

    #[test]
    fn clean_crash_loses_nothing() {
        let mut s = store_with(10, 4); // unsynced tail exists
        s.crash(CrashKind::Clean, 0xdead_beef);
        let (ckpt, records, torn, _) = s.load();
        assert!(ckpt.is_none());
        assert_eq!(records.len(), 10);
        assert!(!torn);
    }

    #[test]
    fn lost_tail_drops_exactly_the_unsynced_records() {
        let mut s = store_with(10, 4); // fsyncs after records 4 and 8
        s.crash(CrashKind::LostTail, 0);
        let (_, records, torn, _) = s.load();
        assert_eq!(records.len(), 8);
        assert!(!torn);
    }

    #[test]
    fn torn_tail_truncates_at_first_bad_checksum() {
        // Sweep the torn offset across the whole unsynced region: recovery
        // must always keep the 8 synced records, never more than 10, and
        // never report garbage as a record.
        for entropy in 0..200u64 {
            let mut s = store_with(10, 4);
            s.crash(CrashKind::TornTail, entropy);
            let (_, records, _, _) = s.load();
            assert!(
                (8..=10).contains(&records.len()),
                "entropy {entropy}: {} records",
                records.len()
            );
            for (i, r) in records.iter().enumerate() {
                match r {
                    WalRecord::Commit { entry, .. } => {
                        assert_eq!(entry.lsn.0, i as u64 + 1);
                        assert_eq!(entry.writeset.len(), 2);
                    }
                    other => panic!("unexpected record {other:?}"),
                }
            }
            // The device was repaired: a second load sees the same prefix.
            let (_, again, torn2, _) = s.load();
            assert_eq!(again.len(), records.len());
            assert!(!torn2, "repair left garbage behind");
        }
    }

    #[test]
    fn torn_tail_with_synced_everything_is_noop() {
        let mut s = store_with(9, 1); // fsync_every=1: no unsynced tail
        s.crash(CrashKind::TornTail, 12345);
        let (_, records, torn, _) = s.load();
        assert_eq!(records.len(), 9);
        assert!(!torn);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_crash() {
        let mut s = store_with(6, 1);
        // Group 1 holds position 5 above a hole at 3..=4.
        let mut ordered = Positions::at(&[6, 2]);
        ordered.mark((1, 5));
        let c = Checkpoint {
            dump: Dump { at_ts: CommitTs(60), databases: Vec::new(), users: None, checksum: 7 },
            applied_lsn: 0,
            ordered,
            binlog_head: 6,
        };
        s.install_checkpoint(&c);
        s.append_commit(&entry(7, 1), 0, 7);
        s.maybe_fsync();
        s.crash(CrashKind::LostTail, 0);
        let (ckpt, records, _, _) = s.load();
        assert_eq!(ckpt.unwrap(), c);
        assert_eq!(records.len(), 1);
        match &records[0] {
            WalRecord::Commit { entry, .. } => assert_eq!(entry.lsn.0, 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn io_counters_track_device_work() {
        let mut s = DurableStore::new(DurabilityConfig::default());
        s.append_commit(&entry(1, 1), 0, 1);
        s.maybe_fsync();
        let io = s.take_io();
        assert!(io.bytes_written > 0);
        assert_eq!(io.fsyncs, 1);
        assert!(s.take_io().is_zero());
    }

    fn ckpt_at(n: u64) -> Checkpoint {
        Checkpoint {
            dump: Dump { at_ts: CommitTs(n * 10), databases: Vec::new(), users: None, checksum: n },
            applied_lsn: 0,
            ordered: Positions::at(&[n]),
            binlog_head: n,
        }
    }

    /// A store mid two-phase install: checkpoint at lsn 4 completed,
    /// records 5..=8 in the WAL, checkpoint at lsn 8 staged but not yet
    /// completed — the crash-vulnerable window.
    fn staged_store() -> DurableStore {
        let mut s = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            fsync_every: 1,
            two_phase_checkpoint: true,
        });
        for lsn in 1..=4 {
            s.append_commit(&entry(lsn, 1), 0, lsn);
            s.maybe_fsync();
        }
        s.install_checkpoint(&ckpt_at(4));
        s.complete_checkpoint();
        assert!(!s.checkpoint_pending());
        for lsn in 5..=8 {
            s.append_commit(&entry(lsn, 1), 0, lsn);
            s.maybe_fsync();
        }
        s.install_checkpoint(&ckpt_at(8));
        assert!(s.checkpoint_pending());
        s
    }

    #[test]
    fn two_phase_completion_compacts_and_truncates() {
        let mut s = staged_store();
        s.complete_checkpoint();
        let (ckpt, records, torn, fallback) = s.load();
        assert_eq!(ckpt.unwrap(), ckpt_at(8));
        assert!(records.is_empty());
        assert!(!torn);
        assert!(!fallback);
        assert_eq!(s.stats().checkpoints_taken, 2);
    }

    #[test]
    fn torn_in_progress_checkpoint_falls_back_to_previous() {
        // Sweep the tear across the staged image: recovery must always
        // come back consistent — either the staged image survived whole
        // (clean equivalent) or the previous checkpoint plus the full
        // 5..=8 WAL suffix is used, never a half image, never lost data.
        let mut fallbacks = 0u32;
        for entropy in 0..200u64 {
            let mut s = staged_store();
            s.crash(CrashKind::TornTail, entropy);
            let (ckpt, records, _, fallback) = s.load();
            let ckpt = ckpt.expect("a checkpoint always survives");
            if ckpt == ckpt_at(8) {
                // Tear happened to spare the staged frame: the install is
                // completed during recovery, WAL suffix redundant.
                assert!(records.is_empty());
            } else {
                assert_eq!(ckpt, ckpt_at(4), "unexpected checkpoint {ckpt:?}");
                let lsns: Vec<u64> = records
                    .iter()
                    .filter_map(|r| match r {
                        WalRecord::Commit { entry, .. } => Some(entry.lsn.0),
                        _ => None,
                    })
                    .collect();
                assert_eq!(lsns, vec![5, 6, 7, 8], "longer replay must cover the gap");
                if fallback {
                    fallbacks += 1;
                }
            }
            // The device was repaired: a second load agrees and reports
            // no damage.
            let (again, _, _, fb2) = s.load();
            assert_eq!(again.unwrap().ordered, ckpt.ordered);
            assert!(!fb2);
        }
        assert!(fallbacks > 0, "entropy sweep never tore the staged image");
    }

    #[test]
    fn lost_tail_drops_staged_checkpoint_entirely() {
        let mut s = staged_store();
        s.crash(CrashKind::LostTail, 0);
        let (ckpt, records, torn, fallback) = s.load();
        assert_eq!(ckpt.unwrap(), ckpt_at(4));
        assert_eq!(records.len(), 4, "full suffix 5..=8 replays");
        assert!(!torn);
        // The unsynced staged frame vanished without a trace.
        assert!(!fallback);
    }

    #[test]
    fn clean_crash_keeps_staged_checkpoint() {
        let mut s = staged_store();
        s.crash(CrashKind::Clean, 0);
        let (ckpt, records, torn, fallback) = s.load();
        assert_eq!(ckpt.unwrap(), ckpt_at(8));
        assert!(records.is_empty(), "staged image covers the whole WAL");
        assert!(!torn);
        assert!(!fallback);
    }
}
