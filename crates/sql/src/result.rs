//! Statement results and the execution cost model.

use crate::mvcc::CommitTs;
use crate::value::Value;
use crate::writeset::Writeset;

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// The single value of a single-row, single-column result (common in
    /// tests and aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.rows.first()) {
            (1, Some(r)) if r.len() == 1 => Some(&r[0]),
            _ => None,
        }
    }

    pub fn int(&self) -> Option<i64> {
        self.scalar().and_then(|v| v.as_int())
    }
}

/// What a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// SELECT result.
    Rows(ResultSet),
    /// DML row count.
    Affected(u64),
    /// DDL / transaction control / SET.
    Ack,
}

impl Outcome {
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            Outcome::Rows(r) => Some(r),
            _ => None,
        }
    }

    pub fn affected(&self) -> u64 {
        match self {
            Outcome::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// Cost model constants, in virtual microseconds. These are the knobs the
/// cluster simulator turns into replica busy-time; their absolute values are
/// calibrated to "sub-millisecond OLTP statement" (§4.4.5), and only the
/// *ratios* matter for the reproduced experiment shapes.
pub mod cost_model {
    /// Fixed per-statement overhead (parse, plan, dispatch).
    pub const STATEMENT_BASE_US: u64 = 40;
    /// The lex+parse share of [`STATEMENT_BASE_US`]. A backend executing a
    /// pre-parsed plan (prepared-statement fan-out) skips exactly this much.
    pub const PARSE_US: u64 = 18;
    /// Per row materialized by a scan.
    pub const ROW_READ_US: u64 = 1;
    /// Per row inserted/updated/deleted (index + version maintenance).
    pub const ROW_WRITE_US: u64 = 4;
    /// Extra fixed cost for DDL.
    pub const DDL_US: u64 = 200;
    /// Commit bookkeeping (stamping, logging).
    pub const COMMIT_US: u64 = 15;
}

/// Virtual CPU cost of an executed statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    pub cpu_us: u64,
    pub rows_read: u64,
    pub rows_written: u64,
}

impl Cost {
    pub fn for_statement(rows_read: u64, rows_written: u64, ddl: bool) -> Cost {
        let cpu_us = cost_model::STATEMENT_BASE_US
            + rows_read * cost_model::ROW_READ_US
            + rows_written * cost_model::ROW_WRITE_US
            + if ddl { cost_model::DDL_US } else { 0 };
        Cost { cpu_us, rows_read, rows_written }
    }

    pub fn add(&mut self, other: Cost) {
        self.cpu_us += other.cpu_us;
        self.rows_read += other.rows_read;
        self.rows_written += other.rows_written;
    }
}

/// Information about a commit that happened while executing a statement
/// (explicit COMMIT, or autocommit of a write).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitInfo {
    pub commit_ts: CommitTs,
    /// Extracted writeset (§4.3.2). Note its documented blind spots:
    /// sequence advances, AUTO_INCREMENT counters, and SET variables are
    /// *not* in here.
    pub writeset: Writeset,
}

/// Full result of `Engine::execute`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    pub outcome: Outcome,
    pub cost: Cost,
    pub commit: Option<CommitInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessor() {
        let rs = ResultSet { columns: vec!["n".into()], rows: vec![vec![Value::Int(5)]] };
        assert_eq!(rs.int(), Some(5));
        let empty = ResultSet::default();
        assert_eq!(empty.scalar(), None);
    }

    #[test]
    fn cost_accumulates() {
        let mut c = Cost::for_statement(10, 2, false);
        let base = c.cpu_us;
        c.add(Cost::for_statement(0, 0, true));
        assert!(c.cpu_us > base + cost_model::DDL_US);
        assert_eq!(c.rows_read, 10);
    }
}
