//! Access paths: how a statement finds the rows of its target table.
//!
//! Every single-table read — a SELECT's FROM, the row search of UPDATE and
//! DELETE, the lock pass of SELECT ... FOR UPDATE — goes through
//! [`matching_rows`], which picks one of two paths:
//!
//! * [`AccessPath::Full`] visits every row visible to the snapshot;
//! * [`AccessPath::Point`] asks the primary-key index for the row a
//!   `WHERE <pk> = <literal>` can accept.
//!
//! The statement's whole predicate is evaluated on every candidate either
//! way, so a path only narrows the candidate set. `Point` is taken only
//! when skipping the other rows provably cannot change the outcome:
//!
//! * the key test is the *first* conjunct of the top-level AND chain. AND
//!   short-circuits left to right, so on a full scan the conjuncts after a
//!   false key test never run, but the ones before it run on every visible
//!   row, where they may fail or draw from RAND()/NEXTVAL();
//! * the column reference is unqualified or qualified with the name the
//!   statement knows this table by, so it cannot resolve to an outer row;
//! * the literal's variant is exactly the key column's declared type and
//!   that type is not FLOAT. SQL `=` compares numbers across types
//!   (`k = 5.0` accepts the INT key 5) while the index re-checks with
//!   `Value`'s structural equality, and FLOAT keys have NaN and -0.0.
//!   NULL has no type, so `k = NULL` (which accepts nothing) scans.
//!
//! `rows_read` counts candidates touched: visible rows on a full scan, the
//! one visible row holding the key, if any, on a point lookup. There are no
//! range or secondary-index paths: no statement in the tree's workloads
//! would take one.

use crate::ast::{Expr, ObjectName};
use crate::error::SqlError;
use crate::expr::{eval, EvalEnv, RowScope};
use crate::mvcc::RowId;
use crate::storage::Table;
use crate::value::{DataType, Value};

#[derive(Debug, PartialEq)]
pub(super) enum AccessPath<'e> {
    /// Look the key up in the primary-key index.
    Point(&'e Value),
    /// Visit every visible row.
    Full,
}

/// Choose the access path for `filter` over `table`, known to the statement
/// as `qualifier` (its alias, else its name).
pub(super) fn choose<'e>(
    table: &Table,
    qualifier: &str,
    filter: Option<&'e Expr>,
) -> AccessPath<'e> {
    let point = || {
        let pk = &table.schema.columns[table.schema.primary_key?];
        let key = filter?.first_conjunct().as_column_eq(&pk.name, qualifier)?;
        (pk.data_type != DataType::Float && key.data_type() == Some(pk.data_type)).then_some(key)
    };
    point().map_or(AccessPath::Full, AccessPath::Point)
}

/// The rows of a statement's target table that pass its filter.
pub(super) struct Matched<'a> {
    pub table: &'a Table,
    /// Column names, for binding a row into a [`RowScope`].
    pub columns: Vec<String>,
    /// Survivors in row-id order, cloned out of the version store.
    pub rows: Vec<(RowId, Vec<Value>)>,
}

/// Resolve `name` (recording the read for serializable validation), pick
/// the access path, and evaluate `filter` on each candidate in place; only
/// the rows that pass are cloned. `outer` carries the bindings a correlated
/// subquery sees.
pub(super) fn matching_rows<'a>(
    env: &mut EvalEnv<'a>,
    name: &ObjectName,
    alias: Option<&str>,
    filter: Option<&Expr>,
    outer: &RowScope<'_>,
) -> Result<Matched<'a>, SqlError> {
    let table = env.resolve_table(name)?;
    let qualifier = alias.unwrap_or(&name.name);
    let columns: Vec<String> = table.schema.columns.iter().map(|c| c.name.clone()).collect();
    let snap = env.snap;

    let mut rows = Vec::new();
    let mut consider = |id: RowId, vals: &[Value]| -> Result<(), SqlError> {
        env.rows_read += 1;
        let keep = match filter {
            None => true,
            Some(pred) => {
                let mut scope = RowScope::with(qualifier, &columns, vals);
                scope.extend_from(outer);
                eval(pred, env, &scope)?.as_bool().unwrap_or(false)
            }
        };
        if keep {
            rows.push((id, vals.to_vec()));
        }
        Ok(())
    };
    match choose(table, qualifier, filter) {
        AccessPath::Point(key) => {
            if let Some((id, vals)) = table.lookup_pk(key, snap) {
                consider(id, vals)?;
            }
        }
        AccessPath::Full => {
            for (id, vals) in table.scan(snap) {
                consider(id, vals)?;
            }
        }
    }
    Ok(Matched { table, columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Statement, TableRef};
    use crate::engine::{ConnId, Engine};
    use crate::parser::parse_statement;

    /// `bench(k <key type> PRIMARY KEY, v INT)` with keys 0..10 (when the
    /// key is INT), `nopk(k INT, v INT)` with the same ten rows, and
    /// `probe(x INT PRIMARY KEY)` with 3, 5 and 99.
    fn engine(key_type: &str) -> (Engine, ConnId) {
        let (mut e, c) = Engine::with_database("d");
        e.execute(c, &format!("CREATE TABLE bench (k {key_type} PRIMARY KEY, v INT)")).unwrap();
        e.execute(c, "CREATE TABLE nopk (k INT, v INT)").unwrap();
        e.execute(c, "CREATE TABLE probe (x INT PRIMARY KEY)").unwrap();
        for k in 0..10 {
            if key_type == "INT" {
                e.execute(c, &format!("INSERT INTO bench VALUES ({k}, {k})")).unwrap();
            }
            e.execute(c, &format!("INSERT INTO nopk VALUES ({k}, {k})")).unwrap();
        }
        e.execute(c, "INSERT INTO probe VALUES (3), (5), (99)").unwrap();
        (e, c)
    }

    /// The key `SELECT * FROM <from> WHERE <filter>` looks up, `None` when
    /// it scans.
    fn point_key(e: &Engine, from: &str, filter: &str) -> Option<Value> {
        let stmt = parse_statement(&format!("SELECT * FROM {from} WHERE {filter}")).unwrap();
        let Statement::Select(s) = stmt else { unreachable!() };
        let Some(TableRef::Table { name, alias }) = &s.from else { unreachable!() };
        let table = e.catalog().database("d").unwrap().table(&name.name).unwrap();
        let qualifier = alias.as_deref().unwrap_or(&name.name);
        match choose(table, qualifier, s.filter.as_ref()) {
            AccessPath::Point(key) => Some(key.clone()),
            AccessPath::Full => None,
        }
    }

    fn rows_read(e: &mut Engine, c: ConnId, sql: &str) -> u64 {
        e.execute(c, sql).unwrap().cost.rows_read
    }

    #[test]
    fn key_equality_takes_the_point_path() {
        let (e, _) = engine("INT");
        let five = Some(Value::Int(5));
        assert_eq!(point_key(&e, "bench", "k = 5"), five);
        assert_eq!(point_key(&e, "bench", "5 = k"), five, "literal on the left");
        assert_eq!(point_key(&e, "bench", "k = 5 AND v > 0"), five);
        assert_eq!(point_key(&e, "bench", "k = 5 AND v > 0 AND v < 9"), five);
        assert_eq!(point_key(&e, "bench", "bench.k = 5"), five);
        assert_eq!(point_key(&e, "bench t", "t.k = 5"), five, "alias names this table");
        assert_eq!(point_key(&e, "bench", "k = -5"), Some(Value::Int(-5)));
    }

    #[test]
    fn cross_type_literals_scan() {
        let (e, _) = engine("INT");
        assert_eq!(point_key(&e, "bench", "k = 5.0"), None, "SQL `=` accepts INT 5 here");
        assert_eq!(point_key(&e, "bench", "k = '5'"), None);
        assert_eq!(point_key(&e, "bench", "k = TIMESTAMP 5"), None);
        assert_eq!(point_key(&e, "bench", "k = NULL"), None);
        assert_eq!(point_key(&e, "bench", "k = TRUE"), None);
    }

    #[test]
    fn only_a_leading_and_combined_equality_counts() {
        let (e, _) = engine("INT");
        assert_eq!(point_key(&e, "bench", "k = 5 OR v = 1"), None);
        assert_eq!(point_key(&e, "bench", "NOT (k = 5)"), None);
        assert_eq!(point_key(&e, "bench", "k >= 5"), None);
        assert_eq!(point_key(&e, "bench", "k + 0 = 5"), None);
        assert_eq!(point_key(&e, "bench", "(k = 5) OR FALSE"), None);
        assert_eq!(point_key(&e, "bench", "k = v"), None);
        assert_eq!(point_key(&e, "bench", "v = 5"), None, "not the key column");
        assert_eq!(point_key(&e, "bench", "v > 0 AND k = 5"), None, "key test is not first");
    }

    #[test]
    fn another_tables_column_scans() {
        let (e, _) = engine("INT");
        assert_eq!(point_key(&e, "bench", "other.k = 5"), None);
        assert_eq!(point_key(&e, "bench t", "bench.k = 5"), None, "the alias hides the name");
    }

    #[test]
    fn table_without_primary_key_scans() {
        let (mut e, c) = engine("INT");
        assert_eq!(point_key(&e, "nopk", "k = 5"), None);
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM nopk WHERE k = 5"), 10);
    }

    #[test]
    fn every_key_type_but_float_is_eligible() {
        let text = engine("TEXT").0;
        assert_eq!(point_key(&text, "bench", "k = 'a'"), Some(Value::Text("a".into())));
        assert_eq!(point_key(&text, "bench", "k = 5"), None);
        let boolean = engine("BOOL").0;
        assert_eq!(point_key(&boolean, "bench", "k = TRUE"), Some(Value::Bool(true)));
        let ts = engine("TIMESTAMP").0;
        assert_eq!(point_key(&ts, "bench", "k = TIMESTAMP 5"), Some(Value::Timestamp(5)));
        assert_eq!(point_key(&ts, "bench", "k = 5"), None, "INT literal, TIMESTAMP column");
        let float = engine("FLOAT").0;
        assert_eq!(point_key(&float, "bench", "k = 5.0"), None);
        assert_eq!(point_key(&float, "bench", "k = 5"), None);
    }

    #[test]
    fn rows_read_counts_rows_touched() {
        let (mut e, c) = engine("INT");
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM bench WHERE k = 5"), 1);
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM bench WHERE k = 77"), 0, "no such key");
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM bench WHERE k + 0 = 5"), 10);
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM bench"), 10);
        assert_eq!(rows_read(&mut e, c, "UPDATE bench SET v = v + 1 WHERE k = 5"), 1);
        assert_eq!(rows_read(&mut e, c, "UPDATE bench SET v = v + 1 WHERE k >= 5"), 10);
        assert_eq!(rows_read(&mut e, c, "DELETE FROM bench WHERE k = 5 AND v = 0"), 1);
        assert_eq!(rows_read(&mut e, c, "DELETE FROM bench WHERE v = 0"), 10);
        // The lock pass of FOR UPDATE re-finds the row but is not charged.
        assert_eq!(rows_read(&mut e, c, "SELECT v FROM bench WHERE k = 6 FOR UPDATE"), 1);
    }

    #[test]
    fn join_sides_scan() {
        let (mut e, c) = engine("INT");
        let sql = "SELECT b.v FROM bench b JOIN probe p ON b.k = p.x WHERE b.k = 5";
        let r = e.execute(c, sql).unwrap();
        assert_eq!(r.outcome.rows().unwrap().rows, vec![vec![Value::Int(5)]]);
        assert_eq!(r.cost.rows_read, 10 + 3);
    }

    #[test]
    fn correlated_subquery_scans_but_a_literal_key_inside_one_does_not() {
        let (mut e, c) = engine("INT");
        // `k = p.x` compares two columns: each of probe's three rows scans bench.
        let sql = "SELECT x FROM probe p WHERE EXISTS (SELECT 1 FROM bench WHERE k = p.x)";
        let r = e.execute(c, sql).unwrap();
        assert_eq!(r.outcome.rows().unwrap().rows, vec![vec![Value::Int(3)], vec![Value::Int(5)]]);
        assert_eq!(r.cost.rows_read, 3 + 3 * 10);
        // An uncorrelated literal key is a point read each time it runs.
        let sql = "SELECT x FROM probe WHERE x = (SELECT v FROM bench WHERE k = 5)";
        let r = e.execute(c, sql).unwrap();
        assert_eq!(r.outcome.rows().unwrap().rows, vec![vec![Value::Int(5)]]);
        assert_eq!(r.cost.rows_read, 3 + 3);
    }

    #[test]
    fn conjuncts_before_the_key_test_still_run_on_every_row() {
        let (mut e, c) = engine("INT");
        // Row k = 7 divides by zero. After the key test AND short-circuits
        // past it on either path; before the key test only a scan sees it.
        let after = "SELECT v FROM bench WHERE k = 5 AND 1 / (k - 7) <= 0";
        assert_eq!(e.execute(c, after).unwrap().outcome.rows().unwrap().rows.len(), 1);
        let before = "SELECT v FROM bench WHERE 1 / (k - 7) <= 0 AND k = 5";
        assert!(matches!(e.execute(c, before), Err(SqlError::Arithmetic(_))));
    }
}
