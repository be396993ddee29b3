//! Expression evaluation with SQL three-valued logic.

use std::collections::BTreeMap;

use crate::ast::{BinOp, ColumnRef, Expr, UnOp};
use crate::catalog::{Catalog, TableName};
use crate::det::Determinism;
use crate::error::SqlError;
use crate::mvcc::Snapshot;
use crate::sequence::Sequences;
use crate::storage::Table;
use crate::value::Value;

/// Names of aggregate functions, which the select executor intercepts;
/// the scalar evaluator rejects them.
pub const AGGREGATES: &[&str] = &["count", "sum", "avg", "min", "max"];

pub fn is_aggregate(name: &str) -> bool {
    AGGREGATES.contains(&name)
}

/// Everything an expression may touch. `catalog` is read-only; sequences and
/// the determinism sources are mutable because NEXTVAL/RAND/NOW have side
/// effects even inside SELECT.
pub struct EvalEnv<'a> {
    pub catalog: &'a Catalog,
    /// Session temporary tables (shadow regular tables on unqualified names).
    pub temp: &'a BTreeMap<String, Table>,
    pub seqs: &'a mut Sequences,
    pub det: &'a mut Determinism,
    pub snap: Snapshot,
    pub current_db: Option<&'a str>,
    /// Session variables, procedure parameters, and trigger NEW.* bindings.
    pub vars: &'a BTreeMap<String, Value>,
    /// Tables read through this env — merged into the transaction's read
    /// set for serializable validation.
    pub read_log: Vec<TableName>,
    /// Rows materialized by scans, for the cost model.
    pub rows_read: u64,
}

impl<'a> EvalEnv<'a> {
    /// Resolve a table name: unqualified names check session temp tables
    /// first, then the current database; qualified names go straight to the
    /// named database. The table's [`TableName`] is `table.schema.name`.
    /// The borrow is of the catalog, not of this env, so rows can be read
    /// in place while expressions evaluate against them.
    pub fn table(&self, name: &crate::ast::ObjectName) -> Result<&'a Table, SqlError> {
        let (catalog, temp) = (self.catalog, self.temp);
        if name.database.is_none() {
            if let Some(t) = temp.get(&name.name) {
                return Ok(t);
            }
        }
        let db = match &name.database {
            Some(d) => d.as_str(),
            None => self
                .current_db
                .ok_or_else(|| SqlError::UnknownTable(format!("{name} (no database selected)")))?,
        };
        catalog.database(db)?.table(&name.name)
    }

    /// Resolve a table for reading and record the read for serializable
    /// validation (temp tables are connection-private and not tracked).
    pub fn resolve_table(
        &mut self,
        name: &crate::ast::ObjectName,
    ) -> Result<&'a Table, SqlError> {
        let table = self.table(name)?;
        if !table.schema.name.is_temp() {
            self.read_log.push(table.schema.name.clone());
        }
        Ok(table)
    }
}

/// Column bindings for the row(s) currently in scope.
#[derive(Default)]
pub struct RowScope<'a> {
    bindings: Vec<Binding<'a>>,
}

#[derive(Clone, Copy)]
struct Binding<'a> {
    qualifier: &'a str,
    columns: &'a [String],
    values: &'a [Value],
}

impl<'a> RowScope<'a> {
    pub fn empty() -> Self {
        RowScope { bindings: Vec::new() }
    }

    pub fn with(qualifier: &'a str, columns: &'a [String], values: &'a [Value]) -> Self {
        let mut s = RowScope::empty();
        s.push(qualifier, columns, values);
        s
    }

    pub fn push(&mut self, qualifier: &'a str, columns: &'a [String], values: &'a [Value]) {
        debug_assert_eq!(columns.len(), values.len());
        self.bindings.push(Binding { qualifier, columns, values });
    }

    /// Append all bindings from an outer scope (inner bindings win on
    /// unqualified lookups, enabling correlated subqueries).
    pub fn extend_from(&mut self, outer: &RowScope<'a>) {
        self.bindings.extend(outer.bindings.iter().copied());
    }

    /// Look up a column reference: qualified names match binding qualifiers;
    /// unqualified names search all bindings in order.
    fn lookup(&self, col: &ColumnRef) -> Option<&Value> {
        for b in &self.bindings {
            if let Some(q) = &col.table {
                if q != b.qualifier {
                    continue;
                }
            }
            if let Some(i) = b.columns.iter().position(|c| c == &col.name) {
                return Some(&b.values[i]);
            }
        }
        None
    }
}

/// Evaluate `expr` to a value.
pub fn eval(expr: &Expr, env: &mut EvalEnv<'_>, row: &RowScope<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => {
            if let Some(v) = row.lookup(c) {
                return Ok(v.clone());
            }
            // Fall back to variables: procedure params bind unqualified
            // names; trigger NEW.x binds qualified ones.
            let key = match &c.table {
                Some(t) => format!("{t}.{}", c.name),
                None => c.name.clone(),
            };
            if let Some(v) = env.vars.get(&key) {
                return Ok(v.clone());
            }
            Err(SqlError::UnknownColumn(key))
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, env, row)?;
            match op {
                UnOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(SqlError::TypeMismatch {
                        expected: crate::value::DataType::Float,
                        got: other.type_name().to_string(),
                    }),
                },
                UnOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(SqlError::TypeMismatch {
                        expected: crate::value::DataType::Bool,
                        got: other.type_name().to_string(),
                    }),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, env, row),
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, env, row)?;
            let p = eval(pattern, env, row)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    let m = like_match(&s, &pat);
                    Ok(Value::Bool(m != *negated))
                }
                (a, _) => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Text,
                    got: a.type_name().to_string(),
                }),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, env, row)?;
            let lo = eval(low, env, row)?;
            let hi = eval(high, env, row)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, env, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, env, row)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSelect { expr, select, negated } => {
            let v = eval(expr, env, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = crate::exec::select::execute_select(select, env, row)?;
            let mut saw_null = false;
            for r in &rs.rows {
                let item = r.first().ok_or_else(|| {
                    SqlError::Internal("IN subquery returned zero columns".into())
                })?;
                if item.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(item) == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::ScalarSubquery(select) => {
            let rs = crate::exec::select::execute_select(select, env, row)?;
            match rs.rows.len() {
                0 => Ok(Value::Null),
                1 => rs.rows[0]
                    .first()
                    .cloned()
                    .ok_or_else(|| SqlError::Internal("scalar subquery with no columns".into())),
                n => Err(SqlError::ConstraintViolation(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
        Expr::Exists { select, negated } => {
            let rs = crate::exec::select::execute_select(select, env, row)?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::Function { name, args } => eval_function(name, args, env, row),
        // Parameters are bound to literals by the plan cache before any
        // statement reaches the executor; hitting one here is a logic error.
        Expr::Param(i) => Err(SqlError::Internal(format!("unbound parameter ?{i}"))),
    }
}

fn eval_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    env: &mut EvalEnv<'_>,
    row: &RowScope<'_>,
) -> Result<Value, SqlError> {
    // AND/OR get three-valued short-circuit treatment.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = eval(left, env, row)?;
        let l = match l {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => {
                return Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Bool,
                    got: other.type_name().to_string(),
                })
            }
        };
        if op == BinOp::And && l == Some(false) {
            return Ok(Value::Bool(false));
        }
        if op == BinOp::Or && l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = eval(right, env, row)?;
        let r = match r {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => {
                return Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Bool,
                    got: other.type_name().to_string(),
                })
            }
        };
        return Ok(match (op, l, r) {
            (BinOp::And, Some(a), Some(b)) => Value::Bool(a && b),
            (BinOp::And, None, Some(false)) | (BinOp::And, Some(false), None) => {
                Value::Bool(false)
            }
            (BinOp::Or, Some(a), Some(b)) => Value::Bool(a || b),
            (BinOp::Or, None, Some(true)) | (BinOp::Or, Some(true), None) => Value::Bool(true),
            _ => Value::Null,
        });
    }

    let l = eval(left, env, row)?;
    let r = eval(right, env, row)?;
    match op {
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match l.sql_cmp(&r) {
                None => Ok(Value::Null),
                Some(ord) => {
                    let b = match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Neq => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
                }
            }
        }
        BinOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{l}{r}")))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(l, op, r)
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn arith(l: Value, op: BinOp, r: Value) -> Result<Value, SqlError> {
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            BinOp::Div => {
                if b == 0 {
                    Err(SqlError::Arithmetic("division by zero".into()))
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    Err(SqlError::Arithmetic("modulo by zero".into()))
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(SqlError::TypeMismatch {
                expected: crate::value::DataType::Float,
                got: format!("{} {op} {}", l.type_name(), r.type_name()),
            })
        }
    };
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(SqlError::Arithmetic("division by zero".into()));
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Err(SqlError::Arithmetic("modulo by zero".into()));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

fn eval_function(
    name: &str,
    args: &[Expr],
    env: &mut EvalEnv<'_>,
    row: &RowScope<'_>,
) -> Result<Value, SqlError> {
    if is_aggregate(name) {
        return Err(SqlError::ConstraintViolation(format!(
            "aggregate {name}() not allowed here"
        )));
    }
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Arity { name: name.to_string(), expected: n, got: args.len() })
        }
    };
    match name {
        "now" | "current_timestamp" => {
            arity(0)?;
            Ok(Value::Timestamp(env.det.now()))
        }
        "rand" | "random" => {
            arity(0)?;
            Ok(Value::Float(env.det.rand()))
        }
        "nextval" => {
            arity(1)?;
            let v = eval(&args[0], env, row)?;
            let Value::Text(seq) = v else {
                return Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Text,
                    got: v.type_name().to_string(),
                });
            };
            // Sequence names may be qualified 'db.seq'.
            let (db, seq_name) = match seq.split_once('.') {
                Some((d, n)) => (d.to_string(), n.to_string()),
                None => (
                    env.current_db
                        .ok_or_else(|| SqlError::UnknownSequence(seq.clone()))?
                        .to_string(),
                    seq,
                ),
            };
            Ok(Value::Int(env.seqs.nextval(&db, &seq_name)?))
        }
        "length" => {
            arity(1)?;
            match eval(&args[0], env, row)? {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                v => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Text,
                    got: v.type_name().to_string(),
                }),
            }
        }
        "lower" | "upper" => {
            arity(1)?;
            match eval(&args[0], env, row)? {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(if name == "lower" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                v => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Text,
                    got: v.type_name().to_string(),
                }),
            }
        }
        "abs" => {
            arity(1)?;
            match eval(&args[0], env, row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                v => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Float,
                    got: v.type_name().to_string(),
                }),
            }
        }
        "floor" | "ceil" => {
            arity(1)?;
            match eval(&args[0], env, row)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Float(f) => Ok(Value::Int(if name == "floor" {
                    f.floor() as i64
                } else {
                    f.ceil() as i64
                })),
                v => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Float,
                    got: v.type_name().to_string(),
                }),
            }
        }
        "coalesce" => {
            for a in args {
                let v = eval(a, env, row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "substr" => {
            arity(3)?;
            let s = eval(&args[0], env, row)?;
            let start = eval(&args[1], env, row)?;
            let len = eval(&args[2], env, row)?;
            match (s, start.as_int(), len.as_int()) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Text(s), Some(start), Some(len)) => {
                    let start = (start.max(1) - 1) as usize;
                    let out: String =
                        s.chars().skip(start).take(len.max(0) as usize).collect();
                    Ok(Value::Text(out))
                }
                _ => Err(SqlError::TypeMismatch {
                    expected: crate::value::DataType::Text,
                    got: "substr arguments".into(),
                }),
            }
        }
        other => Err(SqlError::UnknownFunction(other.to_string())),
    }
}

/// SQL LIKE matching: `%` any run, `_` one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                for i in 0..=s.len() {
                    if rec(&s[i..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn eval_str(sql_expr: &str) -> Result<Value, SqlError> {
        // Parse as a projection of a SELECT to reuse the expression grammar.
        let stmt = parse_statement(&format!("SELECT {sql_expr}")).unwrap();
        let crate::ast::Statement::Select(s) = stmt else { panic!() };
        let crate::ast::SelectItem::Expr { expr, .. } = &s.projections[0] else { panic!() };
        let catalog = Catalog::new();
        let temp = BTreeMap::new();
        let mut seqs = Sequences::new();
        let mut det = Determinism::new(7);
        det.set_now(1_000_000);
        let vars = BTreeMap::new();
        let mut env = EvalEnv {
            catalog: &catalog,
            temp: &temp,
            seqs: &mut seqs,
            det: &mut det,
            snap: Snapshot { ts: crate::mvcc::CommitTs(0), tx: crate::mvcc::TxId(1) },
            current_db: None,
            vars: &vars,
            read_log: Vec::new(),
            rows_read: 0,
        };
        eval(expr, &mut env, &RowScope::empty())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3").unwrap(), Value::Int(1));
        assert!(eval_str("1 / 0").is_err());
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL OR FALSE").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(eval_str("1 IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("3 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("3 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("1 NOT IN (1, NULL)").unwrap(), Value::Bool(false));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "_ello"));
        assert!(!like_match("hello", "h_o"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "ab"));
        assert_eq!(eval_str("'abc' LIKE 'a%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' NOT LIKE 'a%'").unwrap(), Value::Bool(false));
    }

    #[test]
    fn functions() {
        assert_eq!(eval_str("length('héllo')").unwrap(), Value::Int(5));
        assert_eq!(eval_str("upper('ab')").unwrap(), Value::Text("AB".into()));
        assert_eq!(eval_str("coalesce(NULL, NULL, 3)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("abs(-4)").unwrap(), Value::Int(4));
        assert_eq!(eval_str("substr('abcdef', 2, 3)").unwrap(), Value::Text("bcd".into()));
        assert_eq!(eval_str("'a' || 1 || 'b'").unwrap(), Value::Text("a1b".into()));
        assert_eq!(eval_str("now()").unwrap(), Value::Timestamp(1_000_000));
        assert!(matches!(eval_str("rand()").unwrap(), Value::Float(f) if (0.0..1.0).contains(&f)));
        assert!(eval_str("no_such_fn(1)").is_err());
        assert!(eval_str("length(1, 2)").is_err());
    }

    #[test]
    fn between() {
        assert_eq!(eval_str("5 BETWEEN 1 AND 9").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("5 NOT BETWEEN 1 AND 4").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL BETWEEN 1 AND 4").unwrap(), Value::Null);
    }
}
