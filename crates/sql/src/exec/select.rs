//! SELECT execution: FROM materialization (nested-loop joins), filtering,
//! grouping/aggregation, ordering, and projection.

use crate::ast::{Expr, ObjectName, Select, SelectItem, TableRef};
use crate::error::SqlError;
use crate::expr::{eval, is_aggregate, EvalEnv, RowScope};
use crate::result::ResultSet;
use crate::value::Value;

use super::access;

/// One table (or alias) in the materialized relation.
struct RelPart {
    qualifier: String,
    columns: Vec<String>,
    offset: usize,
    width: usize,
}

struct Relation {
    parts: Vec<RelPart>,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    fn scope<'a>(&'a self, row: &'a [Value], outer: &RowScope<'a>) -> RowScope<'a> {
        let mut scope = RowScope::empty();
        for p in &self.parts {
            scope.push(&p.qualifier, &p.columns, &row[p.offset..p.offset + p.width]);
        }
        scope.extend_from(outer);
        scope
    }
}

/// Execute a SELECT and return its result set. `outer` carries bindings for
/// correlated subqueries.
pub fn execute_select(
    select: &Select,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<ResultSet, SqlError> {
    let relation = filtered_relation(select, env, outer)?;

    let aggregated = !select.group_by.is_empty() || has_aggregates(select);
    let mut out = if aggregated {
        execute_aggregate(select, &relation, env, outer)?
    } else {
        execute_plain(select, &relation, env, outer)?
    };

    // LIMIT/OFFSET apply after ORDER BY (both executors sort internally).
    let offset = select.offset.unwrap_or(0) as usize;
    if offset > 0 {
        out.rows.drain(..offset.min(out.rows.len()));
    }
    if let Some(limit) = select.limit {
        out.rows.truncate(limit as usize);
    }
    Ok(out)
}

/// The FROM relation restricted to the rows WHERE accepts. A single-table
/// FROM filters while it reads (see [`access`]); a join, or no FROM at all,
/// is materialized first and filtered after.
fn filtered_relation(
    select: &Select,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<Relation, SqlError> {
    let filter = select.filter.as_ref();
    if let Some(TableRef::Table { name, alias }) = &select.from {
        return read_table(name, alias.as_deref(), filter, env, outer);
    }
    let mut relation = materialize_from(select.from.as_ref(), env, outer)?;
    if let Some(pred) = filter {
        let mut kept = Vec::new();
        for row in std::mem::take(&mut relation.rows) {
            let scope = relation.scope(&row, outer);
            let keep = eval(pred, env, &scope)?.as_bool().unwrap_or(false);
            if keep {
                kept.push(row);
            }
        }
        relation.rows = kept;
    }
    Ok(relation)
}

/// One table's rows that pass `filter`, as a single-part relation.
fn read_table(
    name: &ObjectName,
    alias: Option<&str>,
    filter: Option<&Expr>,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<Relation, SqlError> {
    let m = access::matching_rows(env, name, alias, filter, outer)?;
    let part = RelPart {
        qualifier: alias.unwrap_or(&name.name).to_string(),
        width: m.columns.len(),
        columns: m.columns,
        offset: 0,
    };
    Ok(Relation { parts: vec![part], rows: m.rows.into_iter().map(|(_, row)| row).collect() })
}

fn materialize_from(
    from: Option<&TableRef>,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<Relation, SqlError> {
    match from {
        None => Ok(Relation {
            parts: Vec::new(),
            rows: vec![Vec::new()], // one empty row: SELECT 1 returns one row
        }),
        Some(TableRef::Table { name, alias }) => {
            read_table(name, alias.as_deref(), None, env, outer)
        }
        Some(TableRef::Join { left, right, on }) => {
            let l = materialize_from(Some(left), env, outer)?;
            let r = materialize_from(Some(right), env, outer)?;
            let lwidth: usize = l.parts.iter().map(|p| p.width).sum();
            let mut parts = l.parts;
            for p in r.parts {
                parts.push(RelPart {
                    qualifier: p.qualifier,
                    columns: p.columns,
                    offset: p.offset + lwidth,
                    width: p.width,
                });
            }
            let joined = Relation { parts, rows: Vec::new() };
            let mut rows = Vec::new();
            for lr in &l.rows {
                for rr in &r.rows {
                    let mut combined = Vec::with_capacity(lr.len() + rr.len());
                    combined.extend_from_slice(lr);
                    combined.extend_from_slice(rr);
                    let scope = joined.scope(&combined, outer);
                    if eval(on, env, &scope)?.as_bool().unwrap_or(false) {
                        rows.push(combined);
                    }
                }
            }
            Ok(Relation { parts: joined.parts, rows })
        }
    }
}

fn has_aggregates(select: &Select) -> bool {
    let mut found = false;
    let mut check = |e: &Expr| {
        if let Expr::Function { name, .. } = e {
            if is_aggregate(name) {
                found = true;
            }
        }
    };
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            expr.walk(&mut check);
        }
    }
    if let Some(h) = &select.having {
        h.walk(&mut check);
    }
    found
}

/// Expand projections into (header name, expression or wildcard columns).
fn projection_exprs(
    select: &Select,
    relation: &Relation,
) -> (Vec<String>, Vec<Expr>) {
    let mut names = Vec::new();
    let mut exprs = Vec::new();
    for item in &select.projections {
        match item {
            SelectItem::Wildcard => {
                for p in &relation.parts {
                    for c in &p.columns {
                        names.push(c.clone());
                        exprs.push(Expr::Column(crate::ast::ColumnRef {
                            table: Some(p.qualifier.clone()),
                            name: c.clone(),
                        }));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| expr.to_string()));
                exprs.push(expr.clone());
            }
        }
    }
    (names, exprs)
}

fn execute_plain(
    select: &Select,
    relation: &Relation,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<ResultSet, SqlError> {
    let (names, exprs) = projection_exprs(select, relation);
    let mut rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(relation.rows.len()); // (sort keys, output)
    for row in &relation.rows {
        let scope = relation.scope(row, outer);
        let mut out_row = Vec::with_capacity(exprs.len());
        for e in &exprs {
            out_row.push(eval(e, env, &scope)?);
        }
        let mut keys = Vec::with_capacity(select.order_by.len());
        for k in &select.order_by {
            let v = match eval(&k.expr, env, &scope) {
                Ok(v) => v,
                Err(SqlError::UnknownColumn(_)) => {
                    // ORDER BY may name a projection alias.
                    alias_value(&k.expr, &names, &out_row)?
                }
                Err(e) => return Err(e),
            };
            keys.push(v);
        }
        rows.push((keys, out_row));
    }
    sort_rows(&mut rows, select);
    Ok(ResultSet { columns: names, rows: rows.into_iter().map(|(_, r)| r).collect() })
}

fn alias_value(expr: &Expr, names: &[String], out_row: &[Value]) -> Result<Value, SqlError> {
    if let Expr::Column(c) = expr {
        if c.table.is_none() {
            if let Some(idx) = names.iter().position(|n| n == &c.name) {
                return Ok(out_row[idx].clone());
            }
        }
    }
    Err(SqlError::UnknownColumn(expr.to_string()))
}

fn sort_rows(rows: &mut [(Vec<Value>, Vec<Value>)], select: &Select) {
    if select.order_by.is_empty() {
        return;
    }
    let dirs: Vec<bool> = select.order_by.iter().map(|k| k.asc).collect();
    rows.sort_by(|a, b| {
        for (i, asc) in dirs.iter().enumerate() {
            let ord = a.0[i].total_cmp(&b.0[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn execute_aggregate(
    select: &Select,
    relation: &Relation,
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<ResultSet, SqlError> {
    // Group rows by evaluated GROUP BY keys (stable: first-seen order, then
    // sorted by ORDER BY at the end).
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for (i, row) in relation.rows.iter().enumerate() {
        let scope = relation.scope(row, outer);
        let mut key = Vec::with_capacity(select.group_by.len());
        for g in &select.group_by {
            key.push(eval(g, env, &scope)?);
        }
        match groups.iter_mut().find(|(k, _)| {
            k.len() == key.len()
                && k.iter()
                    .zip(&key)
                    .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
        }) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    // A query with aggregates but no GROUP BY forms a single group, even
    // when empty (COUNT(*) over an empty table returns 0).
    if groups.is_empty() && select.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let (names, exprs) = projection_exprs(select, relation);
    let mut rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(groups.len());
    for (_, members) in &groups {
        // Substitute each aggregate node with its computed literal, then
        // evaluate the remaining expression against a representative row.
        let rep = members.first().map(|&i| relation.rows[i].clone());
        let compute = |e: &Expr, env: &mut EvalEnv<'_>| -> Result<Value, SqlError> {
            let mut substituted = e.clone();
            substitute_aggregates(&mut substituted, relation, members, env, outer)?;
            match &rep {
                Some(row) => {
                    let scope = relation.scope(row, outer);
                    eval(&substituted, env, &scope)
                }
                None => eval(&substituted, env, &RowScope::empty()),
            }
        };

        if let Some(h) = &select.having {
            if !compute(h, env)?.as_bool().unwrap_or(false) {
                continue;
            }
        }
        let mut out_row = Vec::with_capacity(exprs.len());
        for e in &exprs {
            out_row.push(compute(e, env)?);
        }
        let mut keys = Vec::with_capacity(select.order_by.len());
        for k in &select.order_by {
            let v = match compute(&k.expr, env) {
                Ok(v) => v,
                Err(SqlError::UnknownColumn(_)) => alias_value(&k.expr, &names, &out_row)?,
                Err(e) => return Err(e),
            };
            keys.push(v);
        }
        rows.push((keys, out_row));
    }
    sort_rows(&mut rows, select);
    Ok(ResultSet { columns: names, rows: rows.into_iter().map(|(_, r)| r).collect() })
}

/// Replace aggregate function nodes in `expr` with literal results computed
/// over the group's member rows.
fn substitute_aggregates(
    expr: &mut Expr,
    relation: &Relation,
    members: &[usize],
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<(), SqlError> {
    // Manual recursion (walk_mut cannot thread a Result).
    match expr {
        Expr::Function { name, args } if is_aggregate(name) => {
            let v = compute_aggregate(name, args, relation, members, env, outer)?;
            *expr = Expr::Literal(v);
            Ok(())
        }
        Expr::Unary { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
            substitute_aggregates(e, relation, members, env, outer)
        }
        Expr::Binary { left, right, .. } => {
            substitute_aggregates(left, relation, members, env, outer)?;
            substitute_aggregates(right, relation, members, env, outer)
        }
        Expr::Like { expr: e, pattern, .. } => {
            substitute_aggregates(e, relation, members, env, outer)?;
            substitute_aggregates(pattern, relation, members, env, outer)
        }
        Expr::Between { expr: e, low, high, .. } => {
            substitute_aggregates(e, relation, members, env, outer)?;
            substitute_aggregates(low, relation, members, env, outer)?;
            substitute_aggregates(high, relation, members, env, outer)
        }
        Expr::InList { expr: e, list, .. } => {
            substitute_aggregates(e, relation, members, env, outer)?;
            for item in list {
                substitute_aggregates(item, relation, members, env, outer)?;
            }
            Ok(())
        }
        Expr::Function { args, .. } => {
            for a in args {
                substitute_aggregates(a, relation, members, env, outer)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn compute_aggregate(
    name: &str,
    args: &[Expr],
    relation: &Relation,
    members: &[usize],
    env: &mut EvalEnv<'_>,
    outer: &RowScope<'_>,
) -> Result<Value, SqlError> {
    // COUNT(*) is parsed as count with zero args.
    if name == "count" && args.is_empty() {
        return Ok(Value::Int(members.len() as i64));
    }
    let arg = args.first().ok_or_else(|| SqlError::Arity {
        name: name.to_string(),
        expected: 1,
        got: 0,
    })?;
    let mut values = Vec::with_capacity(members.len());
    for &i in members {
        let row = &relation.rows[i];
        let scope = relation.scope(row, outer);
        let v = eval(arg, env, &scope)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    match name {
        "count" => Ok(Value::Int(values.len() as i64)),
        "sum" | "avg" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            let total: f64 = values.iter().filter_map(|v| v.as_f64()).sum();
            if name == "avg" {
                Ok(Value::Float(total / values.len() as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => name == "min",
                            Some(std::cmp::Ordering::Greater) => name == "max",
                            _ => false,
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        other => Err(SqlError::UnknownFunction(other.to_string())),
    }
}
