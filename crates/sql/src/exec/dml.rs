//! INSERT / UPDATE / DELETE execution, AFTER-trigger firing, and
//! SELECT ... FOR UPDATE row locking.

use std::collections::BTreeMap;

use crate::ast::{Expr, InsertSource, ObjectName, Statement, TriggerEvent};
use crate::catalog::TableName;
use crate::error::SqlError;
use crate::expr::{eval, RowScope};
use crate::mvcc::{RowId, WriteKind, WriteRecord};
use crate::result::Outcome;
use crate::storage::{ConflictOrError, Table};
use crate::value::Value;

use super::{access, StmtCtx, MAX_NESTING};

fn conflict_err(table: &str, e: ConflictOrError) -> SqlError {
    match e {
        ConflictOrError::Conflict(kind) => SqlError::WriteConflict {
            table: table.to_string(),
            detail: format!("{kind:?}"),
        },
        ConflictOrError::Error(e) => e,
    }
}

/// First-committer-wins applies under SI and serializable; plain read
/// committed just overwrites the latest committed version.
fn fcw(ctx: &StmtCtx<'_>) -> bool {
    ctx.txm
        .state(ctx.tx)
        .map(|s| s.isolation != crate::ast::IsolationLevel::ReadCommitted)
        .unwrap_or(true)
}

fn table_mut<'a>(ctx: &'a mut StmtCtx<'_>, name: &TableName) -> Result<&'a mut Table, SqlError> {
    if name.is_temp() {
        return ctx.temp.get_mut(name.table()).ok_or_else(|| SqlError::UnknownTable(name.table().to_string()));
    }
    ctx.catalog.database_mut(name.database())?.table_mut(name.table())
}

fn record_write(
    ctx: &mut StmtCtx<'_>,
    table: &TableName,
    row: RowId,
    kind: WriteKind,
    old: Option<Vec<Value>>,
    new: Option<Vec<Value>>,
) -> Result<(), SqlError> {
    ctx.txm.state_mut(ctx.tx)?.writes.push(WriteRecord { table: table.clone(), row, kind, old, new });
    Ok(())
}

// ---------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------

pub fn execute_insert(
    ctx: &mut StmtCtx<'_>,
    table_name: &ObjectName,
    columns: &[String],
    source: &InsertSource,
) -> Result<Outcome, SqlError> {
    let snap = ctx.snapshot()?;

    // Phase A: evaluate the source rows and default expressions.
    let mut env = ctx.eval_env(snap);
    let table = env.table(table_name)?;
    let name = table.schema.name.clone();
    let schema_cols = &table.schema.columns;
    let provided_rows: Vec<Vec<Value>> = match source {
        InsertSource::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            let scope = RowScope::empty();
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &mut env, &scope)?);
                }
                out.push(vals);
            }
            out
        }
        InsertSource::Select(sel) => {
            let rs = super::select::execute_select(sel, &mut env, &RowScope::empty())?;
            rs.rows
        }
    };

    // Map provided values onto the schema, evaluating defaults.
    let col_indices: Vec<usize> = if columns.is_empty() {
        (0..schema_cols.len()).collect()
    } else {
        columns
            .iter()
            .map(|c| {
                schema_cols
                    .iter()
                    .position(|sc| &sc.name == c)
                    .ok_or_else(|| SqlError::UnknownColumn(c.clone()))
            })
            .collect::<Result<_, _>>()?
    };

    let mut complete_rows: Vec<Vec<Value>> = Vec::with_capacity(provided_rows.len());
    for provided in provided_rows {
        if provided.len() != col_indices.len() {
            return Err(SqlError::ConstraintViolation(format!(
                "INSERT provides {} values for {} columns",
                provided.len(),
                col_indices.len()
            )));
        }
        let mut row: Vec<Option<Value>> = vec![None; schema_cols.len()];
        for (v, &idx) in provided.into_iter().zip(&col_indices) {
            row[idx] = Some(v.coerce_to(schema_cols[idx].data_type)?);
        }
        let mut complete = Vec::with_capacity(schema_cols.len());
        for (i, col) in schema_cols.iter().enumerate() {
            let v = match row[i].take() {
                Some(v) => v,
                None => match &col.default {
                    Some(d) => eval(d, &mut env, &RowScope::empty())?
                        .coerce_to(col.data_type)?,
                    // Auto-increment placeholder resolved in the write phase.
                    None => Value::Null,
                },
            };
            complete.push(v);
        }
        complete_rows.push(complete);
    }
    let (read_log, rows_read) = (std::mem::take(&mut env.read_log), env.rows_read);
    drop(env);
    ctx.absorb(read_log, rows_read);

    // Phase B: apply. Auto-increment assignment happens here, against the
    // table's non-transactional counter.
    let count = complete_rows.len() as u64;
    let mut inserted: Vec<(RowId, Vec<Value>)> = Vec::with_capacity(complete_rows.len());
    {
        let table = table_mut(ctx, &name)?;
        let mut staged: Vec<Vec<Value>> = Vec::with_capacity(complete_rows.len());
        for mut row in complete_rows {
            for (i, col) in table.schema.columns.iter().enumerate() {
                if row[i].is_null() {
                    if col.auto_increment {
                        table.auto_inc += 1;
                        row[i] = Value::Int(table.auto_inc);
                    } else if col.not_null {
                        return Err(SqlError::ConstraintViolation(format!(
                            "column '{}' is NOT NULL",
                            col.name
                        )));
                    }
                } else if col.auto_increment {
                    // Explicit value: pull the counter forward (MySQL-style),
                    // irreversibly.
                    if let Some(v) = row[i].as_int() {
                        table.auto_inc = table.auto_inc.max(v);
                    }
                }
            }
            staged.push(row);
        }
        for row in staged {
            let id = table.insert(row.clone(), snap)?;
            inserted.push((id, row));
        }
    }
    // Only an INSERT trigger needs the new rows after this: without one,
    // each moves into its write record.
    let triggered = has_triggers(ctx, &name, TriggerEvent::Insert)?;
    let mut new_images = Vec::new();
    for (id, row) in inserted {
        if triggered {
            new_images.push(row.clone());
        }
        record_write(ctx, &name, id, WriteKind::Insert, None, Some(row))?;
    }
    ctx.rows_written += count;

    fire_triggers(ctx, &name, TriggerEvent::Insert, &new_images, &[])?;
    Ok(Outcome::Affected(count))
}

// ---------------------------------------------------------------------
// UPDATE
// ---------------------------------------------------------------------

pub fn execute_update(
    ctx: &mut StmtCtx<'_>,
    table_name: &ObjectName,
    assignments: &[(String, Expr)],
    filter: Option<&Expr>,
) -> Result<Outcome, SqlError> {
    let snap = ctx.snapshot()?;
    let first_committer_wins = fcw(ctx);

    // Phase A: find matching rows and compute the new images.
    let mut env = ctx.eval_env(snap);
    let m = access::matching_rows(&mut env, table_name, None, filter, &RowScope::empty())?;
    let (name, names) = (m.table.schema.name.clone(), m.columns);
    let schema_cols = &m.table.schema.columns;
    let qualifier = &table_name.name;

    let mut updates: Vec<(RowId, Vec<Value>, Vec<Value>)> = Vec::new(); // (id, old, new)
    for (id, old) in m.rows {
        let mut new = old.clone();
        for (col, e) in assignments {
            let idx = schema_cols
                .iter()
                .position(|c| &c.name == col)
                .ok_or_else(|| SqlError::UnknownColumn(col.clone()))?;
            let scope = RowScope::with(qualifier, &names, &old);
            let v = eval(e, &mut env, &scope)?;
            new[idx] = v.coerce_to(schema_cols[idx].data_type)?;
            if new[idx].is_null() && schema_cols[idx].not_null {
                return Err(SqlError::ConstraintViolation(format!(
                    "column '{col}' is NOT NULL"
                )));
            }
        }
        updates.push((id, old, new));
    }
    let (read_log, rows_read) = (std::mem::take(&mut env.read_log), env.rows_read);
    drop(env);
    ctx.absorb(read_log, rows_read);

    // Phase B: apply.
    let count = updates.len() as u64;
    {
        let table = table_mut(ctx, &name)?;
        for (id, _, new) in &updates {
            table
                .update(*id, new.clone(), snap, first_committer_wins)
                .map_err(|e| conflict_err(&table_name.name, e))?;
        }
    }
    let mut news = Vec::with_capacity(updates.len());
    let mut olds = Vec::with_capacity(updates.len());
    for (id, old, new) in updates {
        record_write(ctx, &name, id, WriteKind::Update, Some(old.clone()), Some(new.clone()))?;
        olds.push(old);
        news.push(new);
    }
    ctx.rows_written += count;

    fire_triggers(ctx, &name, TriggerEvent::Update, &news, &olds)?;
    Ok(Outcome::Affected(count))
}

// ---------------------------------------------------------------------
// DELETE
// ---------------------------------------------------------------------

pub fn execute_delete(
    ctx: &mut StmtCtx<'_>,
    table_name: &ObjectName,
    filter: Option<&Expr>,
) -> Result<Outcome, SqlError> {
    let snap = ctx.snapshot()?;
    let first_committer_wins = fcw(ctx);

    let mut env = ctx.eval_env(snap);
    let m = access::matching_rows(&mut env, table_name, None, filter, &RowScope::empty())?;
    let (name, doomed) = (m.table.schema.name.clone(), m.rows);
    let (read_log, rows_read) = (std::mem::take(&mut env.read_log), env.rows_read);
    drop(env);
    ctx.absorb(read_log, rows_read);

    let count = doomed.len() as u64;
    {
        let table = table_mut(ctx, &name)?;
        for (id, _) in &doomed {
            table
                .delete(*id, snap, first_committer_wins)
                .map_err(|e| conflict_err(&table_name.name, e))?;
        }
    }
    let mut olds = Vec::with_capacity(doomed.len());
    for (id, old) in doomed {
        record_write(ctx, &name, id, WriteKind::Delete, Some(old.clone()), None)?;
        olds.push(old);
    }
    ctx.rows_written += count;

    fire_triggers(ctx, &name, TriggerEvent::Delete, &[], &olds)?;
    Ok(Outcome::Affected(count))
}

// ---------------------------------------------------------------------
// SELECT ... FOR UPDATE
// ---------------------------------------------------------------------

/// Lock the rows a FOR UPDATE select matched by superseding them with
/// identical images: concurrent writers then conflict exactly as if the rows
/// had been updated. Only single-table, non-aggregated selects may lock.
pub fn lock_for_update(
    ctx: &mut StmtCtx<'_>,
    select: &crate::ast::Select,
) -> Result<(), SqlError> {
    use crate::ast::TableRef;
    let Some(TableRef::Table { name, alias }) = &select.from else {
        return Err(SqlError::Unsupported(
            "FOR UPDATE requires a single-table FROM".into(),
        ));
    };
    if !select.group_by.is_empty() {
        return Err(SqlError::Unsupported("FOR UPDATE with GROUP BY".into()));
    }
    let snap = ctx.snapshot()?;
    let first_committer_wins = fcw(ctx);

    let mut env = ctx.eval_env(snap);
    let filter = select.filter.as_ref();
    let m = access::matching_rows(&mut env, name, alias.as_deref(), filter, &RowScope::empty())?;
    let (table_name, locked) = (m.table.schema.name.clone(), m.rows);
    let read_log = std::mem::take(&mut env.read_log);
    drop(env);
    // The SELECT that matched these rows has already been charged for them.
    ctx.absorb(read_log, 0);

    {
        let table = table_mut(ctx, &table_name)?;
        for (id, vals) in &locked {
            table
                .update(*id, vals.clone(), snap, first_committer_wins)
                .map_err(|e| conflict_err(&name.name, e))?;
        }
    }
    for (id, vals) in locked {
        record_write(ctx, &table_name, id, WriteKind::Update, Some(vals.clone()), Some(vals))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------

/// Does `event` on `table` fire a trigger? Temp tables never have
/// triggers.
fn has_triggers(ctx: &StmtCtx<'_>, table: &TableName, event: TriggerEvent) -> Result<bool, SqlError> {
    if table.is_temp() {
        return Ok(false);
    }
    Ok(ctx.catalog.database(table.database())?.has_triggers(table.table(), event))
}

/// Fire AFTER triggers for `event`. `news`/`olds` are per-affected-row
/// images; bodies see `NEW.<col>` and `OLD.<col>` bindings. Trigger bodies
/// run in the same transaction and may write any database (§4.1.1).
fn fire_triggers(
    ctx: &mut StmtCtx<'_>,
    table: &TableName,
    event: TriggerEvent,
    news: &[Vec<Value>],
    olds: &[Vec<Value>],
) -> Result<(), SqlError> {
    // Temp tables never have triggers.
    if table.is_temp() {
        return Ok(());
    }
    let database = ctx.catalog.database(table.database())?;
    let defs = database.triggers_for(table.table(), event);
    if defs.is_empty() {
        return Ok(());
    }
    let columns: Vec<String> =
        database.table(table.table())?.schema.columns.iter().map(|c| c.name.clone()).collect();
    if ctx.depth >= MAX_NESTING {
        return Err(SqlError::ConstraintViolation(format!(
            "trigger nesting exceeds {MAX_NESTING}"
        )));
    }
    let row_count = news.len().max(olds.len());
    for i in 0..row_count {
        let mut vars = ctx.vars.clone();
        if let Some(new) = news.get(i) {
            for (col, v) in columns.iter().zip(new) {
                vars.insert(format!("new.{col}"), v.clone());
            }
        }
        if let Some(old) = olds.get(i) {
            for (col, v) in columns.iter().zip(old) {
                vars.insert(format!("old.{col}"), v.clone());
            }
        }
        for def in &defs {
            run_nested(ctx, &def.body, vars.clone())?;
        }
    }
    Ok(())
}

/// Execute nested statements (trigger or procedure body) with substituted
/// variable bindings and an incremented depth.
pub(super) fn run_nested(
    ctx: &mut StmtCtx<'_>,
    body: &[Statement],
    vars: BTreeMap<String, Value>,
) -> Result<Option<Outcome>, SqlError> {
    let saved_vars = std::mem::replace(&mut ctx.vars, vars);
    ctx.depth += 1;
    let mut last = None;
    let mut result = Ok(());
    for st in body {
        match super::stmt::execute_inner(ctx, st) {
            Ok(o) => last = Some(o),
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    ctx.depth -= 1;
    ctx.vars = saved_vars;
    result.map(|()| last)
}
