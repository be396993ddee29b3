//! Inner statement dispatch: the statements that may appear inside a
//! transaction, a trigger body, or a procedure body. Transaction control and
//! DDL are engine-level concerns (DDL is non-transactional, §4.3.2) and are
//! rejected here when nested.

use crate::ast::Statement;
use crate::error::SqlError;
use crate::expr::{eval, RowScope};
use crate::result::Outcome;
use crate::value::Value;

use super::{dml, StmtCtx, MAX_NESTING};

/// Execute one DML/SELECT/CALL/SET statement in the given context.
pub fn execute_inner(ctx: &mut StmtCtx<'_>, stmt: &Statement) -> Result<Outcome, SqlError> {
    match stmt {
        Statement::Select(sel) => {
            let snap = ctx.snapshot()?;
            let mut env = ctx.eval_env(snap);
            let rs = super::select::execute_select(sel, &mut env, &RowScope::empty())?;
            let (read_log, rows_read) = (std::mem::take(&mut env.read_log), env.rows_read);
            drop(env);
            ctx.absorb(read_log, rows_read);
            if sel.for_update {
                dml::lock_for_update(ctx, sel)?;
            }
            Ok(Outcome::Rows(rs))
        }
        Statement::Insert { table, columns, source } => {
            dml::execute_insert(ctx, table, columns, source)
        }
        Statement::Update { table, assignments, filter } => {
            dml::execute_update(ctx, table, assignments, filter.as_ref())
        }
        Statement::Delete { table, filter } => dml::execute_delete(ctx, table, filter.as_ref()),
        Statement::Call { name, args } => execute_call(ctx, name, args),
        Statement::Set { name, value } => {
            let snap = ctx.snapshot()?;
            let mut env = ctx.eval_env(snap);
            let v = eval(value, &mut env, &RowScope::empty())?;
            drop(env);
            ctx.vars.insert(name.clone(), v);
            Ok(Outcome::Ack)
        }
        other => Err(SqlError::Unsupported(format!(
            "statement not allowed in this context: {other}"
        ))),
    }
}

/// CALL <proc>(<args>): §4.2.1. The body is a black box — executed entirely
/// on whatever replica receives the CALL, with all the replication
/// consequences the paper describes.
fn execute_call(
    ctx: &mut StmtCtx<'_>,
    name: &crate::ast::ObjectName,
    args: &[crate::ast::Expr],
) -> Result<Outcome, SqlError> {
    if ctx.depth >= MAX_NESTING {
        return Err(SqlError::ConstraintViolation(format!(
            "procedure nesting exceeds {MAX_NESTING}"
        )));
    }
    let db = match &name.database {
        Some(d) => d.as_str(),
        None => ctx.current_db.ok_or_else(|| SqlError::UnknownProcedure(name.to_string()))?,
    };
    let def = ctx
        .catalog
        .database(db)?
        .procedures
        .get(&name.name)
        .cloned()
        .ok_or_else(|| SqlError::UnknownProcedure(name.to_string()))?;
    if def.params.len() != args.len() {
        return Err(SqlError::Arity {
            name: name.to_string(),
            expected: def.params.len(),
            got: args.len(),
        });
    }

    // Evaluate arguments in the caller's scope.
    let snap = ctx.snapshot()?;
    let mut env = ctx.eval_env(snap);
    let mut bound: Vec<(String, Value)> = Vec::with_capacity(args.len());
    for (p, a) in def.params.iter().zip(args) {
        bound.push((p.clone(), eval(a, &mut env, &RowScope::empty())?));
    }
    drop(env);

    let mut vars = ctx.vars.clone();
    for (k, v) in bound {
        vars.insert(k, v);
    }
    let last = dml::run_nested(ctx, &def.body, vars)?;
    Ok(last.unwrap_or(Outcome::Ack))
}
