//! Middleware-side statement preparation for statement-based replication:
//! non-determinism analysis plus the rewriting of §4.3.2.

use replimid_sql::ast::Statement;
use replimid_sql::{analyze, rewrite_scalar_rand, rewrite_time_macros, TaintReport};

/// What to do with statements the analyzer flags (the three stances real
/// middleware takes; experiment E6 compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetPolicy {
    /// Rewrite what is rewritable (time macros, scalar RAND); reject the
    /// rest. The production-safe stance.
    RewriteAndReject,
    /// Rewrite what is rewritable and *broadcast the rest anyway* —
    /// demonstrates the divergence the paper warns about.
    RewriteBestEffort,
    /// Broadcast verbatim (a naive middleware). Maximum divergence.
    Ignore,
}

/// Result of preparing a write statement for broadcast.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The rewritten statement to broadcast; `None` when the admitted one
    /// ships as it is.
    pub rewritten: Option<Statement>,
    pub report: TaintReport,
    pub substitutions: usize,
}

/// Why a statement was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejected {
    pub reason: String,
}

/// Analyze and (per policy) rewrite a write statement before total-order
/// broadcast. `now_us` is the middleware's clock (all replicas will execute
/// the same literal); `rand_value` is drawn once by the middleware.
pub fn prepare_for_broadcast(
    stmt: &Statement,
    policy: NondetPolicy,
    now_us: i64,
    rand_value: f64,
) -> Result<Prepared, Rejected> {
    let report = analyze(stmt);
    if report.is_deterministic() {
        return Ok(Prepared { rewritten: None, report, substitutions: 0 });
    }
    match policy {
        NondetPolicy::Ignore => Ok(Prepared { rewritten: None, report, substitutions: 0 }),
        NondetPolicy::RewriteBestEffort | NondetPolicy::RewriteAndReject => {
            let mut rewritten = stmt.clone();
            let mut n = 0;
            if report.uses_now {
                n += rewrite_time_macros(&mut rewritten, now_us);
            }
            if report.uses_rand_scalar {
                n += rewrite_scalar_rand(&mut rewritten, rand_value);
            }
            let residual = analyze(&rewritten);
            if !residual.is_deterministic() && policy == NondetPolicy::RewriteAndReject {
                let reason = if residual.uses_rand_per_row {
                    "per-row RAND() cannot be rewritten for statement replication".to_string()
                } else {
                    "SELECT ... LIMIT without ORDER BY yields different rows per replica"
                        .to_string()
                };
                return Err(Rejected { reason });
            }
            Ok(Prepared { rewritten: (n > 0).then_some(rewritten), report, substitutions: n })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_sql::parse_statement;

    fn prep(sql: &str, policy: NondetPolicy) -> Result<Prepared, Rejected> {
        prepare_for_broadcast(&parse_statement(sql).unwrap(), policy, 42_000_000, 0.5)
    }

    #[test]
    fn deterministic_passes_untouched() {
        let p = prep("UPDATE t SET x = 1", NondetPolicy::RewriteAndReject).unwrap();
        assert_eq!(p.substitutions, 0);
        assert!(p.report.is_deterministic());
    }

    #[test]
    fn time_macro_rewritten() {
        let p = prep(
            "INSERT INTO t (ts) VALUES (now())",
            NondetPolicy::RewriteAndReject,
        )
        .unwrap();
        assert_eq!(p.substitutions, 1);
        assert!(p.rewritten.unwrap().to_string().contains("TIMESTAMP 42000000"));
    }

    #[test]
    fn per_row_rand_rejected_or_passed_by_policy() {
        let sql = "UPDATE t SET x = rand()";
        assert!(prep(sql, NondetPolicy::RewriteAndReject).is_err());
        let p = prep(sql, NondetPolicy::RewriteBestEffort).unwrap();
        assert!(p.rewritten.is_none(), "left in place: {:?}", p.rewritten);
        let p = prep(sql, NondetPolicy::Ignore).unwrap();
        assert!(p.report.uses_rand_per_row);
    }

    #[test]
    fn unordered_limit_rejected() {
        let sql = "UPDATE foo SET v = 1 WHERE id IN (SELECT id FROM foo WHERE v IS NULL LIMIT 5)";
        let err = prep(sql, NondetPolicy::RewriteAndReject).unwrap_err();
        assert!(err.reason.contains("LIMIT"));
        assert!(prep(sql, NondetPolicy::RewriteBestEffort).is_ok());
    }
}
