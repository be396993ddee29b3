//! Admission: the one parse of every client statement (through the plan
//! cache), and temp-table stickiness (§4.1.4).

use std::sync::Arc;

use replimid_simnet::Ctx;
use replimid_sql::ast::Statement;
use replimid_sql::{parse_statement, CachedPlan, PlanCache, SqlError, Value};

use super::{Current, CurrentKind, Middleware, Pending, Sess};
use crate::metrics::Counters;
use crate::msg::{ClientRequest, DbOp, Msg, PlanExec, ReplyError};

/// A client statement as admission parsed it.
pub(super) struct Admitted {
    /// The statement the client sent.
    pub(super) stmt: Arc<Statement>,
    /// What backends execute: the cached template and its literals, or the
    /// statement itself (the same `Arc`) when nothing was cached.
    pub(super) plan: PlanExec,
}

impl Admitted {
    fn whole(stmt: Statement) -> Admitted {
        let stmt = Arc::new(stmt);
        Admitted { plan: PlanExec::whole(stmt.clone()), stmt }
    }

    fn bound(cached: CachedPlan, params: Vec<Value>) -> Result<Admitted, SqlError> {
        let stmt = Arc::new(replimid_sql::bind(&cached.template, &params)?);
        Ok(Admitted { stmt, plan: PlanExec { template: cached.template, params } })
    }
}

/// The admission seam's state: prepared-statement templates keyed by
/// normalized SQL (capacity `MwConfig::plan_cache`; no reuse at 0).
pub(super) struct Admission {
    cache: PlanCache,
}

impl Admission {
    pub(super) fn new(capacity: usize) -> Self {
        Admission { cache: PlanCache::new(capacity) }
    }

    /// The single parse of the statement pipeline. With the plan cache off
    /// (capacity 0) this is one `parse_statement` call. With it on, the
    /// text is normalized (literals → params) and the template parse is
    /// reused across every statement sharing the shape; hits, misses and
    /// evictions land in `counters`. Either way the returned [`PlanExec`]
    /// is the wire form backends execute without parsing.
    pub(super) fn admit(&mut self, sql: &str, counters: &mut Counters) -> Result<Admitted, SqlError> {
        if self.cache.capacity() == 0 {
            return Ok(Admitted::whole(parse_statement(sql)?));
        }
        let Some(nf) = replimid_sql::normalize(sql) else {
            // Uncacheable shape (non-DML, or a raw `?` in the client text).
            counters.plan_cache_misses += 1;
            return Ok(Admitted::whole(parse_statement(sql)?));
        };
        if let Some(cached) = self.cache.get(&nf.key) {
            counters.plan_cache_hits += 1;
            return Admitted::bound(cached, nf.params);
        }
        counters.plan_cache_misses += 1;
        match CachedPlan::prepare(&nf) {
            Ok(cached) => {
                let admitted = Admitted::bound(cached.clone(), nf.params)?;
                self.cache.insert(nf.key, cached);
                counters.plan_cache_evictions = self.cache.evictions;
                Ok(admitted)
            }
            // The normalized template did not parse (pathological literal
            // placement): fall back to the original text, uncached. A
            // genuinely invalid statement fails here exactly as it would
            // have without the cache.
            Err(_) => Ok(Admitted::whole(parse_statement(sql)?)),
        }
    }
}

impl Sess {
    /// Does `stmt` create, or name, one of the session's temporary tables?
    fn touches_temp(&self, stmt: &Statement) -> bool {
        let is_create_temp = matches!(stmt, Statement::CreateTable { temporary: true, .. });
        let Some(temp_tables) = self.cold.as_ref().map(|c| &c.temp_tables).filter(|t| !t.is_empty()) else {
            return is_create_temp;
        };
        is_create_temp
            || stmt
                .read_tables()
                .iter()
                .chain(stmt.written_tables().iter())
                .any(|t| t.database.is_none() && temp_tables.contains(&t.name))
    }
}

impl Middleware {
    /// Returns true if the statement was routed as a temp-table operation.
    pub(super) fn handle_temp_stickiness(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: &ClientRequest,
        stmt: &Statement,
        plan: &PlanExec,
    ) -> bool {
        let Some(s) = self.sessions.get(req.session.0) else { return false };
        if !s.touches_temp(stmt) {
            return false;
        }
        // Pin the session (now and forever: the middleware cannot know when
        // the temp table's true lifespan ends, §4.1.4).
        let backend = match s.sticky {
            Some(b) if self.backends[b.0].online() => Some(b),
            _ => {
                let candidates = self.routable();
                self.balancer.pick(&candidates)
            }
        };
        let Some(backend) = backend else {
            self.reply(ctx, req.session, req.stmt_seq, Err(ReplyError::Unavailable("no backend".into())));
            return true;
        };
        let session = req.session;
        let Some(s) = self.sessions.get_mut(session.0) else { return true };
        s.sticky = Some(backend);
        s.temp_pinned = true;
        if let Statement::CreateTable { name, temporary: true, .. } = stmt {
            s.cold().temp_tables.insert(name.name.clone());
        }
        if let Statement::DropTable { name, .. } = stmt {
            s.cold().temp_tables.remove(&name.name);
        }
        s.current = Some(Current { stmt_seq: req.stmt_seq, kind: CurrentKind::TempExec });
        let plan = plan.clone();
        self.send_db(ctx, backend, Pending::ClientExec { session }, move |op| {
            DbOp::Execute { op, conn: session.0, plan }
        });
        true
    }
}
