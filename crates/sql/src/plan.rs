//! Prepared-statement normalization and plan caching.
//!
//! The middleware pays a "practice tax" the theory ignores (PAPER §4): every
//! statement arriving as SQL text is lexed and parsed at admission, and — in
//! a naive implementation — re-parsed for table extraction, certification and
//! on every backend. This module provides the parse-once fast path:
//!
//! 1. [`normalize`] tokenizes a statement and extracts its literals into a
//!    params vector, producing a *template key* (`SELECT v FROM t WHERE k = 7`
//!    → `select v from t where k = ?`, params `[7]`). Only plain DML
//!    (SELECT/INSERT/UPDATE/DELETE) is normalized; DDL, transaction control
//!    and procedure calls are rare enough to take the slow path.
//! 2. [`PlanCache`] is a bounded LRU from template key to the parsed template
//!    AST plus precomputed routing facts (read-only classification, written
//!    tables). A hit skips the parser entirely.
//! 3. [`bind`] clones the template and substitutes `Expr::Param(i)` nodes
//!    with the extracted literals, reconstructing the statement the client
//!    sent without ever re-reading its text.
//!
//! Normalization is *conservative*: any statement whose template would parse
//! differently from the original text is left un-normalized (returns `None`)
//! and flows through the existing parse path. The guards below encode the
//! grammar positions where a literal is load-bearing:
//!
//! * `LIMIT`/`OFFSET` counts and `TIMESTAMP <int>` literals stay inline —
//!   the parser requires an integer token there, `?` would not parse;
//! * a unary minus directly before a number folds into a single negative
//!   parameter (matching the parser's literal folding) only in positions
//!   where the minus is unambiguously unary;
//! * `NULL` is a keyword, not a literal token, so it stays in the key:
//!   `... = NULL` and `... = 'NULL'` normalize to different templates.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::Statement;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parser::parse_statement;
use crate::value::Value;

/// A statement reduced to its parameterized shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalForm {
    /// Cache key: the statement with literals replaced by `?`, idents
    /// lowercased, tokens space-separated. Parseable SQL in its own right.
    pub key: String,
    /// Extracted literals, in textual order (matching `Expr::Param` indices).
    pub params: Vec<Value>,
}

/// Normalize a statement for cache lookup. Returns `None` when the statement
/// is not safely cacheable (non-DML, tokenizer error, or a raw `?` already
/// present — parameter indices would misalign).
pub fn normalize(sql: &str) -> Option<NormalForm> {
    let toks = tokenize(sql).ok()?;
    match toks.first().map(|t| &t.kind) {
        Some(TokenKind::Ident(w))
            if ["select", "insert", "update", "delete"]
                .iter()
                .any(|k| w.eq_ignore_ascii_case(k)) => {}
        _ => return None,
    }

    let mut key = String::with_capacity(sql.len());
    let mut params = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !key.is_empty() {
            key.push(' ');
        }
        match &toks[i].kind {
            // A raw placeholder in client SQL: refuse, the extracted params
            // would not line up with the template's indices.
            TokenKind::Question => return None,
            TokenKind::Int(v) => {
                if int_must_stay_inline(&toks, i) {
                    key.push_str(&v.to_string());
                } else {
                    key.push('?');
                    params.push(Value::Int(*v));
                }
            }
            TokenKind::Float(x) => {
                key.push('?');
                params.push(Value::Float(*x));
            }
            TokenKind::Str(s) => {
                key.push('?');
                params.push(Value::Text(s.clone()));
            }
            TokenKind::Minus
                if unary_position(&toks, i) && folds_to_negative(&toks, i) =>
            {
                // `(-5)` parses as the literal -5, not NEG(5); fold the sign
                // into the parameter so binding reproduces the same AST.
                match &toks[i + 1].kind {
                    TokenKind::Int(v) => params.push(Value::Int(-v)),
                    TokenKind::Float(x) => params.push(Value::Float(-x)),
                    _ => unreachable!("folds_to_negative checked the lookahead"),
                }
                key.push('?');
                i += 1; // consume the number as well
            }
            other => key.push_str(&token_text(other)),
        }
        i += 1;
    }
    Some(NormalForm { key, params })
}

/// Integer literals the grammar requires to be inline integer tokens:
/// `LIMIT n`, `OFFSET n`, `TIMESTAMP n` and `TIMESTAMP -n`.
fn int_must_stay_inline(toks: &[Token], i: usize) -> bool {
    let kw_at = |j: usize, kws: &[&str]| {
        matches!(&toks[j].kind, TokenKind::Ident(w)
            if kws.iter().any(|k| w.eq_ignore_ascii_case(k)))
    };
    if i >= 1 && kw_at(i - 1, &["limit", "offset", "timestamp"]) {
        return true;
    }
    // `TIMESTAMP - 5`: the sign is part of the timestamp literal.
    i >= 2 && toks[i - 1].kind == TokenKind::Minus && kw_at(i - 2, &["timestamp"])
}

/// True when the minus at `toks[i]` is unambiguously a unary sign: at the
/// start of an expression position. After an ident/number/`)` it is (or may
/// be) binary subtraction and must stay an operator in the key.
fn unary_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    matches!(
        toks[i - 1].kind,
        TokenKind::LParen
            | TokenKind::Comma
            | TokenKind::Eq
            | TokenKind::Neq
            | TokenKind::Lt
            | TokenKind::Le
            | TokenKind::Gt
            | TokenKind::Ge
    )
}

/// True when the token after the minus is a plain number literal.
fn folds_to_negative(toks: &[Token], i: usize) -> bool {
    matches!(
        toks.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Int(_) | TokenKind::Float(_))
    )
}

fn token_text(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => s.to_ascii_lowercase(),
        TokenKind::LParen => "(".into(),
        TokenKind::RParen => ")".into(),
        TokenKind::Comma => ",".into(),
        TokenKind::Dot => ".".into(),
        TokenKind::Semicolon => ";".into(),
        TokenKind::Star => "*".into(),
        TokenKind::Plus => "+".into(),
        TokenKind::Minus => "-".into(),
        TokenKind::Slash => "/".into(),
        TokenKind::Percent => "%".into(),
        TokenKind::Eq => "=".into(),
        TokenKind::Neq => "<>".into(),
        TokenKind::Lt => "<".into(),
        TokenKind::Le => "<=".into(),
        TokenKind::Gt => ">".into(),
        TokenKind::Ge => ">=".into(),
        TokenKind::Concat => "||".into(),
        TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) | TokenKind::Question => {
            unreachable!("literals handled by the caller")
        }
    }
}

/// A parsed template, checked once at insert time to expect exactly the
/// parameters its normal form extracted.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Template AST with `Expr::Param` placeholders. Shared: binding clones
    /// the statement, fan-out shares the `Arc`.
    pub template: Arc<Statement>,
}

impl CachedPlan {
    /// Parse a normal form's key into a cached plan. Fails when the template
    /// does not parse (a normalization guard miss) — callers fall back to
    /// parsing the original text and do not cache.
    pub fn prepare(nf: &NormalForm) -> Result<CachedPlan, SqlError> {
        let template = parse_statement(&nf.key)?;
        // The template must expect exactly the params we extracted; anything
        // else means a `?` landed in a non-expression position.
        let mut max_param = None;
        template.walk_exprs(&mut |e| {
            if let crate::ast::Expr::Param(i) = e {
                max_param = Some(max_param.map_or(*i, |m: usize| m.max(*i)));
            }
        });
        let expected = max_param.map_or(0, |m| m + 1);
        if expected != nf.params.len() {
            return Err(SqlError::Internal(format!(
                "template expects {expected} params, normalizer extracted {}",
                nf.params.len()
            )));
        }
        Ok(CachedPlan { template: Arc::new(template) })
    }
}

/// Substitute parameters into a template, reconstructing the statement the
/// client sent.
pub fn bind(template: &Statement, params: &[Value]) -> Result<Statement, SqlError> {
    let mut stmt = template.clone();
    let mut err = None;
    stmt.walk_exprs_mut(&mut |e| {
        if let crate::ast::Expr::Param(i) = e {
            match params.get(*i) {
                Some(v) => *e = crate::ast::Expr::Literal(v.clone()),
                None => err = Some(*i),
            }
        }
    });
    match err {
        Some(i) => Err(SqlError::Internal(format!("unbound parameter ?{i}"))),
        None => Ok(stmt),
    }
}

/// Bounded LRU cache from normalized SQL to parsed plans.
///
/// Deterministic by construction: `BTreeMap` iteration breaks last-used ties
/// by key order, and recency is a logical tick, not wall time.
#[derive(Debug, Default)]
pub struct PlanCache {
    cap: usize,
    map: BTreeMap<String, Entry>,
    tick: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    plan: CachedPlan,
    last_used: u64,
}

impl PlanCache {
    /// A cache holding at most `cap` templates. `cap == 0` disables caching
    /// (lookups miss, inserts are dropped).
    pub fn new(cap: usize) -> PlanCache {
        PlanCache { cap, ..PlanCache::default() }
    }

    /// The most templates the cache holds (0: caching is off).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn get(&mut self, key: &str) -> Option<CachedPlan> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e.plan.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn insert(&mut self, key: String, plan: CachedPlan) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            // Evict the least-recently-used entry (first key in BTreeMap
            // order on ties, which cannot happen: ticks are unique).
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(key, Entry { plan, last_used: self.tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nf(sql: &str) -> NormalForm {
        normalize(sql).unwrap_or_else(|| panic!("{sql:?} should normalize"))
    }

    /// The load-bearing invariant: binding the template's params must
    /// reproduce exactly the AST of parsing the original text.
    fn assert_roundtrip(sql: &str) {
        let direct = parse_statement(sql).unwrap();
        let form = nf(sql);
        let plan = CachedPlan::prepare(&form).unwrap();
        let bound = bind(&plan.template, &form.params).unwrap();
        assert_eq!(bound, direct, "bind(template, params) diverged for {sql:?}");
    }

    #[test]
    fn basic_shapes_roundtrip() {
        for sql in [
            "SELECT v FROM t WHERE k = 7",
            "SELECT a, b FROM t WHERE x > 3 AND y LIKE 'a%' ORDER BY a DESC LIMIT 5 OFFSET 2",
            "INSERT INTO db1.t (a, b) VALUES (1, 'x'), (2, 'o''brien')",
            "UPDATE t SET x = x + 1, s = 'z' WHERE id IN (1, 2, 3)",
            "DELETE FROM t WHERE a BETWEEN 1 AND 5",
            "SELECT COUNT(*) FROM t GROUP BY region HAVING COUNT(*) > 2",
            "SELECT * FROM a JOIN b ON a.id = b.aid WHERE a.x = 1.5",
            "SELECT * FROM t WHERE ts < TIMESTAMP 1700000000",
        ] {
            assert_roundtrip(sql);
        }
    }

    #[test]
    fn same_shape_same_key_different_params() {
        let a = nf("SELECT v FROM t WHERE k = 1");
        let b = nf("select V from T where K = 250");
        assert_eq!(a.key, b.key);
        assert_eq!(a.params, vec![Value::Int(1)]);
        assert_eq!(b.params, vec![Value::Int(250)]);
    }

    #[test]
    fn question_in_string_literal_is_text() {
        // A `?` inside a string is data, not a placeholder; it must become a
        // parameter carrying the text verbatim.
        let form = nf("SELECT v FROM t WHERE s = 'is it? maybe?'");
        assert_eq!(form.params, vec![Value::Text("is it? maybe?".into())]);
        assert_roundtrip("SELECT v FROM t WHERE s = 'is it? maybe?'");
        // A raw placeholder outside a string is not cacheable client SQL.
        assert!(normalize("SELECT v FROM t WHERE k = ?").is_none());
    }

    #[test]
    fn negative_numerics_fold_into_params() {
        let form = nf("INSERT INTO t (a, b) VALUES (-5, -2.5)");
        assert_eq!(form.params, vec![Value::Int(-5), Value::Float(-2.5)]);
        assert_roundtrip("INSERT INTO t (a, b) VALUES (-5, -2.5)");
        assert_roundtrip("SELECT v FROM t WHERE k = -7");
        assert_roundtrip("UPDATE t SET x = (-1) WHERE k < -3");
        // Binary minus stays an operator; only the operand parameterizes.
        let form = nf("SELECT a - 1 FROM t");
        assert!(form.key.contains('-'));
        assert_eq!(form.params, vec![Value::Int(1)]);
    }

    #[test]
    fn null_keyword_differs_from_null_string() {
        let kw = nf("SELECT v FROM t WHERE s = NULL");
        let st = nf("SELECT v FROM t WHERE s = 'NULL'");
        assert_ne!(kw.key, st.key, "NULL keyword and 'NULL' string must not collide");
        assert!(kw.params.is_empty());
        assert_eq!(st.params, vec![Value::Text("NULL".into())]);
        assert_roundtrip("SELECT v FROM t WHERE s = 'NULL'");
        assert_roundtrip("SELECT v FROM t WHERE s = NULL");
    }

    #[test]
    fn limit_offset_stay_inline() {
        let form = nf("SELECT v FROM t WHERE k > 10 ORDER BY v LIMIT 5 OFFSET 3");
        assert!(form.key.contains("limit 5"), "key: {}", form.key);
        assert!(form.key.contains("offset 3"), "key: {}", form.key);
        assert_eq!(form.params, vec![Value::Int(10)]);
    }

    #[test]
    fn non_dml_is_not_cacheable() {
        for sql in [
            "CREATE TABLE t (k INT PRIMARY KEY)",
            "BEGIN",
            "COMMIT",
            "SET tz = 'UTC'",
            "CALL bump(10)",
            "CREATE SEQUENCE s START 100",
        ] {
            assert!(normalize(sql).is_none(), "{sql:?} must not normalize");
        }
    }

    #[test]
    fn lru_evicts_deterministically() {
        let mut cache = PlanCache::new(2);
        let plan = |sql: &str| CachedPlan::prepare(&nf(sql)).unwrap();
        let (a, b, c) = (
            nf("SELECT v FROM a WHERE k = 1"),
            nf("SELECT v FROM b WHERE k = 1"),
            nf("SELECT v FROM c WHERE k = 1"),
        );
        cache.insert(a.key.clone(), plan("SELECT v FROM a WHERE k = 1"));
        cache.insert(b.key.clone(), plan("SELECT v FROM b WHERE k = 1"));
        assert!(cache.get(&a.key).is_some()); // refresh a; b is now LRU
        cache.insert(c.key.clone(), plan("SELECT v FROM c WHERE k = 1"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(&b.key).is_none(), "b should have been evicted");
        assert!(cache.get(&a.key).is_some());
        assert!(cache.get(&c.key).is_some());
        assert_eq!(cache.hits, 3);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PlanCache::new(0);
        let form = nf("SELECT v FROM t WHERE k = 1");
        cache.insert(form.key.clone(), CachedPlan::prepare(&form).unwrap());
        assert!(cache.get(&form.key).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn bind_rejects_missing_params() {
        let form = nf("SELECT v FROM t WHERE k = 1 AND x = 2");
        let plan = CachedPlan::prepare(&form).unwrap();
        assert!(bind(&plan.template, &form.params[..1]).is_err());
    }
}
