//! Abstract syntax tree for the supported SQL dialect, plus a renderer that
//! turns the AST back into canonical SQL text.
//!
//! The renderer matters where text is read back: master-slave shipping
//! replays the binlog's statement text, and WAL checkpoints store schemas
//! as SQL, so `parse(render(ast)) == ast` is a load-bearing invariant,
//! checked by a property test (see `render`).

use std::fmt;

use crate::value::Value;

/// A possibly database-qualified object name (`db.table` or `table`).
/// Names are normalized to lowercase at parse time; quoted identifiers
/// preserve case.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName {
    pub database: Option<String>,
    pub name: String,
}

impl ObjectName {
    pub fn bare(name: impl Into<String>) -> Self {
        ObjectName { database: None, name: name.into() }
    }

    pub fn qualified(db: impl Into<String>, name: impl Into<String>) -> Self {
        ObjectName { database: Some(db.into()), name: name.into() }
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.database {
            Some(db) => write!(f, "{db}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Transaction isolation levels exposed by the engine (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Default in every production DBMS per the paper.
    ReadCommitted,
    /// Snapshot isolation (first-committer-wins).
    SnapshotIsolation,
    /// SI plus commit-time read validation (optimistic 1SR).
    Serializable,
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IsolationLevel::ReadCommitted => "READ COMMITTED",
            IsolationLevel::SnapshotIsolation => "SNAPSHOT",
            IsolationLevel::Serializable => "SERIALIZABLE",
        })
    }
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: crate::value::DataType,
    pub not_null: bool,
    pub primary_key: bool,
    /// AUTO_INCREMENT: assigned from a non-transactional per-table counter.
    pub auto_increment: bool,
    pub default: Option<Expr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerEvent {
    Insert,
    Update,
    Delete,
}

impl fmt::Display for TriggerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TriggerEvent::Insert => "INSERT",
            TriggerEvent::Update => "UPDATE",
            TriggerEvent::Delete => "DELETE",
        })
    }
}

/// One parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateDatabase { name: String, if_not_exists: bool },
    DropDatabase { name: String },
    UseDatabase { name: String },
    CreateTable {
        name: ObjectName,
        columns: Vec<ColumnDef>,
        temporary: bool,
        if_not_exists: bool,
    },
    DropTable { name: ObjectName, if_exists: bool },
    Insert {
        table: ObjectName,
        columns: Vec<String>,
        source: InsertSource,
    },
    Update {
        table: ObjectName,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete { table: ObjectName, filter: Option<Expr> },
    Select(Box<Select>),
    Begin { isolation: Option<IsolationLevel> },
    Commit,
    Rollback,
    CreateSequence { name: ObjectName, start: i64, if_not_exists: bool },
    DropSequence { name: ObjectName },
    CreateUser { name: String, password: String },
    DropUser { name: String },
    Grant { privilege: Privilege, database: String, user: String },
    CreateTrigger {
        name: String,
        event: TriggerEvent,
        table: ObjectName,
        body: Vec<Statement>,
    },
    DropTrigger { name: String, table: ObjectName },
    CreateProcedure {
        name: ObjectName,
        params: Vec<String>,
        body: Vec<Statement>,
    },
    DropProcedure { name: ObjectName },
    Call { name: ObjectName, args: Vec<Expr> },
    /// SET <var> = <expr>: session variable (also models the paper's
    /// "environment variable updates" writeset blind spot).
    Set { name: String, value: Expr },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    All,
    Read,
    Write,
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Privilege::All => "ALL",
            Privilege::Read => "READ",
            Privilege::Write => "WRITE",
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<Select>),
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub projections: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    pub for_update: bool,
}

impl Select {
    /// An empty SELECT skeleton; the parser fills it in.
    pub fn empty() -> Self {
        Select {
            projections: Vec::new(),
            from: None,
            filter: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
            for_update: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub asc: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Wildcard,
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table { name: ObjectName, alias: Option<String> },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Expr,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Table name or alias qualifier; `NEW` inside trigger bodies.
    pub table: Option<String>,
    pub name: String,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    Column(ColumnRef),
    Unary { op: UnOp, expr: Box<Expr> },
    Binary { left: Box<Expr>, op: BinOp, right: Box<Expr> },
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool },
    IsNull { expr: Box<Expr>, negated: bool },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    InSelect {
        expr: Box<Expr>,
        select: Box<Select>,
        negated: bool,
    },
    ScalarSubquery(Box<Select>),
    Exists { select: Box<Select>, negated: bool },
    /// Function call: NOW(), RAND(), NEXTVAL('seq'), LENGTH(x), ...
    Function { name: String, args: Vec<Expr> },
    /// `?` positional parameter (0-based, textual order). Produced when
    /// parsing a normalized prepared-statement template; must be bound to a
    /// literal before execution.
    Param(usize),
}

impl Expr {
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef { table: None, name: name.into() })
    }

    /// The literal this node compares `column` with, when the node is
    /// exactly `<column> = <literal>` or `<literal> = <column>`. The column
    /// reference must be unqualified or qualified with `qualifier` (the
    /// statement's own table name, or its alias when it has one): a
    /// reference to another table's column of the same name does not count.
    pub fn as_column_eq(&self, column: &str, qualifier: &str) -> Option<&Value> {
        let Expr::Binary { left, op: BinOp::Eq, right } = self else { return None };
        let (c, v) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => (c, v),
            _ => return None,
        };
        let ours = c.table.as_deref().is_none_or(|t| t == qualifier);
        (ours && c.name == column).then_some(v)
    }

    /// Find a top-level (AND-combined) `column = literal` predicate: every
    /// row the filter accepts has that value in `column`. The one predicate
    /// finder, shared by partition routing and the executor's access path.
    pub fn top_level_eq(&self, column: &str, qualifier: &str) -> Option<&Value> {
        match self {
            Expr::Binary { left, op: BinOp::And, right } => left
                .top_level_eq(column, qualifier)
                .or_else(|| right.top_level_eq(column, qualifier)),
            e => e.as_column_eq(column, qualifier),
        }
    }

    /// The conjunct a top-level AND chain evaluates first (the predicate
    /// itself when it is not an AND). AND short-circuits left to right, so
    /// this is the only conjunct guaranteed to run on every row.
    pub fn first_conjunct(&self) -> &Expr {
        let mut e = self;
        while let Expr::Binary { left, op: BinOp::And, .. } = e {
            e = left;
        }
        e
    }

    /// Walk the expression tree, calling `f` on every node (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSelect { expr, select, .. } => {
                expr.walk(f);
                select.walk_exprs(f);
            }
            Expr::ScalarSubquery(select) | Expr::Exists { select, .. } => select.walk_exprs(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Mutable walk (pre-order) used by query rewriting.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk_mut(f),
            Expr::Binary { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk_mut(f);
                pattern.walk_mut(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk_mut(f);
                low.walk_mut(f);
                high.walk_mut(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                for e in list {
                    e.walk_mut(f);
                }
            }
            Expr::InSelect { expr, select, .. } => {
                expr.walk_mut(f);
                select.walk_exprs_mut(f);
            }
            Expr::ScalarSubquery(select) | Expr::Exists { select, .. } => {
                select.walk_exprs_mut(f)
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
        }
    }
}

impl Select {
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for item in &self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.walk(f);
            }
        }
        if let Some(w) = &self.filter {
            w.walk(f);
        }
        for e in &self.group_by {
            e.walk(f);
        }
        if let Some(h) = &self.having {
            h.walk(f);
        }
        for k in &self.order_by {
            k.expr.walk(f);
        }
        if let Some(TableRef::Join { on, .. }) = &self.from {
            on.walk(f);
        }
    }

    pub fn walk_exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for item in &mut self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.walk_mut(f);
            }
        }
        if let Some(w) = &mut self.filter {
            w.walk_mut(f);
        }
        for e in &mut self.group_by {
            e.walk_mut(f);
        }
        if let Some(h) = &mut self.having {
            h.walk_mut(f);
        }
        for k in &mut self.order_by {
            k.expr.walk_mut(f);
        }
        if let Some(TableRef::Join { on, .. }) = &mut self.from {
            on.walk_mut(f);
        }
    }
}

impl Statement {
    /// True if executing this statement can never modify database state.
    /// The middleware router uses this to send reads to slaves (§2.1).
    /// CALL is conservatively a write: the paper notes that without a schema
    /// describing procedure behaviour, the middleware cannot know (§4.2.1).
    pub fn is_read_only(&self) -> bool {
        match self {
            Statement::Select(s) => !s.for_update && !select_has_side_effects(s),
            Statement::Begin { .. } | Statement::Commit | Statement::Rollback => true,
            Statement::UseDatabase { .. } | Statement::Set { .. } => true,
            _ => false,
        }
    }

    /// Tables written by this statement, for table-granularity scheduling
    /// (the paper notes statement-level middleware can realistically lock
    /// only at table granularity, §4.3.2). Empty for CALL: procedure bodies
    /// are opaque to the middleware.
    pub fn written_tables(&self) -> Vec<ObjectName> {
        match self {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => vec![table.clone()],
            Statement::CreateTable { name, .. } | Statement::DropTable { name, .. } => {
                vec![name.clone()]
            }
            _ => Vec::new(),
        }
    }

    /// Walk all expressions in the statement (including nested statements of
    /// trigger/procedure bodies).
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Statement::Insert { source, .. } => match source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            e.walk(f);
                        }
                    }
                }
                InsertSource::Select(s) => s.walk_exprs(f),
            },
            Statement::Update { assignments, filter, .. } => {
                for (_, e) in assignments {
                    e.walk(f);
                }
                if let Some(w) = filter {
                    w.walk(f);
                }
            }
            Statement::Delete { filter: Some(w), .. } => w.walk(f),
            Statement::Select(s) => s.walk_exprs(f),
            Statement::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Statement::Set { value, .. } => value.walk(f),
            Statement::CreateTrigger { body, .. } | Statement::CreateProcedure { body, .. } => {
                for st in body {
                    st.walk_exprs(f);
                }
            }
            _ => {}
        }
    }

    pub fn walk_exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Statement::Insert { source, .. } => match source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            e.walk_mut(f);
                        }
                    }
                }
                InsertSource::Select(s) => s.walk_exprs_mut(f),
            },
            Statement::Update { assignments, filter, .. } => {
                for (_, e) in assignments {
                    e.walk_mut(f);
                }
                if let Some(w) = filter {
                    w.walk_mut(f);
                }
            }
            Statement::Delete { filter: Some(w), .. } => w.walk_mut(f),
            Statement::Select(s) => s.walk_exprs_mut(f),
            Statement::Call { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            Statement::Set { value, .. } => value.walk_mut(f),
            Statement::CreateTrigger { body, .. } | Statement::CreateProcedure { body, .. } => {
                for st in body {
                    st.walk_exprs_mut(f);
                }
            }
            _ => {}
        }
    }

    /// Tables this statement reads, including subquery FROM clauses.
    /// CALL returns nothing: procedure bodies are opaque (§4.2.1).
    pub fn read_tables(&self) -> Vec<ObjectName> {
        let mut out = Vec::new();
        let sub = |e: &Expr, out: &mut Vec<ObjectName>| {
            if let Expr::InSelect { select, .. }
            | Expr::ScalarSubquery(select)
            | Expr::Exists { select, .. } = e
            {
                collect_select_tables(select, out);
            }
        };
        match self {
            Statement::Select(s) => collect_select_tables(s, &mut out),
            Statement::Insert { source, .. } => match source {
                InsertSource::Select(s) => collect_select_tables(s, &mut out),
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            e.walk(&mut |e| sub(e, &mut out));
                        }
                    }
                }
            },
            Statement::Update { table, assignments, filter } => {
                out.push(table.clone());
                for (_, e) in assignments {
                    e.walk(&mut |e| sub(e, &mut out));
                }
                if let Some(w) = filter {
                    w.walk(&mut |e| sub(e, &mut out));
                }
            }
            Statement::Delete { table, filter } => {
                out.push(table.clone());
                if let Some(w) = filter {
                    w.walk(&mut |e| sub(e, &mut out));
                }
            }
            _ => {}
        }
        let mut seen = Vec::new();
        out.retain(|t| {
            if seen.contains(t) {
                false
            } else {
                seen.push(t.clone());
                true
            }
        });
        out
    }

    /// DDL and other operations the engine cannot undo on rollback
    /// (§4.3.2: "database updates that cannot be rolled back").
    pub fn is_irreversible(&self) -> bool {
        matches!(
            self,
            Statement::CreateDatabase { .. }
                | Statement::DropDatabase { .. }
                | Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::CreateSequence { .. }
                | Statement::DropSequence { .. }
                | Statement::CreateUser { .. }
                | Statement::DropUser { .. }
                | Statement::Grant { .. }
                | Statement::CreateTrigger { .. }
                | Statement::DropTrigger { .. }
                | Statement::CreateProcedure { .. }
                | Statement::DropProcedure { .. }
        )
    }
}

/// Collect all tables referenced by a SELECT, including nested subqueries.
pub fn collect_select_tables(s: &Select, out: &mut Vec<ObjectName>) {
    fn from_ref(r: &TableRef, out: &mut Vec<ObjectName>) {
        match r {
            TableRef::Table { name, .. } => out.push(name.clone()),
            TableRef::Join { left, right, .. } => {
                from_ref(left, out);
                from_ref(right, out);
            }
        }
    }
    if let Some(fr) = &s.from {
        from_ref(fr, out);
    }
    s.walk_exprs(&mut |e| match e {
        Expr::InSelect { select, .. }
        | Expr::ScalarSubquery(select)
        | Expr::Exists { select, .. } => collect_select_tables(select, out),
        _ => {}
    });
}

fn select_has_side_effects(s: &Select) -> bool {
    // NEXTVAL inside a SELECT advances the sequence: a write in disguise.
    let mut side_effect = false;
    s.walk_exprs(&mut |e| {
        if let Expr::Function { name, .. } = e {
            if name.eq_ignore_ascii_case("nextval") {
                side_effect = true;
            }
        }
    });
    side_effect
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_classification() {
        let sel = Statement::Select(Box::new(Select::empty()));
        assert!(sel.is_read_only());
        let ins = Statement::Insert {
            table: ObjectName::bare("t"),
            columns: vec![],
            source: InsertSource::Values(vec![]),
        };
        assert!(!ins.is_read_only());
        let call = Statement::Call { name: ObjectName::bare("p"), args: vec![] };
        assert!(!call.is_read_only(), "CALL must be treated as a write");
    }

    #[test]
    fn select_for_update_is_a_write() {
        let mut s = Select::empty();
        s.for_update = true;
        assert!(!Statement::Select(Box::new(s)).is_read_only());
    }

    #[test]
    fn nextval_in_select_is_a_write() {
        let mut s = Select::empty();
        s.projections.push(SelectItem::Expr {
            expr: Expr::Function { name: "nextval".into(), args: vec![Expr::lit("seq")] },
            alias: None,
        });
        assert!(!Statement::Select(Box::new(s)).is_read_only());
    }

    #[test]
    fn ddl_is_irreversible() {
        assert!(Statement::CreateTable {
            name: ObjectName::bare("t"),
            columns: vec![],
            temporary: false,
            if_not_exists: false,
        }
        .is_irreversible());
        assert!(!Statement::Commit.is_irreversible());
    }
}
