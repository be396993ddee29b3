//! Render the AST back to canonical SQL text.
//!
//! Replication between the middleware and its backends never ships text:
//! statements travel parsed, and the recovery log keeps them parsed. Text
//! remains where a node reads back what it wrote itself: the binlog records
//! each committed statement as text, which master-slave shipping parses at
//! the slave (`DbNode::apply_binlog` in `replimid-core`), and a WAL
//! checkpoint stores each table's schema as a rendered `CREATE TABLE`. Both
//! rely on `parse(render(stmt)) == stmt`, verified by a property test in
//! `tests/properties_sql.rs`.

use std::fmt;

use crate::ast::*;

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&v.to_literal()),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Unary { op: UnOp::Neg, expr } => write!(f, "(-{expr})"),
            Expr::Unary { op: UnOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {pattern})", if *negated { "NOT " } else { "" })
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, low, high, negated } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                write_comma_sep(f, list)?;
                f.write_str("))")
            }
            Expr::InSelect { expr, select, negated } => write!(
                f,
                "({expr} {}IN ({select}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::ScalarSubquery(select) => write!(f, "({select})"),
            Expr::Exists { select, negated } => {
                write!(f, "({}EXISTS ({select}))", if *negated { "NOT " } else { "" })
            }
            Expr::Function { name, args } => {
                write!(f, "{name}(")?;
                write_comma_sep(f, args)?;
                f.write_str(")")
            }
            Expr::Param(_) => f.write_str("?"),
        }
    }
}

fn write_comma_sep<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::Expr { expr, alias: Some(a) } => write!(f, "{expr} AS {a}"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias: Some(a) } => write!(f, "{name} AS {a}"),
            TableRef::Table { name, alias: None } => write!(f, "{name}"),
            TableRef::Join { left, right, on } => write!(f, "{left} JOIN {right} ON {on}"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        write_comma_sep(f, &self.projections)?;
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            write_comma_sep(f, &self.group_by)?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}", k.expr, if k.asc { "" } else { " DESC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        if self.for_update {
            f.write_str(" FOR UPDATE")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateDatabase { name, if_not_exists } => write!(
                f,
                "CREATE DATABASE {}{name}",
                if *if_not_exists { "IF NOT EXISTS " } else { "" }
            ),
            Statement::DropDatabase { name } => write!(f, "DROP DATABASE {name}"),
            Statement::UseDatabase { name } => write!(f, "USE {name}"),
            Statement::CreateTable { name, columns, temporary, if_not_exists } => {
                write!(
                    f,
                    "CREATE {}TABLE {}{name} (",
                    if *temporary { "TEMPORARY " } else { "" },
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} {}", c.name, c.data_type)?;
                    if c.primary_key {
                        f.write_str(" PRIMARY KEY")?;
                    }
                    if c.not_null && !c.primary_key {
                        f.write_str(" NOT NULL")?;
                    }
                    if c.auto_increment {
                        f.write_str(" AUTO_INCREMENT")?;
                    }
                    if let Some(d) = &c.default {
                        write!(f, " DEFAULT {d}")?;
                    }
                }
                f.write_str(")")
            }
            Statement::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Statement::Insert { table, columns, source } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        f.write_str(" VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            f.write_str("(")?;
                            write_comma_sep(f, row)?;
                            f.write_str(")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Select(s) => write!(f, " {s}"),
                }
            }
            Statement::Update { table, assignments, filter } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (col, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{col} = {e}")?;
                }
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Begin { isolation: None } => f.write_str("BEGIN"),
            Statement::Begin { isolation: Some(level) } => {
                write!(f, "BEGIN ISOLATION LEVEL {level}")
            }
            Statement::Commit => f.write_str("COMMIT"),
            Statement::Rollback => f.write_str("ROLLBACK"),
            Statement::CreateSequence { name, start, if_not_exists } => write!(
                f,
                "CREATE SEQUENCE {}{name} START {start}",
                if *if_not_exists { "IF NOT EXISTS " } else { "" }
            ),
            Statement::DropSequence { name } => write!(f, "DROP SEQUENCE {name}"),
            Statement::CreateUser { name, password } => {
                write!(f, "CREATE USER {name} PASSWORD '{}'", password.replace('\'', "''"))
            }
            Statement::DropUser { name } => write!(f, "DROP USER {name}"),
            Statement::Grant { privilege, database, user } => {
                write!(f, "GRANT {privilege} ON {database} TO {user}")
            }
            Statement::CreateTrigger { name, event, table, body } => {
                write!(f, "CREATE TRIGGER {name} AFTER {event} ON {table} DO ")?;
                write_body(f, body)
            }
            Statement::DropTrigger { name, table } => {
                write!(f, "DROP TRIGGER {name} ON {table}")
            }
            Statement::CreateProcedure { name, params, body } => {
                write!(f, "CREATE PROCEDURE {name}({}) AS ", params.join(", "))?;
                write_body(f, body)
            }
            Statement::DropProcedure { name } => write!(f, "DROP PROCEDURE {name}"),
            Statement::Call { name, args } => {
                write!(f, "CALL {name}(")?;
                write_comma_sep(f, args)?;
                f.write_str(")")
            }
            Statement::Set { name, value } => write!(f, "SET {name} = {value}"),
        }
    }
}

fn write_body(f: &mut fmt::Formatter<'_>, body: &[Statement]) -> fmt::Result {
    f.write_str("BEGIN ")?;
    for st in body {
        write!(f, "{st}; ")?;
    }
    f.write_str("END")
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_statement;

    fn round_trip(sql: &str) {
        let ast1 = parse_statement(sql).unwrap();
        let rendered = ast1.to_string();
        let ast2 = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(ast1, ast2, "round trip changed AST for {sql:?} -> {rendered:?}");
    }

    #[test]
    fn round_trips() {
        for sql in [
            "SELECT a, b AS bb FROM t WHERE x > 3 AND y LIKE 'a%' ORDER BY a DESC LIMIT 5 OFFSET 2",
            "INSERT INTO db1.t (a, b) VALUES (1, 'x'), (2, 'o''brien')",
            "UPDATE t SET x = x + 1 WHERE id IN (SELECT id FROM t WHERE v IS NULL LIMIT 10)",
            "DELETE FROM t WHERE a BETWEEN 1 AND 5",
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, n TEXT NOT NULL, v FLOAT DEFAULT 0.0)",
            "CREATE TEMPORARY TABLE scratch (k INT PRIMARY KEY)",
            "CREATE SEQUENCE s START 100",
            "BEGIN ISOLATION LEVEL SNAPSHOT",
            "CREATE TRIGGER audit AFTER INSERT ON orders DO BEGIN INSERT INTO reportdb.log (oid) VALUES (NEW.id); END",
            "CREATE PROCEDURE bump(amount) AS BEGIN UPDATE acct SET bal = bal + amount; END",
            "CALL bump(10)",
            "SELECT COUNT(*) FROM t GROUP BY region HAVING COUNT(*) > 2",
            "SELECT * FROM a JOIN b ON a.id = b.aid WHERE a.x = 1",
            "GRANT ALL ON shop TO alice",
            "SET tz = 'UTC'",
            "SELECT * FROM t FOR UPDATE",
        ] {
            round_trip(sql);
        }
    }
}
