//! The catalog: database instances and their persistent objects.
//!
//! One engine hosts *multiple database instances* (CREATE DATABASE), because
//! the paper (§4.1.1) calls out that research replication virtualizes single
//! databases while real RDBMSes host many, with triggers that hop across
//! them. Queries may qualify tables as `db.table`.

use std::collections::BTreeMap;

use crate::ast::{Statement, TriggerEvent};
use crate::error::SqlError;
use crate::storage::Table;

/// A trigger definition: AFTER <event> ON <table> DO BEGIN ... END.
/// Bodies may reference `NEW.<column>` and may write other databases —
/// the cross-database reporting pattern from §4.1.1.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDef {
    pub name: String,
    pub event: TriggerEvent,
    pub table: String,
    pub body: Vec<Statement>,
}

/// A stored procedure (§4.2.1). The body is opaque to any middleware: there
/// is no schema describing which tables it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Statement>,
}

/// One database instance.
#[derive(Debug, Clone)]
pub struct Database {
    pub name: String,
    pub tables: BTreeMap<String, Table>,
    pub triggers: Vec<TriggerDef>,
    pub procedures: BTreeMap<String, ProcedureDef>,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            tables: BTreeMap::new(),
            triggers: Vec::new(),
            procedures: BTreeMap::new(),
        }
    }

    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::UnknownTable(format!("{}.{name}", self.name)))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        let db = &self.name;
        self.tables
            .get_mut(name)
            .ok_or_else(|| SqlError::UnknownTable(format!("{db}.{name}")))
    }

    /// Does any trigger fire for `event` on `table`?
    pub fn has_triggers(&self, table: &str, event: TriggerEvent) -> bool {
        self.triggers.iter().any(|t| t.table == table && t.event == event)
    }

    /// Triggers firing for `event` on `table`, in definition order.
    pub fn triggers_for(&self, table: &str, event: TriggerEvent) -> Vec<TriggerDef> {
        self.triggers
            .iter()
            .filter(|t| t.table == table && t.event == event)
            .cloned()
            .collect()
    }
}

/// All database instances in one engine.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    pub databases: BTreeMap<String, Database>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    pub fn create_database(&mut self, name: &str, if_not_exists: bool) -> Result<(), SqlError> {
        if self.databases.contains_key(name) {
            if if_not_exists {
                return Ok(());
            }
            return Err(SqlError::AlreadyExists(name.to_string()));
        }
        self.databases.insert(name.to_string(), Database::new(name));
        Ok(())
    }

    pub fn drop_database(&mut self, name: &str) -> Result<(), SqlError> {
        self.databases
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SqlError::UnknownDatabase(name.to_string()))
    }

    pub fn database(&self, name: &str) -> Result<&Database, SqlError> {
        self.databases
            .get(name)
            .ok_or_else(|| SqlError::UnknownDatabase(name.to_string()))
    }

    pub fn database_mut(&mut self, name: &str) -> Result<&mut Database, SqlError> {
        self.databases
            .get_mut(name)
            .ok_or_else(|| SqlError::UnknownDatabase(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_drop_database() {
        let mut c = Catalog::new();
        c.create_database("shop", false).unwrap();
        assert!(c.create_database("shop", false).is_err());
        c.create_database("shop", true).unwrap();
        c.drop_database("shop").unwrap();
        assert!(c.database("shop").is_err());
    }

    #[test]
    fn triggers_filtered_by_table_and_event() {
        let mut db = Database::new("d");
        db.triggers.push(TriggerDef {
            name: "a".into(),
            event: TriggerEvent::Insert,
            table: "t".into(),
            body: vec![],
        });
        db.triggers.push(TriggerDef {
            name: "b".into(),
            event: TriggerEvent::Delete,
            table: "t".into(),
            body: vec![],
        });
        assert_eq!(db.triggers_for("t", TriggerEvent::Insert).len(), 1);
        assert_eq!(db.triggers_for("u", TriggerEvent::Insert).len(), 0);
    }
}
