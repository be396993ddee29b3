//! The catalog: database instances and their persistent objects.
//!
//! One engine hosts *multiple database instances* (CREATE DATABASE), because
//! the paper (§4.1.1) calls out that research replication virtualizes single
//! databases while real RDBMSes host many, with triggers that hop across
//! them. Queries may qualify tables as `db.table`.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::{ColumnDef, Statement, TriggerEvent};
use crate::checksum::Fnv64;
use crate::error::SqlError;
use crate::storage::{Table, TableSchema};

/// A table's identity past the planner: its database and table names,
/// shared, with the FNV-64 state after hashing both. The catalog mints one
/// per table when the table is created (CREATE TABLE, which WAL DDL replay
/// re-executes, and dump restore); every write record, writeset key and
/// placement lookup of the table holds a clone of it, so copying it is a
/// refcount bump and hashing it reads a cached `u64`. A session temporary
/// table's database is `""`.
#[derive(Clone)]
pub struct TableName(Arc<Names>);

struct Names {
    database: Box<str>,
    table: Box<str>,
    /// After `write_str(database)` and `write_str(table)`.
    hasher: Fnv64,
}

impl TableName {
    pub fn new(database: &str, table: &str) -> Self {
        let mut hasher = Fnv64::new();
        hasher.write_str(database);
        hasher.write_str(table);
        TableName(Arc::new(Names { database: database.into(), table: table.into(), hasher }))
    }

    /// The name of session temporary table `table`.
    pub fn temp(table: &str) -> Self {
        TableName::new("", table)
    }

    pub fn database(&self) -> &str {
        &self.0.database
    }

    pub fn table(&self) -> &str {
        &self.0.table
    }

    /// Whether this names a session temporary table.
    pub fn is_temp(&self) -> bool {
        self.0.database.is_empty()
    }

    /// Whether this is table `table` of database `database`.
    pub fn is(&self, database: &str, table: &str) -> bool {
        *self.0.table == *table && *self.0.database == *database
    }

    /// An FNV-64 hasher that has hashed the database name, then the table
    /// name.
    pub fn hasher(&self) -> Fnv64 {
        self.0.hasher.clone()
    }
}

impl PartialEq for TableName {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hasher.finish() == other.0.hasher.finish() && self.is(other.database(), other.table()))
    }
}

impl Eq for TableName {}

impl Hash for TableName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hasher.finish());
    }
}

/// `database.table`, or `table` for a temporary table.
impl fmt::Display for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_temp() {
            write!(f, "{}.", self.database())?;
        }
        f.write_str(self.table())
    }
}

impl fmt::Debug for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableName({self})")
    }
}

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
    /// Shared: a connection's current database is a clone of it.
    pub name: Arc<str>,
    pub tables: BTreeMap<String, Table>,
    pub triggers: Vec<TriggerDef>,
    pub procedures: BTreeMap<String, ProcedureDef>,
}

impl Database {
    pub fn new(name: impl Into<Arc<str>>) -> Self {
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

    /// Create table `name`, which does not exist yet, minting its
    /// [`TableName`].
    pub fn add_table(&mut self, name: &str, columns: Vec<ColumnDef>) -> &mut Table {
        debug_assert!(!self.tables.contains_key(name), "table {name} exists");
        let table = Table::new(TableSchema::new(TableName::new(&self.name, name), columns));
        self.tables.entry(name.to_string()).or_insert(table)
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
