//! Placement: which backends host which rows. A *group* is a set of rows
//! with its own sequencer, certifier shard and recovery-log stream, hosted
//! by a declared subset of backends. A table is one group
//! ([`Placement::assign`]) or is partitioned on its primary key by range,
//! hash or list (Fig. 2, [`Placement::partition`]), each partition mapped to
//! a group. Full replication is the one group every backend hosts.

use replimid_sql::ast::{Expr, InsertSource, ObjectName, Statement, TableRef};
use replimid_sql::mvcc::WriteRecord;
use replimid_sql::{TableName, Value};

/// Partitioning criterion for one table (§2.1: "range partitioning, list
/// partitioning and hash partitioning" on a primary key).
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionScheme {
    /// `bounds[i]` is the *exclusive* upper bound of partition i; values at
    /// or above the last bound go to the final partition (len = bounds+1).
    Range { column: String, bounds: Vec<i64> },
    /// Hash of the key value modulo `partitions`.
    Hash { column: String, partitions: usize },
    /// Explicit value lists; values not listed go to partition
    /// `default_partition`.
    List { column: String, lists: Vec<Vec<Value>>, default_partition: usize },
}

impl PartitionScheme {
    pub fn partition_count(&self) -> usize {
        match self {
            PartitionScheme::Range { bounds, .. } => bounds.len() + 1,
            PartitionScheme::Hash { partitions, .. } => *partitions,
            PartitionScheme::List { lists, default_partition, .. } => {
                lists.len().max(default_partition + 1)
            }
        }
    }

    pub fn column(&self) -> &str {
        match self {
            PartitionScheme::Range { column, .. }
            | PartitionScheme::Hash { column, .. }
            | PartitionScheme::List { column, .. } => column,
        }
    }

    /// Which partition owns `value`? A float with an integral value and a
    /// timestamp locate as the integer they equal, so a key literal finds
    /// the partition of the row the engine stores for it.
    pub fn locate(&self, value: &Value) -> usize {
        let value = match *value {
            Value::Float(f) if f.fract() == 0.0 => Value::Int(f as i64),
            Value::Timestamp(t) => Value::Int(t),
            _ => value.clone(),
        };
        match self {
            PartitionScheme::Range { bounds, .. } => {
                let v = value.as_int().unwrap_or(i64::MAX);
                bounds.iter().position(|&b| v < b).unwrap_or(bounds.len())
            }
            PartitionScheme::Hash { partitions, .. } => {
                let mut h = replimid_sql::checksum::Fnv64::new();
                value.hash_into(&mut h);
                (h.finish() % *partitions as u64) as usize
            }
            PartitionScheme::List { lists, default_partition, .. } => lists
                .iter()
                .position(|l| l.contains(&value))
                .unwrap_or(*default_partition),
        }
    }
}

/// How one table's rows map to groups.
#[derive(Debug, Clone, PartialEq)]
struct TableMap {
    table: TableName,
    /// `None`: the whole table is one partition.
    scheme: Option<PartitionScheme>,
    /// Position of the scheme's column in the table's rows, its primary
    /// key: the index the certifier keys the table's writesets by. Set by
    /// [`Placement::bind_keys`].
    key: Option<usize>,
    /// `groups[p]`: the group partition `p` belongs to.
    groups: Vec<usize>,
}

/// Where a statement names the key of the one table it pins: the rows of
/// an `INSERT … VALUES`, or the filter of an UPDATE, DELETE or
/// single-table SELECT with the name the filter knows the table by.
enum KeySite<'a> {
    Rows { columns: &'a [String], rows: &'a [Vec<Expr>] },
    Filter { qualifier: &'a str, filter: Option<&'a Expr> },
}

/// The table a statement can pin to partitions, and where its keys are.
/// `None` when it has a subquery, which may read any partition of any
/// table it names, or when it is not a single-table statement.
fn key_site(stmt: &Statement) -> Option<(&ObjectName, KeySite<'_>)> {
    let mut nested = false;
    stmt.walk_exprs(&mut |e| {
        nested |= matches!(e, Expr::InSelect { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. })
    });
    if nested {
        return None;
    }
    match stmt {
        Statement::Insert { table, columns, source: InsertSource::Values(rows) } => {
            Some((table, KeySite::Rows { columns, rows }))
        }
        Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
            Some((table, KeySite::Filter { qualifier: &table.name, filter: filter.as_ref() }))
        }
        Statement::Select(s) => match &s.from {
            Some(TableRef::Table { name, alias }) => Some((
                name,
                KeySite::Filter { qualifier: alias.as_deref().unwrap_or(&name.name), filter: s.filter.as_ref() },
            )),
            _ => None,
        },
        _ => None,
    }
}

impl TableMap {
    /// The partitions `site` pins: one per VALUES row, or the one a
    /// top-level key equality of the filter names. `None` when any row or
    /// the filter leaves the key open: every partition.
    fn pinned(&self, scheme: &PartitionScheme, site: &KeySite<'_>) -> Option<Vec<usize>> {
        match site {
            KeySite::Rows { columns, rows } => {
                let at = if columns.is_empty() {
                    self.key?
                } else {
                    columns.iter().position(|c| c == scheme.column())?
                };
                rows.iter()
                    .map(|row| match row.get(at) {
                        Some(Expr::Literal(v)) => Some(scheme.locate(v)),
                        _ => None,
                    })
                    .collect()
            }
            KeySite::Filter { qualifier, filter } => {
                Some(vec![scheme.locate(filter.as_ref()?.top_level_eq(scheme.column(), qualifier)?)])
            }
        }
    }
}

/// Groups of unlisted tables: the first group.
const UNLISTED: &[usize] = &[0];

/// Placement for partial replication (Sutra–Shapiro): each group lives on a
/// declared subset of backends, and writes are ordered, certified and
/// applied only among the replicas that host the groups a transaction
/// touches. Tables not listed belong to group 0. A bare table name, in the
/// placement as in a statement, is a table of the cluster's default database.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `hosts[g]` = sorted backend indices hosting group `g`.
    hosts: Vec<Vec<usize>>,
    /// The database a bare name is in: the cluster's default database once
    /// [`bind`](Self::bind) has run, `""` before.
    database: String,
    tables: Vec<TableMap>,
}

impl Placement {
    /// One group per `hosts` entry; tables are mapped with
    /// [`assign`](Self::assign) and [`partition`](Self::partition). Host
    /// lists are deduplicated and sorted so fan-out order is deterministic.
    pub fn new(hosts: Vec<Vec<usize>>) -> Self {
        assert!(!hosts.is_empty(), "placement needs at least one group");
        let hosts = hosts
            .into_iter()
            .map(|mut h| {
                h.sort_unstable();
                h.dedup();
                assert!(!h.is_empty(), "every group needs at least one host");
                h
            })
            .collect();
        Placement { hosts, database: String::new(), tables: Vec::new() }
    }

    /// The canonical scale-out layout: `groups` groups over `backends`
    /// replicas, group `g` hosted by backends `{g % backends, ...}` spread
    /// round-robin with `replicas` copies each.
    pub fn striped(groups: usize, backends: usize, replicas: usize) -> Self {
        let replicas = replicas.clamp(1, backends.max(1));
        let hosts = (0..groups)
            .map(|g| (0..replicas).map(|r| (g + r) % backends).collect())
            .collect();
        Placement::new(hosts)
    }

    /// The whole of `table` is one partition, in `group`.
    pub fn assign(mut self, table: &str, group: usize) -> Self {
        assert!(group < self.hosts.len(), "group {group} out of range");
        self.tables.push(TableMap { table: self.qualified(table), scheme: None, key: None, groups: vec![group] });
        self
    }

    /// Partition `table` by `scheme`, which must name its primary key;
    /// partition `p` belongs to `groups[p]`.
    pub fn partition(mut self, table: &str, scheme: PartitionScheme, groups: Vec<usize>) -> Self {
        assert!(
            groups.len() == scheme.partition_count() && !groups.is_empty(),
            "{table}: {} partitions, {} groups",
            scheme.partition_count(),
            groups.len()
        );
        assert!(groups.iter().all(|&g| g < self.hosts.len()), "{table}: group out of range");
        self.tables.push(TableMap { table: self.qualified(table), scheme: Some(scheme), key: None, groups });
        self
    }

    /// Bind the placement to the cluster's schema: a bare name is a table of
    /// the default `database`, and `primary_key(table)` is a table's key
    /// column (position, name). A scheme on any other column is an error,
    /// since a row's partition is read off the key the certifier uses.
    pub(crate) fn bind<'a>(&mut self, database: &str, primary_key: impl Fn(&TableName) -> Option<(usize, &'a str)>) -> Result<(), String> {
        database.clone_into(&mut self.database);
        for m in &mut self.tables {
            if m.table.database().is_empty() {
                m.table = TableName::new(database, m.table.table());
            }
            let Some(scheme) = &m.scheme else { continue };
            match primary_key(&m.table) {
                Some((at, name)) if name == scheme.column() => m.key = Some(at),
                _ => {
                    return Err(format!(
                        "table {} is partitioned on {}, which is not its primary key",
                        m.table.table(),
                        scheme.column()
                    ))
                }
            }
        }
        Ok(())
    }

    /// The table a placement name means: `db.table`, or a bare name in
    /// the default database.
    fn qualified(&self, name: &str) -> TableName {
        let (database, table) = name.split_once('.').unwrap_or((&self.database, name));
        TableName::new(database, table)
    }

    pub fn groups(&self) -> usize {
        self.hosts.len()
    }

    pub fn hosts(&self, group: usize) -> &[usize] {
        &self.hosts[group]
    }

    /// Whether a statement's `name` is `m`'s table: a bare name is in the
    /// default database.
    fn names(&self, m: &TableMap, name: &ObjectName) -> bool {
        m.table.is(name.database.as_deref().unwrap_or(&self.database), &name.name)
    }

    /// The groups `table`'s partitions belong to, one per partition.
    pub fn table_groups(&self, table: &str) -> &[usize] {
        let table = self.qualified(table);
        self.tables.iter().find(|m| m.table == table).map_or(UNLISTED, |m| &m.groups)
    }

    /// The group one written row belongs to: its table's, or the one its
    /// partition maps to, located by the row's key (the before-image, as
    /// certification keys it).
    pub(crate) fn group_of_record(&self, rec: &WriteRecord) -> usize {
        let Some(m) = self.tables.iter().find(|m| m.table == rec.table) else { return 0 };
        let keyed = m.scheme.as_ref().zip(m.key).zip(rec.old.as_ref().or(rec.new.as_ref()));
        match keyed.and_then(|((scheme, at), image)| Some(scheme.locate(image.get(at)?))) {
            Some(p) => m.groups[p],
            None => m.groups[0],
        }
    }

    /// Sorted, deduplicated groups a statement touches, reads and writes. A
    /// partitioned table contributes the partitions its keys pin (named or
    /// positional `INSERT … VALUES` rows, a top-level key equality of an
    /// UPDATE, DELETE or single-table SELECT), and every partition when
    /// they pin none. A statement that names no table maps to group 0, so
    /// every transaction has at least one sequencer.
    pub(crate) fn groups_of(&self, stmt: &Statement) -> Vec<usize> {
        let mut tables = stmt.read_tables();
        tables.extend(stmt.written_tables());
        let mut site = None;
        let mut gs: Vec<usize> = Vec::new();
        for t in &tables {
            let Some(m) = self.tables.iter().find(|m| self.names(m, t)) else {
                gs.push(0);
                continue;
            };
            let Some(scheme) = &m.scheme else {
                gs.push(m.groups[0]);
                continue;
            };
            let site = site.get_or_insert_with(|| key_site(stmt));
            match site.as_ref().filter(|(name, _)| self.names(m, name)).and_then(|(_, s)| m.pinned(scheme, s)) {
                Some(parts) => gs.extend(parts.into_iter().map(|p| m.groups[p])),
                None => gs.extend(&m.groups),
            }
        }
        gs.sort_unstable();
        gs.dedup();
        if gs.is_empty() {
            gs.push(0);
        }
        gs
    }

    /// Sanity-check against the actual backend count: every host exists,
    /// and every partitioned table is bound to its key. A group may have a
    /// single host — its rejoin replays the group's recovery-log stream and
    /// needs no donor.
    pub fn validate(&self, backends: usize) -> Result<(), String> {
        for (g, hs) in self.hosts.iter().enumerate() {
            for &b in hs {
                if b >= backends {
                    return Err(format!(
                        "group {g} host {b} out of range (cluster has {backends} backends)"
                    ));
                }
            }
        }
        match self.tables.iter().find(|m| m.scheme.is_some() && m.key.is_none()) {
            Some(m) => Err(format!("partitioned table {} is not bound to its primary key", m.table.table())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_sql::parse_statement;

    /// `orders` in three range partitions, groups 1, 2 and 3; unlisted
    /// tables are group 0.
    fn range_placement() -> Placement {
        let mut p = Placement::new(vec![vec![0]; 4]).partition(
            "orders",
            PartitionScheme::Range { column: "id".into(), bounds: vec![100, 200] },
            vec![1, 2, 3],
        );
        p.bind("db", |t| (t.table() == "orders").then_some((0, "id"))).unwrap();
        p
    }

    #[test]
    fn range_locate() {
        let s = PartitionScheme::Range { column: "id".into(), bounds: vec![100, 200] };
        assert_eq!(s.partition_count(), 3);
        assert_eq!(s.locate(&Value::Int(5)), 0);
        assert_eq!(s.locate(&Value::Int(100)), 1);
        assert_eq!(s.locate(&Value::Int(500)), 2);
    }

    #[test]
    fn hash_is_stable_and_in_range() {
        let s = PartitionScheme::Hash { column: "id".into(), partitions: 4 };
        for i in 0..100 {
            let p = s.locate(&Value::Int(i));
            assert!(p < 4);
            assert_eq!(p, s.locate(&Value::Int(i)), "stable");
            assert_eq!(p, s.locate(&Value::Float(i as f64)), "a float key locates as its integer");
        }
    }

    #[test]
    fn list_locate_with_default() {
        let s = PartitionScheme::List {
            column: "region".into(),
            lists: vec![
                vec![Value::Text("eu".into())],
                vec![Value::Text("us".into())],
            ],
            default_partition: 1,
        };
        assert_eq!(s.locate(&Value::Text("eu".into())), 0);
        assert_eq!(s.locate(&Value::Text("jp".into())), 1);
    }

    #[test]
    fn placement_groups_and_hosts() {
        let p = Placement::new(vec![vec![0, 1], vec![2, 3], vec![1, 2]])
            .assign("a", 0)
            .assign("b", 1)
            .assign("c", 2);
        assert_eq!(p.groups(), 3);
        assert_eq!(p.table_groups("a"), [0]);
        assert_eq!(p.table_groups("unlisted"), [0], "unlisted tables are group 0");
        let groups = |sql: &str| p.groups_of(&parse_statement(sql).unwrap());
        assert_eq!(groups("SELECT b.v FROM b JOIN a ON a.k = b.k"), [0, 1]);
        assert_eq!(groups("INSERT INTO c VALUES (1, 1)"), [2]);
        assert_eq!(groups("SELECT 1"), [0], "no table: group 0");
        assert_eq!(p.hosts(1), [2, 3]);
        assert!(p.validate(4).is_ok());
        assert!(p.validate(3).is_err());
    }

    #[test]
    fn striped_placement_spreads_hosts() {
        let p = Placement::striped(4, 4, 2);
        assert_eq!(p.hosts(0), &[0, 1]);
        assert_eq!(p.hosts(3), &[0, 3]);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn sole_host_groups_validate() {
        // Group 1 has one replica: its rejoin replays the group's log
        // stream, so the layout is valid.
        assert!(Placement::new(vec![vec![0, 1], vec![2]]).validate(3).is_ok());
        assert!(Placement::new(vec![vec![0]]).validate(1).is_ok());
        // Hosts must exist.
        let err = Placement::new(vec![vec![0, 9]]).validate(3).unwrap_err();
        assert!(err.contains("out of range"), "unexpected error: {err}");
    }

    #[test]
    fn partitions_key_on_the_primary_key() {
        let scheme = PartitionScheme::Hash { column: "v".into(), partitions: 2 };
        let mut p = Placement::new(vec![vec![0], vec![1]]).partition("t", scheme, vec![0, 1]);
        let err = p.validate(2).unwrap_err();
        assert!(err.contains("not bound"), "unexpected error: {err}");
        let err = p.bind("d", |_| Some((0, "k"))).unwrap_err();
        assert!(err.contains("not its primary key"), "unexpected error: {err}");
        assert!(p.bind("d", |_| Some((1, "v"))).is_ok());
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn routes_by_statement_shape() {
        let p = range_placement();
        let groups = |sql: &str| p.groups_of(&parse_statement(sql).unwrap());
        assert_eq!(groups("INSERT INTO orders (id, v) VALUES (50, 1)"), [1]);
        assert_eq!(groups("INSERT INTO orders (v, id) VALUES (1, 150), (2, 199)"), [2]);
        assert_eq!(groups("INSERT INTO orders VALUES (250, 1)"), [3], "positional: the key's schema position");
        assert_eq!(groups("INSERT INTO orders (id, v) VALUES (50, 1), (150, 2)"), [1, 2], "one group per row");
        assert_eq!(groups("INSERT INTO orders (v) VALUES (1)"), [1, 2, 3], "no key");
        assert_eq!(groups("UPDATE orders SET v = 2 WHERE id = 250 AND v > 0"), [3]);
        assert_eq!(groups("UPDATE orders SET v = 2 WHERE v > 0"), [1, 2, 3]);
        assert_eq!(groups("SELECT * FROM orders WHERE id = 10"), [1]);
        assert_eq!(groups("SELECT COUNT(*) FROM orders"), [1, 2, 3]);
        assert_eq!(groups("INSERT INTO other (id) VALUES (1)"), [0], "unlisted table");
        assert_eq!(groups("DELETE FROM orders WHERE id = 100"), [2]);
        assert_eq!(groups("DELETE FROM orders WHERE 100 = id"), [2], "literal on the left");
        // A subquery may read any partition.
        assert_eq!(groups("DELETE FROM orders WHERE id = 5 AND v IN (SELECT v FROM orders WHERE id = 150)"), [1, 2, 3]);
        assert_eq!(groups("SELECT o.v FROM orders o JOIN other ON o.id = other.id WHERE o.id = 5"), [0, 1, 2, 3]);
    }

    #[test]
    fn key_equality_must_name_the_statements_own_table() {
        let p = range_placement();
        let groups = |sql: &str| p.groups_of(&parse_statement(sql).unwrap());
        assert_eq!(groups("SELECT * FROM orders WHERE orders.id = 150"), [2]);
        assert_eq!(groups("SELECT * FROM orders o WHERE o.id = 150"), [2]);
        // Another table's `id` says nothing about which partition of
        // `orders` holds the rows.
        assert_eq!(groups("SELECT * FROM orders WHERE other.id = 150"), [1, 2, 3]);
        assert_eq!(groups("SELECT * FROM orders o WHERE orders.id = 150"), [1, 2, 3]);
        assert_eq!(groups("UPDATE orders SET v = 1 WHERE other.id = 150"), [1, 2, 3]);
    }

    #[test]
    fn a_written_row_belongs_to_its_keys_partition() {
        let p = range_placement();
        let rec = |table: &str, old: Option<i64>, new: Option<i64>| WriteRecord {
            table: TableName::new("db", table),
            row: replimid_sql::mvcc::RowId(0),
            kind: replimid_sql::mvcc::WriteKind::Insert,
            old: old.map(|k| vec![Value::Int(k), Value::Int(0)]),
            new: new.map(|k| vec![Value::Int(k), Value::Int(1)]),
        };
        assert_eq!(p.group_of_record(&rec("orders", None, Some(150))), 2, "insert: the new image");
        assert_eq!(p.group_of_record(&rec("orders", Some(250), Some(250))), 3, "update: the before-image");
        assert_eq!(p.group_of_record(&rec("orders", Some(50), None)), 1, "delete");
        assert_eq!(p.group_of_record(&rec("other", None, Some(150))), 0, "unlisted table");
    }
}
