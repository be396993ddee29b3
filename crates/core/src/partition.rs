//! Data partitioning for write scalability (Fig. 2): range, hash, and list
//! partitioning on a per-table key column, plus the statement analysis that
//! routes a statement to its partition(s).

use replimid_sql::ast::{Expr, InsertSource, Statement, TableRef};
use replimid_sql::Value;

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

    /// Which partition owns `value`?
    pub fn locate(&self, value: &Value) -> usize {
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
                .position(|l| l.contains(value))
                .unwrap_or(*default_partition),
        }
    }
}

/// The partition map of a cluster: table name -> scheme. Tables not listed
/// are *global* (replicated everywhere).
#[derive(Debug, Clone, Default)]
pub struct Partitioner {
    schemes: Vec<(String, PartitionScheme)>,
}

/// Where a statement must run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// One specific partition.
    Single(usize),
    /// Every partition (scatter; e.g. a scan without a key predicate, DDL,
    /// or a global table write).
    All,
}

impl Partitioner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_table(&mut self, table: &str, scheme: PartitionScheme) {
        self.schemes.push((table.to_string(), scheme));
    }

    pub fn scheme_for(&self, table: &str) -> Option<&PartitionScheme> {
        self.schemes
            .iter()
            .find(|(t, _)| t == table)
            .map(|(_, s)| s)
    }

    pub fn partition_count(&self) -> usize {
        self.schemes
            .iter()
            .map(|(_, s)| s.partition_count())
            .max()
            .unwrap_or(1)
    }

    /// Decide where `stmt` must execute. Conservative: anything without an
    /// extractable equality on the partition key goes everywhere.
    pub fn route(&self, stmt: &Statement) -> Route {
        match stmt {
            Statement::Insert { table, columns, source } => {
                let Some(scheme) = self.scheme_for(&table.name) else {
                    return Route::All;
                };
                let InsertSource::Values(rows) = source else { return Route::All };
                let mut target: Option<usize> = None;
                for row in rows {
                    let idx = if columns.is_empty() {
                        // Positional: the partition column's schema position
                        // is unknown here; require named columns.
                        return Route::All;
                    } else {
                        match columns.iter().position(|c| c == scheme.column()) {
                            Some(i) => i,
                            None => return Route::All,
                        }
                    };
                    let Some(Expr::Literal(v)) = row.get(idx) else { return Route::All };
                    let p = scheme.locate(v);
                    match target {
                        None => target = Some(p),
                        Some(t) if t == p => {}
                        _ => return Route::All, // multi-partition insert
                    }
                }
                target.map(Route::Single).unwrap_or(Route::All)
            }
            Statement::Update { table, filter, .. } | Statement::Delete { table, filter } => {
                self.route_by_key(&table.name, &table.name, filter.as_ref())
            }
            Statement::Select(s) => {
                // Single-table selects with a key equality route to one
                // partition; everything else scatters (intra-query
                // parallelism across partitions, §2.1).
                let mut tables = Vec::new();
                replimid_sql::ast::collect_select_tables(s, &mut tables);
                match (&s.from, tables.len()) {
                    (Some(TableRef::Table { name, alias }), 1) => self.route_by_key(
                        &name.name,
                        alias.as_deref().unwrap_or(&name.name),
                        s.filter.as_ref(),
                    ),
                    _ => Route::All,
                }
            }
            _ => Route::All,
        }
    }

    /// The partition owning the key a filter pins `table`'s partition
    /// column to; everywhere when it pins none. `qualifier` is the name the
    /// statement knows the table by (its alias, else its name).
    fn route_by_key(&self, table: &str, qualifier: &str, filter: Option<&Expr>) -> Route {
        self.scheme_for(table)
            .and_then(|scheme| {
                let key = filter?.top_level_eq(scheme.column(), qualifier)?;
                Some(Route::Single(scheme.locate(key)))
            })
            .unwrap_or(Route::All)
    }
}

/// Per-table-group placement for partial replication (Sutra–Shapiro): each
/// table belongs to exactly one *group*, each group lives on a declared
/// subset of backends, and writes are ordered/certified/applied only among
/// the replicas that host the groups a transaction touches. Tables not
/// listed fall into `default_group` (conservative: the unlisted-table
/// escape hatch, like [`Partitioner`]'s global tables).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `hosts[g]` = sorted backend indices hosting group `g`.
    hosts: Vec<Vec<usize>>,
    /// table name -> group index.
    tables: Vec<(String, usize)>,
    default_group: usize,
}

impl Placement {
    /// One group per `hosts` entry; tables are assigned with
    /// [`assign`](Self::assign). Host lists are deduplicated and sorted so
    /// fan-out order is deterministic.
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
        Placement { hosts, tables: Vec::new(), default_group: 0 }
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

    pub fn assign(mut self, table: &str, group: usize) -> Self {
        assert!(group < self.hosts.len(), "group {group} out of range");
        self.tables.push((table.to_string(), group));
        self
    }

    pub fn with_default_group(mut self, group: usize) -> Self {
        assert!(group < self.hosts.len(), "group {group} out of range");
        self.default_group = group;
        self
    }

    pub fn groups(&self) -> usize {
        self.hosts.len()
    }

    /// Group that unlisted tables (and empty writesets) fall into.
    pub fn default_group(&self) -> usize {
        self.default_group
    }

    pub fn group_of(&self, table: &str) -> usize {
        self.tables
            .iter()
            .find(|(t, _)| t == table)
            .map(|&(_, g)| g)
            .unwrap_or(self.default_group)
    }

    pub fn hosts(&self, group: usize) -> &[usize] {
        &self.hosts[group]
    }

    pub fn hosts_table(&self, backend: usize, table: &str) -> bool {
        self.hosts[self.group_of(table)].contains(&backend)
    }

    /// Sorted, deduplicated group set a list of table names touches. An
    /// empty table list (e.g. a writeset with no entries) maps to the
    /// default group so every transaction has at least one sequencer.
    pub fn groups_of_tables<'a>(&self, tables: impl Iterator<Item = &'a str>) -> Vec<usize> {
        let mut gs: Vec<usize> = tables.map(|t| self.group_of(t)).collect();
        gs.sort_unstable();
        gs.dedup();
        if gs.is_empty() {
            gs.push(self.default_group);
        }
        gs
    }

    /// Backends hosting *every* group in `groups` (intersection, sorted).
    pub fn hosts_of_all(&self, groups: &[usize]) -> Vec<usize> {
        let mut it = groups.iter();
        let Some(&first) = it.next() else { return Vec::new() };
        let mut acc: Vec<usize> = self.hosts[first].clone();
        for &g in it {
            acc.retain(|b| self.hosts[g].contains(b));
        }
        acc
    }

    /// Trivial placements — one group hosted by every backend — are full
    /// replication: the same pipeline with G = 1 that runs when no
    /// placement is configured.
    pub fn is_trivial(&self, backends: usize) -> bool {
        self.hosts.len() == 1 && self.hosts[0].len() == backends
    }

    /// Sanity-check against the actual backend count: every host exists. A
    /// group may have a single host — its rejoin replays the group's
    /// recovery-log stream and needs no donor.
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_sql::parse_statement;

    fn range_partitioner() -> Partitioner {
        let mut p = Partitioner::new();
        p.add_table(
            "orders",
            PartitionScheme::Range { column: "id".into(), bounds: vec![100, 200] },
        );
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
        assert_eq!(p.group_of("a"), 0);
        assert_eq!(p.group_of("unlisted"), 0, "default group");
        assert_eq!(p.groups_of_tables(["b", "a", "b"].into_iter()), vec![0, 1]);
        assert_eq!(p.groups_of_tables(std::iter::empty()), vec![0]);
        assert_eq!(p.hosts_of_all(&[0, 2]), vec![1]);
        assert_eq!(p.hosts_of_all(&[0, 1]), Vec::<usize>::new());
        assert!(p.hosts_table(3, "b") && !p.hosts_table(3, "a"));
        assert!(p.validate(4).is_ok());
        assert!(p.validate(3).is_err());
        assert!(!p.is_trivial(4));
        assert!(Placement::new(vec![vec![0, 1, 2]]).is_trivial(3));
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
    fn routes_by_statement_shape() {
        let p = range_partitioner();
        let route = |sql: &str| p.route(&parse_statement(sql).unwrap());
        assert_eq!(route("INSERT INTO orders (id, v) VALUES (50, 1)"), Route::Single(0));
        assert_eq!(route("INSERT INTO orders (id, v) VALUES (150, 1), (199, 2)"), Route::Single(1));
        assert_eq!(route("INSERT INTO orders (id, v) VALUES (50, 1), (150, 2)"), Route::All);
        assert_eq!(route("UPDATE orders SET v = 2 WHERE id = 250 AND v > 0"), Route::Single(2));
        assert_eq!(route("UPDATE orders SET v = 2 WHERE v > 0"), Route::All);
        assert_eq!(route("SELECT * FROM orders WHERE id = 10"), Route::Single(0));
        assert_eq!(route("SELECT COUNT(*) FROM orders"), Route::All);
        assert_eq!(route("INSERT INTO other (id) VALUES (1)"), Route::All, "global table");
        assert_eq!(route("DELETE FROM orders WHERE id = 100"), Route::Single(1));
        assert_eq!(route("DELETE FROM orders WHERE 100 = id"), Route::Single(1), "literal on the left");
    }

    #[test]
    fn key_equality_must_name_the_statements_own_table() {
        let p = range_partitioner();
        let route = |sql: &str| p.route(&parse_statement(sql).unwrap());
        assert_eq!(route("SELECT * FROM orders WHERE orders.id = 150"), Route::Single(1));
        assert_eq!(route("SELECT * FROM orders o WHERE o.id = 150"), Route::Single(1));
        // Another table's `id` says nothing about which partition of
        // `orders` holds the rows.
        assert_eq!(route("SELECT * FROM orders WHERE other.id = 150"), Route::All);
        assert_eq!(route("SELECT * FROM orders o WHERE orders.id = 150"), Route::All);
        assert_eq!(route("UPDATE orders SET v = 1 WHERE other.id = 150"), Route::All);
    }
}
