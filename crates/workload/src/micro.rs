//! Microbenchmarks: keyed updates with controllable contention, point
//! reads, and a parameterized read/write mix.

use replimid_det::DetRng;
use replimid_core::TxSource;

/// Schema for the microbenchmark table: `bench(k INT PRIMARY KEY, v INT)`
/// preloaded with `rows` rows.
pub fn schema(db: &str, rows: usize) -> Vec<String> {
    let mut out = vec![
        format!("CREATE DATABASE {db}"),
        format!("USE {db}"),
        "CREATE TABLE bench (k INT PRIMARY KEY, v INT NOT NULL)".to_string(),
    ];
    // Batch the preload in chunks to keep statements readable.
    for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk.iter().map(|k| format!("({k}, 0)")).collect();
        out.push(format!("INSERT INTO bench VALUES {}", values.join(", ")));
    }
    out
}

/// Schema for a fleet keyspace sharded over `bench_<t>` tables of at most
/// `keys_per_table` rows each (`sessions` keys total; the last table may be
/// short). The layout dates from when a point query cost a scan of its
/// table and fixed-size shards kept per-read cost constant as the fleet
/// grew; point reads now go through the primary-key index and cost the
/// same at any shard size. The repo benchmark's read-fleet workload still
/// builds its schema with this.
pub fn sharded_schema(db: &str, sessions: usize, keys_per_table: usize) -> Vec<String> {
    let kpt = keys_per_table.max(1);
    let mut out = vec![format!("CREATE DATABASE {db}"), format!("USE {db}")];
    let tables = sessions.div_ceil(kpt).max(1);
    for t in 0..tables {
        out.push(format!("CREATE TABLE bench_{t} (k INT PRIMARY KEY, v INT NOT NULL)"));
        let rows = (sessions - t * kpt).min(kpt);
        for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk.iter().map(|k| format!("({k}, 0)")).collect();
            out.push(format!("INSERT INTO bench_{t} VALUES {}", values.join(", ")));
        }
    }
    out
}

/// Schema for the partial-replication experiments: `groups` disjoint
/// tables `t0..t{groups-1}` (one per table group), each preloaded with
/// `rows` rows. With a placement assigning `t{g}` to group `g`, clients
/// pinned to one table generate traffic that never leaves that group's
/// host set.
pub fn disjoint_schema(db: &str, groups: usize, rows: usize) -> Vec<String> {
    let mut out = vec![format!("CREATE DATABASE {db}"), format!("USE {db}")];
    for g in 0..groups {
        out.push(format!("CREATE TABLE t{g} (k INT PRIMARY KEY, v INT)"));
        for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk.iter().map(|k| format!("({k}, 0)")).collect();
            out.push(format!("INSERT INTO t{g} VALUES {}", values.join(", ")));
        }
    }
    out
}

/// Fresh-key inserts pinned to one table group, with an optional fraction
/// of *paired-group* transactions that write the group's partner table
/// too (groups 2k and 2k+1 are partners): `BEGIN; INSERT t_{2k};
/// INSERT t_{2k+1}; COMMIT`. The single-group stream is the disjoint
/// write workload partial replication scales on; the paired stream is the
/// cross-group tax knob (every paired transaction needs a 2PC-style
/// commit across both groups' sequencers).
pub struct DisjointInsert {
    next: i64,
    pub group: usize,
    /// Fraction of transactions that touch the partner group as well.
    pub multi_fraction: f64,
}

impl DisjointInsert {
    pub fn new(base: i64, group: usize) -> Self {
        DisjointInsert { next: base, group, multi_fraction: 0.0 }
    }

    pub fn with_multi(mut self, fraction: f64) -> Self {
        self.multi_fraction = fraction;
        self
    }
}

impl TxSource for DisjointInsert {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        if self.multi_fraction > 0.0 && rng.gen::<f64>() < self.multi_fraction {
            let a = self.group & !1;
            let b = a + 1;
            vec![
                "BEGIN ISOLATION LEVEL SNAPSHOT".to_string(),
                format!("INSERT INTO t{a} VALUES ({k}, 1)"),
                format!("INSERT INTO t{b} VALUES ({k}, 1)"),
                "COMMIT".to_string(),
            ]
        } else {
            vec![format!("INSERT INTO t{} VALUES ({k}, 1)", self.group)]
        }
    }
}

/// Transactions updating `writes_per_tx` keys drawn from a hot set of
/// `hot_keys` out of `total_keys`: the smaller the hot set, the higher the
/// conflict rate — the knob for the consistency-spectrum experiment (E10).
pub struct KeyedUpdates {
    pub total_keys: i64,
    pub hot_keys: i64,
    /// Fraction of key draws taken from the hot set.
    pub hot_fraction: f64,
    pub writes_per_tx: usize,
    /// Wrap updates in BEGIN ISOLATION LEVEL <this> ... COMMIT when set.
    pub isolation: Option<&'static str>,
}

impl KeyedUpdates {
    pub fn uniform(total_keys: i64) -> Self {
        KeyedUpdates {
            total_keys,
            hot_keys: total_keys,
            hot_fraction: 0.0,
            writes_per_tx: 1,
            isolation: None,
        }
    }

    pub fn contended(total_keys: i64, hot_keys: i64, hot_fraction: f64) -> Self {
        KeyedUpdates { total_keys, hot_keys, hot_fraction, writes_per_tx: 2, isolation: Some("SNAPSHOT") }
    }

    fn draw_key(&self, rng: &mut DetRng) -> i64 {
        if self.hot_keys < self.total_keys && rng.gen::<f64>() < self.hot_fraction {
            rng.gen_range(0..self.hot_keys)
        } else {
            rng.gen_range(0..self.total_keys)
        }
    }
}

impl TxSource for KeyedUpdates {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let mut stmts = Vec::new();
        if let Some(level) = self.isolation {
            stmts.push(format!("BEGIN ISOLATION LEVEL {level}"));
        }
        for _ in 0..self.writes_per_tx.max(1) {
            let k = self.draw_key(rng);
            stmts.push(format!("UPDATE bench SET v = v + 1 WHERE k = {k}"));
        }
        if self.isolation.is_some() {
            stmts.push("COMMIT".to_string());
        }
        stmts
    }
}

/// Read-only point queries over the bench table.
pub struct PointReads {
    pub total_keys: i64,
}

impl TxSource for PointReads {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let k = rng.gen_range(0..self.total_keys);
        vec![format!("SELECT v FROM bench WHERE k = {k}")]
    }
}

/// A parameterized read/write mix: each transaction is a write with
/// probability `write_fraction`, else a point read. The scalability
/// experiments sweep `write_fraction` (E5).
pub struct ReadWriteMix {
    pub total_keys: i64,
    pub write_fraction: f64,
}

impl TxSource for ReadWriteMix {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String> {
        let k = rng.gen_range(0..self.total_keys);
        if rng.gen::<f64>() < self.write_fraction {
            vec![format!("UPDATE bench SET v = v + 1 WHERE k = {k}")]
        } else {
            vec![format!("SELECT v FROM bench WHERE k = {k}")]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_preloads_rows() {
        let s = schema("d", 250);
        assert!(s.iter().filter(|x| x.starts_with("INSERT")).count() == 3);
        assert!(s[2].contains("PRIMARY KEY"));
    }

    #[test]
    fn sharded_schema_splits_tables() {
        let s = sharded_schema("d", 2_500, 1_000);
        let creates: Vec<&String> =
            s.iter().filter(|x| x.starts_with("CREATE TABLE")).collect();
        assert_eq!(creates.len(), 3);
        assert!(creates[2].contains("bench_2"));
        // The short last shard holds the 500 leftover keys.
        let last_inserts =
            s.iter().filter(|x| x.starts_with("INSERT INTO bench_2")).count();
        assert_eq!(last_inserts, 5);
    }

    #[test]
    fn disjoint_insert_pairs_partner_groups() {
        let s = disjoint_schema("d", 4, 0);
        assert_eq!(s.iter().filter(|x| x.starts_with("CREATE TABLE")).count(), 4);
        let mut w = DisjointInsert::new(0, 3).with_multi(1.0);
        let mut rng = DetRng::seed_from_u64(3);
        let tx = w.next_tx(&mut rng);
        assert_eq!(tx.len(), 4);
        assert!(tx[1].contains("INTO t2") && tx[2].contains("INTO t3"), "{tx:?}");
        let mut single = DisjointInsert::new(5, 1);
        assert_eq!(single.next_tx(&mut rng), vec!["INSERT INTO t1 VALUES (5, 1)"]);
    }

    #[test]
    fn contended_updates_stay_in_key_space() {
        let mut w = KeyedUpdates::contended(1000, 10, 0.8);
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..50 {
            let tx = w.next_tx(&mut rng);
            assert_eq!(tx.len(), 4); // BEGIN, 2 updates, COMMIT
            assert!(tx[0].contains("SNAPSHOT"));
        }
    }

    #[test]
    fn mix_respects_fraction_roughly() {
        let mut w = ReadWriteMix { total_keys: 100, write_fraction: 0.3 };
        let mut rng = DetRng::seed_from_u64(2);
        let writes = (0..1000)
            .filter(|_| w.next_tx(&mut rng)[0].starts_with("UPDATE"))
            .count();
        assert!((250..350).contains(&writes), "writes {writes}");
    }
}
