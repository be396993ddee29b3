//! Shared harness helpers for the experiment binary and its tests: cluster
//! builders, workload shorthands, table printing. Every experiment runs on
//! the deterministic simulator, so regenerated numbers are reproducible
//! bit-for-bit from the seed.

use replimid_core::{ClientMetrics, Cluster, ClusterConfig, Mode, NondetPolicy, Placement, TxSource};
use replimid_simnet::dur;
use replimid_workload::micro;

/// A fresh-key insert stream (never self-collides); used widely by the
/// experiments as the canonical write-heavy client.
pub struct SeqInsert {
    next: i64,
    pub table: &'static str,
}

impl SeqInsert {
    pub fn new(base: i64) -> Self {
        SeqInsert { next: base, table: "bench" }
    }
}

impl TxSource for SeqInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO {} VALUES ({k}, 1)", self.table)]
    }
}

/// Default micro schema + statement-mode cluster config.
pub fn mm_statement_cfg(rows: usize) -> ClusterConfig {
    ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        micro::schema("bench", rows),
        "bench",
    )
}

/// Think time for the saturated fleet arms (E19 part (c)): the
/// whole fleet offers the demand five backends could serve if point reads
/// were all they did, whatever its size. That is past what seven slaves
/// deliver (each also replays every write), so the cell is capacity-
/// limited and added slaves show up as throughput. The per-read cost is
/// measured, not assumed: the fleet's own read statement is run on a
/// scratch engine holding one `keys_per_table` shard, as a backend runs
/// it (a parsed plan).
pub fn saturating_fleet_think_us(sessions: usize, keys_per_table: usize) -> u64 {
    let schema = micro::sharded_schema("bench", keys_per_table, keys_per_table);
    let mut engine = replimid_core::cluster::build_engine(Default::default(), &schema);
    let conn = engine
        .connect(replimid_sql::ADMIN_USER, replimid_sql::ADMIN_PASSWORD)
        .expect("admin login");
    let stmt = replimid_sql::parse_statement("SELECT v FROM bench.bench_0 WHERE k = 0")
        .expect("fleet point read parses");
    let read = engine.execute_prepared(conn, &stmt).expect("fleet point read");
    sessions as u64 * read.cost.cpu_us / 5
}

/// A fresh-key insert stream sharded round-robin over `t0..t7`; the E18
/// write workload. Disjoint tables give the grouped batch apply
/// at the backends parallelism to exploit.
pub struct ShardedInsert {
    next: i64,
}

impl ShardedInsert {
    pub fn new(base: i64) -> Self {
        ShardedInsert { next: base }
    }
}

impl TxSource for ShardedInsert {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k % 8)]
    }
}

/// Statement-mode cluster over 8 disjoint single-row tables with the
/// group-commit knobs set as given; `batch_max = 1` disables batching and
/// takes the exact pre-batching code path. Round-robin routing so the
/// numbers are not shaped by latency-aware placement.
pub fn group_commit_cfg(batch_max: usize, deadline_us: u64) -> ClusterConfig {
    let mut schema = vec!["CREATE DATABASE bench".to_string(), "USE bench".to_string()];
    for i in 0..8 {
        schema.push(format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)"));
    }
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema,
        "bench",
    );
    cfg.mw.policy = replimid_core::Policy::RoundRobin;
    cfg.mw.batch_max = batch_max;
    cfg.mw.batch_deadline_us = deadline_us;
    cfg
}

/// Striped placement with the table map filled in: `tables` disjoint
/// tables `t0..`, table `t{g}` in group `g`, group `g` hosted by
/// `replicas` backends starting at `g % backends` (round-robin).
pub fn striped_placement(tables: usize, backends: usize, replicas: usize) -> Placement {
    let mut p = Placement::striped(tables, backends, replicas);
    if replicas < 2 {
        // The scaling ladders deliberately measure the 1-replica extreme;
        // production layouts should keep the sole-host rejection on.
        p = p.allow_sole_host();
    }
    for g in 0..tables {
        p = p.assign(&format!("t{g}"), g);
    }
    p
}

/// Writeset-mode cluster over `tables` disjoint single-row tables with an
/// optional table-group placement. `None` is full replication: the
/// one-group placement hosted by every backend. Round-robin routing so
/// scaling numbers are not shaped by latency-aware placement.
pub fn partial_ws_cfg(tables: usize, backends: usize, placement: Option<Placement>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterWriteset,
        micro::disjoint_schema("bench", tables, 0),
        "bench",
    );
    cfg.backends_per_mw = backends;
    cfg.mw.policy = replimid_core::Policy::RoundRobin;
    cfg.mw.placement = placement;
    cfg
}

/// Aggregate committed/aborted/latency across a set of clients.
pub struct Agg {
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub mean_tx_us: f64,
    pub p99_tx_us: u64,
    pub mean_stmt_us: f64,
}

pub fn aggregate(cluster: &mut Cluster, clients: &[replimid_simnet::NodeId]) -> Agg {
    let mut committed = 0;
    let mut aborted = 0;
    let mut failed = 0;
    let mut tx_hist = replimid_core::Histogram::new();
    let mut stmt_hist = replimid_core::Histogram::new();
    for &c in clients {
        let m: ClientMetrics = cluster.client_metrics(c);
        committed += m.committed;
        aborted += m.aborted;
        failed += m.failed;
        tx_hist.merge(&m.tx_latency);
        stmt_hist.merge(&m.stmt_latency);
    }
    Agg {
        committed,
        aborted,
        failed,
        mean_tx_us: tx_hist.mean_us(),
        p99_tx_us: tx_hist.quantile_us(0.99),
        mean_stmt_us: stmt_hist.mean_us(),
    }
}

/// Throughput in committed transactions per virtual second.
pub fn tps(committed: u64, seconds: u64) -> f64 {
    committed as f64 / seconds as f64
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:<w$}"))
            .collect();
        println!("  {}", line.join("  "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("  {}", sep.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("  {}", line.join("  "));
        }
        println!();
    }
}

/// Run a cluster for `secs` measured virtual seconds, then drain for one
/// more: the clients finish the transactions they have in flight and start
/// none, so what they count is what started inside the measured window and
/// `tps(count, secs)` divides by the time it took.
pub fn run_and_drain(cluster: &mut Cluster, secs: u64) {
    cluster.run_for(dur::secs(secs));
    cluster.stop_clients();
    cluster.run_for(dur::secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["a", "longer"]);
        t.row(&["1".into(), "2".into()]);
        t.print(); // smoke: no panic
        assert_eq!(tps(100, 4), 25.0);
    }
}
