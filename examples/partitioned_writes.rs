//! Data partitioning for write scalability (Fig. 2 of the paper): orders
//! are range-partitioned on their primary key into two groups. Backend 0
//! hosts the low range, backend 1 the high range, so keyed writes go only
//! to the owning partition, each through its group's own sequencer and
//! certifier. The `SELECT COUNT(*)` scan needs every partition in one
//! place, so backend 2 hosts both: it is the one backend such a read can
//! run on, and a copy of every write lands there too.
//!
//! Run with: `cargo run --example partitioned_writes`

use replimid_core::{Cluster, ClusterConfig, Mode, PartitionScheme, Placement, TxSource};
use replimid_simnet::dur;

struct OrderStream {
    next: i64,
}

impl TxSource for OrderStream {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let id = self.next;
        self.next += 1;
        if id % 10 == 0 {
            vec!["SELECT COUNT(*) FROM orders".to_string()] // scan: backend 2
        } else {
            vec![format!("INSERT INTO orders (id, total) VALUES ({id}, {})", id % 500)]
        }
    }
}

fn main() {
    let placement = Placement::new(vec![vec![0, 2], vec![1, 2]]).partition(
        "orders",
        PartitionScheme::Range { column: "id".into(), bounds: vec![5_000] },
        vec![0, 1],
    );
    let schema = vec![
        "CREATE DATABASE sales".to_string(),
        "USE sales".to_string(),
        "CREATE TABLE orders (id INT PRIMARY KEY, total INT NOT NULL)".to_string(),
    ];
    let mut cfg = ClusterConfig::new(Mode::MultiMasterWriteset, schema, "sales");
    cfg.backends_per_mw = 3;
    cfg.mw.placement = Some(placement);
    let mut cluster = Cluster::build(cfg);

    // Two writers, one per key range: their writes never contend.
    let c1 = cluster.add_client(OrderStream { next: 1 }, |cc| cc.think_time_us = 500);
    let c2 = cluster.add_client(OrderStream { next: 5_001 }, |cc| cc.think_time_us = 500);
    cluster.run_for(dur::secs(5));

    let m1 = cluster.client_metrics(c1);
    let m2 = cluster.client_metrics(c2);
    println!("low-range client committed  : {} (failed {})", m1.committed, m1.failed);
    println!("high-range client committed : {} (failed {})", m2.committed, m2.failed);

    for (b, label) in [
        (0usize, "backend 0, partition 0 (id < 5000) "),
        (1, "backend 1, partition 1 (id >= 5000)"),
        (2, "backend 2, both partitions         "),
    ] {
        let (rows, min, max) = cluster.with_backend_engine(0, b, |e| {
            let conn = e.connect("admin", "admin").unwrap();
            e.execute(conn, "USE sales").unwrap();
            let rows = e.execute(conn, "SELECT COUNT(*) FROM orders").unwrap();
            let n = rows.outcome.rows().unwrap().rows[0][0].as_int().unwrap();
            let r = e.execute(conn, "SELECT MIN(id), MAX(id) FROM orders").unwrap();
            let row = &r.outcome.rows().unwrap().rows[0];
            (n, row[0].as_int().unwrap_or(0), row[1].as_int().unwrap_or(0))
        });
        println!("{label}: {rows} rows, ids {min}..{max}");
    }
}
