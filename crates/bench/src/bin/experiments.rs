//! The experiment harness: regenerates every experiment in DESIGN.md's
//! per-experiment index (E1..E19). The paper itself is an experience paper
//! with no measurement figures — these experiments realize the scenarios of
//! its Figures 1-4 and the evaluation agenda of §5.1 (fault injection,
//! MTTF/MTTR, behaviour at low load, management-operation cost).
//!
//! Usage:
//!   cargo run -p replimid-bench --bin experiments --release            # all
//!   cargo run -p replimid-bench --bin experiments --release -- E3 E9  # some

use replimid_bench::{
    aggregate, group_commit_cfg, mm_statement_cfg, partial_ws_cfg, run_and_drain, striped_placement,
    tps, SeqInsert, ShardedInsert, Table,
};
use replimid_core::{
    AdminCmd, BackendId, Cluster, ClusterConfig, FleetMetrics, HealthEvent, Mode, MwMetrics,
    NondetPolicy, PartitionScheme, Partitioner, Placement, Policy, QuarantineConfig, ReadPolicy,
    ReplayMode, ScriptSource, Stage, TraceSink,
};
use replimid_gcs::{
    Action, AdaptiveConfig, GcsConfig, GroupMember, HeartbeatConfig, MemberId, OrderProtocol,
};
use replimid_simnet::{dur, LinkFault, LinkSpec, NetworkModel, NodeId, SimTime};
use replimid_sql::{CrashKind, DurabilityConfig};
use replimid_workload::{micro, FaultSchedule, GrayFaultSchedule, GrayKind, GraySpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
        "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23",
    ];
    let selected: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        all.iter().copied().filter(|e| args.iter().any(|a| a.eq_ignore_ascii_case(e))).collect()
    };
    for e in selected {
        match e {
            "E1" => e1_read_scaleout(),
            "E2" => e2_partitioned_writes(),
            "E3" => e3_hot_standby(),
            "E4" => e4_wan(),
            "E5" => e5_multimaster_saturation(),
            "E6" => e6_statement_vs_writeset(),
            "E7" => e7_load_balancing(),
            "E8" => e8_low_load_overhead(),
            "E9" => e9_recovery(),
            "E10" => e10_consistency_spectrum(),
            "E11" => e11_failure_detection(),
            "E12" => e12_availability_campaign(),
            "E13" => e13_backup(),
            "E14" => e14_group_communication(),
            "E15" => e15_slave_lag(),
            "E16" => e16_gray_failure_campaign(),
            "E17" => e17_latency_attribution(),
            "E18" => e18_group_commit(),
            "E19" => e19_freshness_routing(),
            "E20" => e20_durability(),
            "E21" => e21_plan_cache(),
            "E22" => e22_partial_replication(),
            "E23" => e23_elasticity(),
            _ => unreachable!(),
        }
    }
}

fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

// ---------------------------------------------------------------------
// E1 — Fig. 1: master-slave read scale-out (ticket-broker 95/5 mix)
// ---------------------------------------------------------------------

fn e1_read_scaleout() {
    banner("E1", "master-slave read scale-out, 95/5 broker mix (Fig. 1)");
    let mut t = Table::new(&["slaves", "clients", "read tps", "write tps", "total tps"]);
    for slaves in [1usize, 2, 4, 6] {
        let mut cfg = ClusterConfig::new(
            Mode::MasterSlave {
                two_safe: false,
                ship_interval_us: 20_000,
                use_writesets: false,
                parallel_apply: false,
                read_master: false,
            },
            replimid_workload::broker::schema("bench", 200),
            "bench",
        );
        cfg.backends_per_mw = slaves + 1;
        let mut cluster = Cluster::build(cfg);
        // Scaled load, as the papers the authors criticize do: clients grow
        // with the replica count so the cluster runs near capacity.
        let clients: Vec<NodeId> = (0..slaves * 8)
            .map(|i| {
                cluster.add_client(
                    replimid_workload::Broker::new(200, 0.05, i as u64 + 1),
                    |cc| cc.think_time_us = 300,
                )
            })
            .collect();
        let secs = 5;
        run_and_drain(&mut cluster, secs);
        let agg = aggregate(&mut cluster, &clients);
        let mw = cluster.mw_metrics(0);
        let reads = mw.counters.reads;
        let writes = mw.counters.writes;
        t.row(&[
            slaves.to_string(),
            clients.len().to_string(),
            format!("{:.0}", tps(reads, secs)),
            format!("{:.0}", tps(writes, secs)),
            format!("{:.0}", tps(agg.committed, secs)),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E2 — Fig. 2: partitioning for write scalability
// ---------------------------------------------------------------------

fn e2_partitioned_writes() {
    banner("E2", "hash partitioning for write throughput (Fig. 2)");
    let mut t = Table::new(&["partitions", "write tps", "speedup"]);
    let mut base_tps = 0.0;
    for parts in [1usize, 2, 4, 8] {
        let mut partitioner = Partitioner::new();
        partitioner.add_table(
            "bench",
            PartitionScheme::Hash { column: "k".into(), partitions: parts },
        );
        let groups: Vec<Vec<BackendId>> = (0..parts).map(|p| vec![BackendId(p)]).collect();
        let schema = vec![
            "CREATE DATABASE bench".to_string(),
            "USE bench".to_string(),
            "CREATE TABLE bench (k INT PRIMARY KEY, v INT NOT NULL)".to_string(),
        ];
        let mut cfg = ClusterConfig::new(
            Mode::PartitionedStatement { partitioner, groups },
            schema,
            "bench",
        );
        cfg.backends_per_mw = parts;
        let mut cluster = Cluster::build(cfg);
        let clients: Vec<NodeId> = (0..parts * 6)
            .map(|i| {
                cluster.add_client(SeqInsert::new(1_000_000 * (i as i64 + 1)), |cc| {
                    cc.think_time_us = 100
                })
            })
            .collect();
        let secs = 4;
        run_and_drain(&mut cluster, secs);
        let agg = aggregate(&mut cluster, &clients);
        let this_tps = tps(agg.committed, secs);
        if parts == 1 {
            base_tps = this_tps;
        }
        t.row(&[
            parts.to_string(),
            format!("{this_tps:.0}"),
            format!("{:.2}x", this_tps / base_tps),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E3 — Fig. 3: hot standby failover; 1-safe vs 2-safe
// ---------------------------------------------------------------------

fn e3_hot_standby() {
    banner("E3", "hot standby failover: 1-safe vs 2-safe (Fig. 3, §2.2)");
    let mut t = Table::new(&[
        "safety", "commit p50 us", "commit p99 us", "failover ms", "lost txns", "MTTR ms",
        "availability",
    ]);
    for two_safe in [false, true] {
        let mut cfg = ClusterConfig::new(
            Mode::MasterSlave {
                two_safe,
                ship_interval_us: 20_000,
                use_writesets: false,
                parallel_apply: false,
                read_master: true,
            },
            micro::schema("bench", 100),
            "bench",
        );
        cfg.backends_per_mw = 2;
        let mut cluster = Cluster::build(cfg);
        let c = cluster.add_client(SeqInsert::new(1_000), |cc| {
            cc.think_time_us = 1_000;
            cc.request_timeout_us = 400_000;
            cc.tx_limit = 5_000;
        });
        let crash_at = SimTime::from_secs(3);
        cluster.crash_backend_at(crash_at, 0, 0);
        run_and_drain(&mut cluster, 8);
        let m = cluster.client_metrics(c);
        let mw = cluster.mw_metrics(0);
        let failover_ms = mw
            .failover_times
            .first()
            .map(|&t| (t.saturating_sub(crash_at.micros())) as f64 / 1_000.0)
            .unwrap_or(0.0);
        t.row(&[
            if two_safe { "2-safe" } else { "1-safe" }.to_string(),
            m.stmt_latency.quantile_us(0.5).to_string(),
            m.stmt_latency.quantile_us(0.99).to_string(),
            format!("{failover_ms:.0}"),
            mw.counters.lost_transactions.to_string(),
            format!("{:.0}", mw.availability.mttr_us() / 1_000.0),
            format!("{:.5}", mw.availability.availability()),
        ]);
    }
    t.print();
    println!("  (2-safe: zero loss, higher commit latency — the §2.2 tradeoff)\n");
}

// ---------------------------------------------------------------------
// E4 — Fig. 4: WAN replication
// ---------------------------------------------------------------------

fn wan_overrides(cluster: &mut Cluster, sites: usize, backends_per_site: usize) {
    // Node layout: db nodes grouped per middleware, then middlewares, then
    // clients. Site i owns db group i, middleware i, client i.
    let total_db = sites * backends_per_site;
    let site_of = move |n: NodeId| -> usize {
        if n.0 < total_db {
            n.0 / backends_per_site
        } else if n.0 < total_db + sites {
            n.0 - total_db
        } else {
            (n.0 - total_db - sites) % sites
        }
    };
    let all: Vec<NodeId> = (0..cluster.sim.node_count()).map(NodeId).collect();
    for &a in &all {
        for &b in &all {
            if a != b && site_of(a) != site_of(b) {
                cluster.sim.net.set_link(a, b, LinkSpec::wan());
            }
        }
    }
}

fn e4_wan() {
    banner("E4", "WAN multi-site replication (Fig. 4, §4.3.4.1)");
    let schema = vec![
        "CREATE DATABASE bench".to_string(),
        "USE bench".to_string(),
        "CREATE TABLE bench (k INT PRIMARY KEY, v INT NOT NULL)".to_string(),
    ];
    let mut t = Table::new(&["configuration", "write p50 us", "write p99 us", "tps"]);

    // (a) Synchronous multi-master over LAN vs WAN: total order pays the
    // intercontinental RTT on every write.
    for wan in [false, true] {
        let mut cfg = ClusterConfig::new(
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            schema.clone(),
            "bench",
        );
        cfg.middlewares = 3;
        cfg.backends_per_mw = 1;
        let mut cluster = Cluster::build(cfg);
        if wan {
            wan_overrides(&mut cluster, 3, 1);
        }
        let clients: Vec<NodeId> = (0..3)
            .map(|i| {
                cluster.add_client(SeqInsert::new(10_000_000 * (i + 1)), |cc| {
                    cc.think_time_us = 2_000;
                    cc.tx_limit = 400;
                })
            })
            .collect();
        let secs = 20;
        run_and_drain(&mut cluster, secs);
        let agg = aggregate(&mut cluster, &clients);
        t.row(&[
            format!("sync multi-master, {}", if wan { "WAN" } else { "LAN" }),
            format!("{:.0}", agg.mean_stmt_us),
            agg.p99_tx_us.to_string(),
            format!("{:.0}", tps(agg.committed, secs)),
        ]);
    }

    // (b) Geo-local master with asynchronous WAN slaves (the practical
    // deployment the paper says everyone converges on): local-latency
    // commits; remote copies trail by the shipping interval + WAN hop.
    {
        let mut cfg = ClusterConfig::new(
            Mode::MasterSlave {
                two_safe: false,
                ship_interval_us: 50_000,
                use_writesets: false,
                parallel_apply: false,
                read_master: true,
            },
            schema.clone(),
            "bench",
        );
        cfg.backends_per_mw = 3; // master local, 2 slaves "overseas"
        let mut cluster = Cluster::build(cfg);
        // Slaves (db nodes 1, 2) are across the WAN from everything else.
        let all: Vec<NodeId> = (0..cluster.sim.node_count()).map(NodeId).collect();
        for &a in &all {
            for &b in &all {
                let remote =
                    |n: NodeId| n.0 == 1 || n.0 == 2;
                if a != b && remote(a) != remote(b) {
                    cluster.sim.net.set_link(a, b, LinkSpec::wan());
                }
            }
        }
        let c = cluster.add_client(SeqInsert::new(50_000_000), |cc| {
            cc.think_time_us = 2_000;
            cc.tx_limit = 2_000;
        });
        let secs = 8;
        run_and_drain(&mut cluster, secs);
        let agg = aggregate(&mut cluster, &[c]);
        t.row(&[
            "async geo master-slave (1-safe)".to_string(),
            format!("{:.0}", agg.mean_stmt_us),
            agg.p99_tx_us.to_string(),
            format!("{:.0}", tps(agg.committed, secs)),
        ]);
        let mw = cluster.mw_metrics(0);
        let max_lag = mw.lag_samples.iter().map(|&(_, l)| l).max().unwrap_or(0);
        println!("  async mode peak staleness: {max_lag} unshipped commits (bounded loss window)");
    }
    t.print();
}

// ---------------------------------------------------------------------
// E5 — multi-master update saturation (Gray's warning)
// ---------------------------------------------------------------------

fn e5_multimaster_saturation() {
    banner("E5", "multi-master scaling flattens with write fraction (§2.1, Gray [18])");
    let mut t = Table::new(&["replicas", "5% writes tps", "20% writes tps", "50% writes tps", "100% writes tps"]);
    for replicas in [1usize, 2, 4, 6] {
        let mut cells = vec![replicas.to_string()];
        for wf in [0.05, 0.2, 0.5, 1.0] {
            let mut cfg = mm_statement_cfg(500);
            cfg.backends_per_mw = replicas;
            let mut cluster = Cluster::build(cfg);
            let clients: Vec<NodeId> = (0..replicas * 32)
                .map(|_| {
                    cluster.add_client(
                        micro::ReadWriteMix { total_keys: 500, write_fraction: wf },
                        |cc| cc.think_time_us = 150,
                    )
                })
                .collect();
            let secs = 4;
            run_and_drain(&mut cluster, secs);
            let agg = aggregate(&mut cluster, &clients);
            cells.push(format!("{:.0}", tps(agg.committed, secs)));
        }
        t.row(&cells);
    }
    t.print();
    println!("  (read-heavy mixes scale with replicas; at 100% writes every replica\n   applies every update and adding replicas stops helping)\n");
}

// ---------------------------------------------------------------------
// E6 — statement vs writeset replication
// ---------------------------------------------------------------------

fn e6_statement_vs_writeset() {
    banner("E6", "statement vs writeset replication (§4.3.2)");

    // (a) Non-determinism: naive statement broadcast diverges; rewriting
    // fixes time macros; writeset replication is immune.
    let mut t = Table::new(&["mode", "policy", "now() safe", "rand()-per-row safe"]);
    let diverged = |cluster: &mut Cluster| {
        let sums = cluster.backend_checksums();
        let flat: Vec<u64> = sums.iter().flatten().copied().collect();
        flat.windows(2).any(|w| w[0] != w[1])
    };
    for (label, mode) in [
        ("statement", Mode::MultiMasterStatement { nondet: NondetPolicy::Ignore }),
        ("statement", Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteBestEffort }),
        ("writeset", Mode::MultiMasterWriteset),
    ] {
        let policy = match &mode {
            Mode::MultiMasterStatement { nondet } => format!("{nondet:?}"),
            _ => "n/a (row images)".to_string(),
        };
        let mut results = Vec::new();
        for sql in [
            "UPDATE bench SET v = now() WHERE k < 50",
            "UPDATE bench SET v = floor(rand() * 1000)",
        ] {
            let mut schema = micro::schema("bench", 100);
            // now() writes a TIMESTAMP into an INT column; give v a wide type.
            schema[2] = "CREATE TABLE bench (k INT PRIMARY KEY, v INT)".to_string();
            let cfg = ClusterConfig::new(mode.clone(), schema, "bench");
            let mut cluster = Cluster::build(cfg);
            let src = ScriptSource::new(vec![vec![sql.to_string()]]);
            let c = cluster.add_client(src, |cc| {
                cc.tx_limit = 5;
                cc.think_time_us = 3_000;
            });
            run_and_drain(&mut cluster, 2);
            let _ = cluster.client_metrics(c);
            results.push(if diverged(&mut cluster) { "DIVERGED" } else { "ok" });
        }
        t.row(&[label.to_string(), policy, results[0].to_string(), results[1].to_string()]);
    }
    t.print();

    // (b) Throughput crossover: a one-row update ships cheaply as a
    // statement or a writeset; a fat range update is one short statement
    // but a large writeset.
    let mut t = Table::new(&["workload", "statement tps", "writeset tps"]);
    for (label, sql) in [
        ("1-row update", "UPDATE bench SET v = v + 1 WHERE k = 7".to_string()),
        ("500-row update", "UPDATE bench SET v = v + 1 WHERE k >= 0".to_string()),
    ] {
        let mut cells = vec![label.to_string()];
        for mode in [
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            Mode::MultiMasterWriteset,
        ] {
            let cfg = ClusterConfig::new(mode, micro::schema("bench", 500), "bench");
            let mut cluster = Cluster::build(cfg);
            let src = ScriptSource::new(vec![vec![sql.clone()]]);
            let c = cluster.add_client(src, |cc| cc.think_time_us = 200);
            let secs = 4;
            run_and_drain(&mut cluster, secs);
            let m = cluster.client_metrics(c);
            cells.push(format!("{:.0}", tps(m.committed, secs)));
        }
        t.row(&cells);
    }
    t.print();
}

// ---------------------------------------------------------------------
// E7 — load balancing policies on a heterogeneous cluster
// ---------------------------------------------------------------------

fn e7_load_balancing() {
    banner("E7", "load balancing: granularity x policy, one 4x-slow replica (§3.2, §4.1.3)");
    let mut t = Table::new(&["granularity", "policy", "read tps", "p99 us"]);
    use replimid_core::Granularity;
    for (glabel, gran) in [
        ("connection", Granularity::Connection),
        ("transaction", Granularity::Transaction),
        ("query", Granularity::Query),
    ] {
        for (plabel, policy) in [
            ("round-robin", Policy::RoundRobin),
            ("LPRF", Policy::Lprf),
            ("weighted 4:4:1", Policy::Weighted(vec![4, 4, 1])),
        ] {
            let mut cfg = mm_statement_cfg(300);
            cfg.backends_per_mw = 3;
            cfg.backend_speed = vec![1.0, 1.0, 4.0];
            cfg.mw.granularity = gran;
            cfg.mw.policy = policy;
            let mut cluster = Cluster::build(cfg);
            let clients: Vec<NodeId> = (0..40)
                .map(|_| {
                    cluster.add_client(micro::PointReads { total_keys: 300 }, |cc| {
                        cc.think_time_us = 200
                    })
                })
                .collect();
            let secs = 4;
            run_and_drain(&mut cluster, secs);
            let agg = aggregate(&mut cluster, &clients);
            t.row(&[
                glabel.to_string(),
                plabel.to_string(),
                format!("{:.0}", tps(agg.committed, secs)),
                agg.p99_tx_us.to_string(),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// E8 — latency overhead at low load (§4.4.5)
// ---------------------------------------------------------------------

fn e8_low_load_overhead() {
    banner("E8", "replication overhead at low load; sequential batch jobs (§4.4.5)");
    let mut t = Table::new(&["configuration", "write p50 us", "batch of 2000 (ms)"]);
    // Modeled direct access: one LAN round trip + statement cost, no
    // middleware hop. (What the customer had before buying replication.)
    let direct_p50 = 2.0 * 125.0 + 60.0;
    let batch_n = 2_000u64;
    t.row(&[
        "direct to single DB (modeled)".to_string(),
        format!("{direct_p50:.0}"),
        format!("{:.0}", batch_n as f64 * (direct_p50 + 1.0) / 1_000.0),
    ]);
    for (label, mode, backends) in [
        (
            "middleware, 1 replica",
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            1usize,
        ),
        (
            "statement repl, 3 replicas",
            Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
            3,
        ),
        ("writeset repl, 3 replicas", Mode::MultiMasterWriteset, 3),
    ] {
        let mut cfg = ClusterConfig::new(mode, micro::schema("bench", batch_n as usize), "bench");
        cfg.backends_per_mw = backends;
        let mut cluster = Cluster::build(cfg);
        // One single-threaded batch client: pure latency exposure.
        let c = cluster.add_client(replimid_workload::BatchUpdate::new(batch_n as i64), |cc| {
            cc.think_time_us = 1;
            cc.tx_limit = batch_n;
        });
        let start = cluster.now();
        cluster.run_for(dur::secs(60));
        let m = cluster.client_metrics(c);
        // Time to finish the batch: last commit second observed.
        let done_at = m
            .commits_per_sec
            .keys()
            .next_back()
            .map(|&s| (s + 1) * 1_000_000)
            .unwrap_or(start.micros());
        let batch_ms = m.tx_latency.mean_us() * m.committed as f64 / 1_000.0;
        let _ = done_at;
        t.row(&[
            label.to_string(),
            m.stmt_latency.quantile_us(0.5).to_string(),
            format!("{batch_ms:.0}"),
        ]);
    }
    t.print();
    println!("  (sub-millisecond statements pay the largest *relative* latency tax;\n   a strictly sequential batch multiplies it by its length)\n");
}

// ---------------------------------------------------------------------
// E9 — replica rejoin: serial vs parallel replay; catch-up under load
// ---------------------------------------------------------------------

fn e9_recovery() {
    banner("E9", "rejoin via recovery log: outage length x replay mode (§4.4.2)");
    let mut t = Table::new(&["outage ms", "replay", "log entries", "rejoin ms"]);
    for outage_ms in [500u64, 1_500, 3_000] {
        for (rlabel, rmode) in [("serial", ReplayMode::Serial), ("parallel", ReplayMode::Parallel)] {
            let mut schema = vec![
                "CREATE DATABASE bench".to_string(),
                "USE bench".to_string(),
            ];
            // 4 disjoint tables give parallel replay room to win.
            for i in 0..4 {
                schema.push(format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)"));
            }
            let mut cfg = ClusterConfig::new(
                Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
                schema,
                "bench",
            );
            cfg.mw.replay_mode = rmode;
            cfg.mw.recovery_batch = 256;
            let mut cluster = Cluster::build(cfg);
            struct MultiTable {
                next: i64,
            }
            impl replimid_core::TxSource for MultiTable {
                fn next_tx(&mut self, _r: &mut replimid_det::DetRng) -> Vec<String> {
                    let k = self.next;
                    self.next += 1;
                    vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k % 4)]
                }
            }
            for i in 0..4 {
                cluster.add_client(MultiTable { next: 10_000_000 * (i + 1) }, |cc| {
                    cc.think_time_us = 400;
                });
            }
            cluster.crash_backend_at(SimTime::from_secs(1), 0, 2);
            cluster.restart_backend_at(SimTime::from_millis(1_000 + outage_ms), 0, 2);
            cluster.run_for(dur::secs(12));
            let mw = cluster.mw_metrics(0);
            let head = cluster.with_middleware(0, |m| m.log().head());
            let rejoin = mw
                .recoveries
                .iter()
                .find(|&&(b, _, _)| b == 2)
                .map(|&(_, s, e)| format!("{:.0}", (e - s) as f64 / 1e3))
                .unwrap_or_else(|| "STUCK".into());
            t.row(&[
                outage_ms.to_string(),
                rlabel.to_string(),
                head.to_string(),
                rejoin,
            ]);
        }
    }
    t.print();

    // Quantified replay-cost model (the §4.4.2 serial-vs-parallel gap) on a
    // synthetic log.
    let mut log = replimid_core::RecoveryLog::new();
    for i in 0..10_000u64 {
        log.append_sql(
            Some("bench".into()),
            format!("UPDATE t{} SET v = v + 1 WHERE k = {i}", i % 4),
            vec![format!("t{}", i % 4)],
        );
    }
    let entries = log.read_after(0, 20_000).unwrap();
    let serial = replimid_core::RecoveryLog::replay_cost_us(entries, ReplayMode::Serial, 80);
    let parallel = replimid_core::RecoveryLog::replay_cost_us(entries, ReplayMode::Parallel, 80);
    println!(
        "  modeled replay of 10k entries over 4 disjoint tables: serial {} ms, parallel {} ms ({:.1}x)\n",
        serial / 1_000,
        parallel / 1_000,
        serial as f64 / parallel as f64
    );
}

// ---------------------------------------------------------------------
// E10 — consistency spectrum: abort rates vs conflict rate
// ---------------------------------------------------------------------

fn e10_consistency_spectrum() {
    banner("E10", "consistency spectrum: aborts/tps vs conflict rate (§3.3)");
    let mut t = Table::new(&["conflict", "scheme", "tps", "abort ratio"]);
    for (clabel, hot_keys, hot_frac) in [
        ("low", 400i64, 0.1f64),
        ("medium", 20, 0.5),
        ("high", 4, 0.9),
    ] {
        for (slabel, mode, isolation) in [
            (
                "statement+RC",
                Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
                None,
            ),
            ("writeset+SI", Mode::MultiMasterWriteset, Some("SNAPSHOT")),
            ("writeset+1SR", Mode::MultiMasterWriteset, Some("SERIALIZABLE")),
        ] {
            let cfg = ClusterConfig::new(mode, micro::schema("bench", 400), "bench");
            let mut cluster = Cluster::build(cfg);
            let clients: Vec<NodeId> = (0..6)
                .map(|_| {
                    let mut w = micro::KeyedUpdates::contended(400, hot_keys, hot_frac);
                    w.isolation = isolation;
                    cluster.add_client(w, |cc| {
                        cc.think_time_us = 500;
                        cc.max_retries = 20;
                    })
                })
                .collect();
            let secs = 4;
            run_and_drain(&mut cluster, secs);
            let agg = aggregate(&mut cluster, &clients);
            let total = agg.committed + agg.aborted;
            t.row(&[
                clabel.to_string(),
                slabel.to_string(),
                format!("{:.0}", tps(agg.committed, secs)),
                format!("{:.3}", agg.aborted as f64 / total.max(1) as f64),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// E11 — failure detection timeout tradeoff
// ---------------------------------------------------------------------

fn e11_failure_detection() {
    banner("E11", "failure detector timeouts: detection time vs false positives (§4.3.4.2)");
    let mut t = Table::new(&["timeout", "detection ms", "false positives under load"]);
    for (label, timeout_us) in [
        ("50 ms", 50_000u64),
        ("100 ms", 100_000),
        ("500 ms", 500_000),
        ("2 s", 2_000_000),
        ("75 s (TCP default)", 75_000_000),
    ] {
        // (a) Detection time after a real crash.
        let mut cfg = ClusterConfig::new(
            Mode::MasterSlave {
                two_safe: false,
                ship_interval_us: 50_000,
                use_writesets: false,
                parallel_apply: false,
                read_master: true,
            },
            micro::schema("bench", 50),
            "bench",
        );
        cfg.backends_per_mw = 2;
        cfg.mw.heartbeat = HeartbeatConfig { interval_us: 20_000, timeout_us };
        cfg.mw.op_timeout_us = timeout_us.max(1_000_000) * 2;
        let mut cluster = Cluster::build(cfg);
        cluster.add_client(SeqInsert::new(1_000), |cc| {
            cc.think_time_us = 2_000;
            cc.request_timeout_us = timeout_us.max(200_000) * 2;
        });
        let crash_at = SimTime::from_secs(2);
        cluster.crash_backend_at(crash_at, 0, 0);
        cluster.run_for(dur::secs(2) + timeout_us * 2 + dur::secs(1));
        let mw = cluster.mw_metrics(0);
        let detection = mw
            .failover_times
            .first()
            .map(|&t| (t.saturating_sub(crash_at.micros())) as f64 / 1_000.0);

        // (b) False positives: no crash, but one replica saturated by a hot
        // backup (load-induced silence — the §4.3.4.2 hazard).
        let mut cfg = mm_statement_cfg(4_000);
        cfg.mw.heartbeat = HeartbeatConfig { interval_us: 20_000, timeout_us };
        cfg.mw.op_timeout_us = timeout_us.max(2_000_000) * 4;
        let mut cluster = Cluster::build(cfg);
        for i in 0..6 {
            cluster.add_client(SeqInsert::new(1_000_000 * (i + 1)), |cc| {
                cc.think_time_us = 150;
            });
        }
        // Repeated hot backups keep backend 1 busy for long stretches.
        for k in 0..8 {
            cluster.admin_at(
                SimTime::from_millis(500 + k * 400),
                0,
                AdminCmd::Backup { backend: BackendId(1), hot: true },
            );
        }
        cluster.run_for(dur::secs(5));
        let mw2 = cluster.mw_metrics(0);
        t.row(&[
            label.to_string(),
            detection.map(|d| format!("{d:.0}")).unwrap_or_else(|| "not detected".into()),
            mw2.counters.failovers.to_string(),
        ]);
    }
    t.print();
    println!("  (short timeouts detect fast but fail healthy-but-slow replicas;\n   the TCP default never notices within the run — §4.3.4.2)\n");
}

// ---------------------------------------------------------------------
// E12 — availability campaign with Poisson fault injection
// ---------------------------------------------------------------------

fn e12_availability_campaign() {
    banner("E12", "availability campaign: Poisson faults, MTTF/MTTR/nines (§5.1)");
    let mut t = Table::new(&[
        "replicas", "faults", "outages", "MTTF s", "MTTR ms", "availability", "nines", "tps",
    ]);
    for replicas in [1usize, 2, 3] {
        let mut cfg = mm_statement_cfg(200);
        cfg.backends_per_mw = replicas;
        let mut cluster = Cluster::build(cfg);
        let clients: Vec<NodeId> = (0..4)
            .map(|i| {
                cluster.add_client(SeqInsert::new(1_000_000 * (i as i64 + 1)), |cc| {
                    cc.think_time_us = 1_000;
                    cc.request_timeout_us = 250_000;
                })
            })
            .collect();
        // Accelerated fault process: compress ~months of the paper's
        // 1/day/200-CPU rate into 30 virtual seconds.
        let mut rng = replimid_det::DetRng::seed_from_u64(7 + replicas as u64);
        let horizon = dur::secs(30);
        let schedule =
            FaultSchedule::poisson(&mut rng, replicas, horizon, 3_000_000.0, dur::millis(800));
        let fault_count = schedule.len();
        for f in &schedule.faults {
            cluster.crash_backend_at(f.crash_at, 0, f.node);
            cluster.restart_backend_at(f.restart_at, 0, f.node);
        }
        cluster.run_for(horizon);
        cluster.run_for(dur::secs(2));
        let agg = aggregate(&mut cluster, &clients);
        let mw = cluster.mw_metrics(0);
        t.row(&[
            replicas.to_string(),
            fault_count.to_string(),
            mw.availability.outage_count().to_string(),
            format!("{:.1}", mw.availability.mttf_us() / 1e6),
            format!("{:.0}", mw.availability.mttr_us() / 1e3),
            format!("{:.6}", mw.availability.availability()),
            format!("{:.2}", mw.availability.nines()),
            format!("{:.0}", tps(agg.committed, 30)),
        ]);
    }
    t.print();
    println!("  (replication converts node faults into brief degraded periods; a\n   single replica turns every fault into client-visible downtime)\n");
}

// ---------------------------------------------------------------------
// E13 — backup: cold vs hot
// ---------------------------------------------------------------------

fn e13_backup() {
    banner("E13", "backup: cold (remove+rejoin) vs hot (degrade in place) (§4.4.1)");
    let mut t = Table::new(&["mode", "backup ms", "tps before", "tps during", "tps after"]);
    for hot in [false, true] {
        let mut cfg = mm_statement_cfg(5_000);
        let mut cluster = Cluster::build(cfg.clone());
        let clients: Vec<NodeId> = (0..6)
            .map(|i| {
                cluster.add_client(SeqInsert::new(1_000_000 * (i as i64 + 1)), |cc| {
                    cc.think_time_us = 300;
                })
            })
            .collect();
        cluster.admin_at(SimTime::from_secs(2), 0, AdminCmd::Backup { backend: BackendId(1), hot });
        cluster.run_for(dur::secs(6));
        let mw = cluster.mw_metrics(0);
        let (start, end) = mw
            .backups
            .first()
            .map(|&(s, e, _, _)| (s, e))
            .unwrap_or((2_000_000, 2_000_000));
        // Throughput before/during/after from per-second commit series.
        let mut before = 0u64;
        let mut during = 0u64;
        let mut after = 0u64;
        let (s_sec, e_sec) = (start / 1_000_000, end / 1_000_000 + 1);
        for &c in &clients {
            let m = cluster.client_metrics(c);
            for (&sec, &n) in &m.commits_per_sec {
                if sec < s_sec {
                    before += n;
                } else if sec <= e_sec {
                    during += n;
                } else {
                    after += n;
                }
            }
        }
        let before_secs = s_sec.max(1);
        let during_secs = (e_sec - s_sec + 1).max(1);
        let after_secs = (6u64.saturating_sub(e_sec + 1)).max(1);
        t.row(&[
            if hot { "hot" } else { "cold" }.to_string(),
            format!("{:.0}", (end - start) as f64 / 1e3),
            format!("{:.0}", before as f64 / before_secs as f64),
            format!("{:.0}", during as f64 / during_secs as f64),
            format!("{:.0}", after as f64 / after_secs as f64),
        ]);
        let _ = &mut cfg;
    }
    t.print();
}

// ---------------------------------------------------------------------
// E14 — group communication: sequencer vs token ring
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GMsg {
    Gcs(replimid_gcs::GcsMsg<u64>),
    Publish(u64),
}

struct GNode {
    member: GroupMember<u64>,
    delivered: Vec<(u64, u64)>, // (publish time, deliver time) keyed by payload order
    sent_at: std::collections::HashMap<u64, u64>,
}

impl GNode {
    fn act(&mut self, ctx: &mut replimid_simnet::Ctx<'_, GMsg>, actions: Vec<Action<u64>>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => ctx.send(NodeId(to.0), GMsg::Gcs(msg)),
                Action::SetTimer { delay_us, tag } => ctx.set_timer(delay_us, tag),
                Action::Deliver { payload, .. } => {
                    let now = ctx.now().micros();
                    let sent = self.sent_at.get(&payload).copied().unwrap_or(now);
                    self.delivered.push((sent, now));
                }
                _ => {}
            }
        }
    }
}

impl replimid_simnet::Actor<GMsg> for GNode {
    fn on_start(&mut self, ctx: &mut replimid_simnet::Ctx<'_, GMsg>) {
        let a = self.member.start(ctx.now().micros());
        self.act(ctx, a);
    }
    fn on_message(&mut self, ctx: &mut replimid_simnet::Ctx<'_, GMsg>, from: NodeId, msg: GMsg) {
        let now = ctx.now().micros();
        let actions = match msg {
            GMsg::Gcs(m) => self.member.on_message(MemberId(from.0), m, now),
            GMsg::Publish(p) => {
                self.sent_at.insert(p, now);
                self.member.publish(p, now)
            }
        };
        self.act(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut replimid_simnet::Ctx<'_, GMsg>, tag: u64) {
        let a = self.member.on_timer(tag, ctx.now().micros());
        self.act(ctx, a);
    }
}

fn e14_group_communication() {
    banner("E14", "total order: fixed sequencer vs token ring, LAN vs WAN (§4.3.4.1)");
    let mut t = Table::new(&["net", "protocol", "group", "deliver p50 us", "deliver p99 us"]);
    for (nlabel, link) in [("LAN", LinkSpec::lan()), ("WAN", LinkSpec::wan())] {
        for (plabel, proto) in [
            ("sequencer", OrderProtocol::FixedSequencer),
            ("token ring", OrderProtocol::TokenRing),
        ] {
            for group in [2usize, 4, 8] {
                let mut sim: replimid_simnet::Sim<GMsg> =
                    replimid_simnet::Sim::new(NetworkModel::new(link), 99);
                let members: Vec<MemberId> = (0..group).map(MemberId).collect();
                let cfg = GcsConfig {
                    heartbeat: if matches!(nlabel, "WAN") {
                        HeartbeatConfig { interval_us: 100_000, timeout_us: 1_000_000 }
                    } else {
                        HeartbeatConfig::lan()
                    },
                    protocol: proto,
                    token_timeout_us: 2_000_000,
                    flush_timeout_us: 2_000_000,
                    adaptive: None,
                };
                let nodes: Vec<NodeId> = (0..group)
                    .map(|i| {
                        sim.add_node(GNode {
                            member: GroupMember::new(MemberId(i), members.clone(), cfg, 0),
                            delivered: Vec::new(),
                            sent_at: std::collections::HashMap::new(),
                        })
                    })
                    .collect();
                // Publish 50 messages from each member, spread out.
                let mut p = 0u64;
                for round in 0..50u64 {
                    for &n in &nodes {
                        p += 1;
                        sim.inject(SimTime(10_000 + round * 5_000), n, GMsg::Publish(p));
                    }
                }
                sim.run_until(SimTime::from_secs(30));
                // Delivery latency at the ORIGIN member (publish->self-deliver).
                let mut hist = replimid_core::Histogram::new();
                for &n in &nodes {
                    sim.with_actor::<GNode, _>(n, |g| {
                        for &(sent, got) in &g.delivered {
                            if g.sent_at.values().any(|&s| s == sent) {
                                hist.record(got.saturating_sub(sent));
                            }
                        }
                    });
                }
                t.row(&[
                    nlabel.to_string(),
                    plabel.to_string(),
                    group.to_string(),
                    hist.quantile_us(0.5).to_string(),
                    hist.quantile_us(0.99).to_string(),
                ]);
            }
        }
    }
    t.print();
    println!("  (sequencer latency is flat in group size; token-ring latency grows\n   with the ring — and the WAN multiplies everything, §4.3.4.1)\n");
}

// ---------------------------------------------------------------------
// E15 — slave lag: serial vs parallel apply; master throttling
// ---------------------------------------------------------------------

fn e15_slave_lag() {
    banner("E15", "slave lag under load: serial vs parallel apply (§2.2)");
    let mut t = Table::new(&["apply", "slave speed", "peak lag", "final lag"]);
    for (alabel, parallel) in [("serial", false), ("parallel", true)] {
        for (slabel, speed) in [("1x", 1.0f64), ("6x slower", 6.0)] {
            let schema = {
                let mut s = vec![
                    "CREATE DATABASE bench".to_string(),
                    "USE bench".to_string(),
                ];
                for i in 0..4 {
                    s.push(format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)"));
                }
                s
            };
            let mut cfg = ClusterConfig::new(
                Mode::MasterSlave {
                    two_safe: false,
                    ship_interval_us: 50_000,
                    use_writesets: true,
                    parallel_apply: parallel,
                    read_master: true,
                },
                schema,
                "bench",
            );
            cfg.backends_per_mw = 2;
            cfg.backend_speed = vec![1.0, speed];
            let mut cluster = Cluster::build(cfg);
            struct MultiTable {
                next: i64,
            }
            impl replimid_core::TxSource for MultiTable {
                fn next_tx(&mut self, _r: &mut replimid_det::DetRng) -> Vec<String> {
                    let k = self.next;
                    self.next += 1;
                    vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k % 4)]
                }
            }
            for i in 0..6 {
                cluster.add_client(MultiTable { next: 10_000_000 * (i + 1) }, |cc| {
                    cc.think_time_us = 200;
                    cc.tx_limit = 4_000;
                });
            }
            // Writers run ~2s; then 4s of quiescence to observe catch-up.
            cluster.run_for(dur::secs(6));
            let mw = cluster.mw_metrics(0);
            let peak = mw.lag_samples.iter().map(|&(_, l)| l).max().unwrap_or(0);
            let last = mw.lag_samples.last().map(|&(_, l)| l).unwrap_or(0);
            t.row(&[
                alabel.to_string(),
                slabel.to_string(),
                peak.to_string(),
                last.to_string(),
            ]);
        }
    }
    t.print();
    println!("  (the paper's fix — \"slow down the master\" — corresponds to raising\n   client think time until final lag returns to ~0)\n");
}

// ---------------------------------------------------------------------
// E16 — gray-failure campaign: brownouts, flaky links, quarantine,
// adaptive detection, degraded read-only
// ---------------------------------------------------------------------

/// Read-mostly mix of point reads and point updates with, when
/// `scan_fraction` > 0, occasional full scans: one scan costs as much as
/// `total_keys / 40` point reads.
struct GrayMix {
    total_keys: i64,
    write_fraction: f64,
    scan_fraction: f64,
}

impl replimid_core::TxSource for GrayMix {
    fn next_tx(&mut self, rng: &mut replimid_det::DetRng) -> Vec<String> {
        let d: f64 = rng.gen();
        let k = rng.gen_range(0..self.total_keys);
        if d < self.write_fraction {
            vec![format!("UPDATE bench SET v = v + 1 WHERE k = {k}")]
        } else if d < self.write_fraction + self.scan_fraction {
            vec!["SELECT COUNT(v) FROM bench".to_string()]
        } else {
            vec![format!("SELECT v FROM bench WHERE k = {k}")]
        }
    }
}

fn e16_gray_failure_campaign() {
    banner(
        "E16",
        "gray-failure campaign: brownouts & flaky links vs quarantine/adaptive (§4.1.3, §5.1)",
    );
    let secs: u64 = 30;
    let rows = 4_000usize;
    // One seeded gray schedule, applied verbatim to every config so the
    // four arms face the identical fault sequence. Brownouts stretch
    // service times (backlog builds, op timeouts fire); flaky links drop
    // and delay messages (silence gaps fool the fixed heartbeat timeout).
    let mut rng = replimid_det::DetRng::seed_from_u64(160);
    let spec = GraySpec {
        accel: 1_200_000.0,
        mean_episode_us: dur::secs(2),
        min_episode_us: dur::millis(800),
        brownout_ratio: 0.5,
        brownout_factor: (6.0, 10.0),
        link: LinkFault { drop_prob: 0.25, dup_prob: 0.05, jitter_us: 40_000 },
    };
    let schedule = GrayFaultSchedule::poisson(&mut rng, 3, dur::secs(secs), spec);
    let brownouts = schedule
        .faults
        .iter()
        .filter(|f| matches!(f.kind, GrayKind::Brownout { .. }))
        .count();
    println!(
        "  schedule: {} gray episodes over {secs}s ({brownouts} brownouts, {} flaky links); no node ever crashes\n",
        schedule.len(),
        schedule.len() - brownouts,
    );
    let mut t = Table::new(&[
        "config", "goodput tps", "p99 ms", "false evict", "trips", "rejoins", "availability",
        "nines",
    ]);
    for (label, quarantine, adaptive) in [
        ("baseline", false, false),
        ("quarantine", true, false),
        ("adaptive", false, true),
        ("quarantine+adaptive", true, true),
    ] {
        let mut cfg = mm_statement_cfg(rows);
        // Round-robin read routing so the comparison isolates the
        // health-driven mechanisms (LPRF would partially route around a
        // backlogged replica on its own).
        cfg.mw.policy = Policy::RoundRobin;
        // Backends costed at 178x CPU (the E22 idiom): a point read (23 µs
        // as a plan) takes ~4.1 ms, so a 6-10x brownout holds one for
        // longer than the 30 ms silence timeout below. A 23 µs point read
        // never would.
        cfg.backend_speed = vec![178.0];
        // Aggressive fixed detector: the tuning that finds real crashes
        // fast is exactly the one a browned-out statement or a jitter spike
        // fools (§4.3.4.2).
        cfg.mw.heartbeat = HeartbeatConfig { interval_us: 10_000, timeout_us: 30_000 };
        cfg.mw.op_timeout_us = 1_000_000;
        if quarantine {
            cfg.mw.quarantine = Some(QuarantineConfig::default());
        }
        if adaptive {
            cfg.mw.adaptive_detection = Some(AdaptiveConfig {
                min_timeout_us: 30_000,
                max_timeout_us: 2_000_000,
                factor: 1.5,
                k: 4.0,
                window: 32,
            });
        }
        let mut cluster = Cluster::build(cfg);
        let clients: Vec<NodeId> = (0..12)
            .map(|_| {
                cluster.add_client(
                    GrayMix {
                        total_keys: rows as i64,
                        write_fraction: 0.05,
                        scan_fraction: 0.0,
                    },
                    |cc| {
                        cc.think_time_us = 500;
                        cc.request_timeout_us = 2_000_000;
                    },
                )
            })
            .collect();
        for f in &schedule.faults {
            match f.kind {
                GrayKind::Brownout { factor } => {
                    cluster.brownout_backend_at(f.start, 0, f.node, factor);
                    cluster.clear_brownout_at(f.end, 0, f.node);
                }
                GrayKind::FlakyLink { fault } => {
                    cluster.flaky_link_at(f.start, 0, f.node, fault);
                    cluster.clear_flaky_link_at(f.end, 0, f.node);
                }
            }
        }
        run_and_drain(&mut cluster, secs);
        let agg = aggregate(&mut cluster, &clients);
        let mw = cluster.mw_metrics(0);
        t.row(&[
            label.to_string(),
            format!("{:.0}", tps(agg.committed, secs)),
            format!("{:.1}", agg.p99_tx_us as f64 / 1e3),
            mw.counters.false_evictions.to_string(),
            mw.counters.quarantine_trips.to_string(),
            mw.counters.quarantine_rejoins.to_string(),
            format!("{:.6}", mw.availability.availability()),
            format!("{:.2}", mw.availability.nines()),
        ]);
        let _ = clients;
    }
    t.print();
    println!(
        "  (every backend stays alive throughout: each \"false evict\" is a healthy\n   node lost to the detector; quarantine routes around brownouts, adaptive\n   thresholds stop stretched pongs from reading as death — §4.3.4.2)\n"
    );

    // (b) Degraded read-only mode: write quorum lost, reads keep flowing.
    println!("  write-quorum loss: backends 1+2 crash at t=2s, restart at t=6s (of 9s):\n");
    let mut t = Table::new(&[
        "degrade mode", "read tps during loss", "writes during loss", "write rejects",
        "degraded ms", "outages",
    ]);
    for degrade in [false, true] {
        let mut cfg = mm_statement_cfg(500);
        cfg.mw.degrade_to_read_only = degrade;
        let mut cluster = Cluster::build(cfg);
        let readers: Vec<NodeId> = (0..4)
            .map(|_| {
                cluster.add_client(micro::PointReads { total_keys: 500 }, |cc| {
                    cc.think_time_us = 500;
                })
            })
            .collect();
        let writers: Vec<NodeId> = (0..2i64)
            .map(|w| {
                cluster.add_client(SeqInsert::new(1_000_000 * (w + 1)), |cc| {
                    cc.think_time_us = 1_000;
                    cc.request_timeout_us = 300_000;
                })
            })
            .collect();
        cluster.crash_backend_at(SimTime::from_secs(2), 0, 1);
        cluster.crash_backend_at(SimTime::from_millis(2_050), 0, 2);
        cluster.restart_backend_at(SimTime::from_secs(6), 0, 1);
        cluster.restart_backend_at(SimTime::from_secs(6), 0, 2);
        cluster.run_for(dur::secs(9));
        // Commit counts over seconds 3..=5, fully inside the quorum loss.
        let count_window = |nodes: &[NodeId], cluster: &mut Cluster| -> u64 {
            nodes
                .iter()
                .map(|&n| {
                    cluster
                        .client_metrics(n)
                        .commits_per_sec
                        .iter()
                        .filter(|&(&s, _)| (3..=5).contains(&s))
                        .map(|(_, &c)| c)
                        .sum::<u64>()
                })
                .sum()
        };
        let reads_during = count_window(&readers, &mut cluster);
        let writes_during = count_window(&writers, &mut cluster);
        let mw = cluster.mw_metrics(0);
        t.row(&[
            if degrade { "read-only" } else { "off (unsafe writes)" }.to_string(),
            format!("{:.0}", reads_during as f64 / 3.0),
            writes_during.to_string(),
            mw.counters.degraded_write_rejects.to_string(),
            format!("{:.0}", mw.degraded.total_us() as f64 / 1e3),
            mw.availability.outage_count().to_string(),
        ]);
    }
    t.print();
    println!(
        "  (with the flag off a lone survivor silently accepts quorum-less writes;\n   read-only mode fails them fast with a retryable Degraded error while the\n   survivors keep serving reads — degraded time is tracked, not downtime)\n"
    );
}

// ---------------------------------------------------------------------
// E17 — per-stage latency attribution: where does a transaction's time go?
// ---------------------------------------------------------------------

/// One E17 arm: build, load, optionally inject a mid-run brownout, then
/// return (middleware metrics, merged client trace, merged db trace).
fn e17_arm(
    writeset: bool,
    clients: usize,
    think_us: u64,
    gray: bool,
    secs: u64,
) -> (replimid_core::MwMetrics, TraceSink, TraceSink) {
    let mut cfg = mm_statement_cfg(2_000);
    if writeset {
        cfg.mw.mode = Mode::MultiMasterWriteset;
    }
    // Round-robin so the breakdown is not shaped by latency-aware routing.
    cfg.mw.policy = Policy::RoundRobin;
    let mut cluster = Cluster::build(cfg);
    let handles: Vec<NodeId> = (0..clients)
        .map(|_| {
            cluster.add_client(
                GrayMix { total_keys: 2_000, write_fraction: 0.2, scan_fraction: 0.05 },
                |cc| {
                    cc.think_time_us = think_us;
                    cc.request_timeout_us = 2_000_000;
                },
            )
        })
        .collect();
    if gray {
        cluster.brownout_backend_at(SimTime::from_secs(3), 0, 1, 8.0);
        cluster.clear_brownout_at(SimTime::from_secs(6), 0, 1);
    }
    run_and_drain(&mut cluster, secs);
    let mut client_trace = TraceSink::new();
    for &h in &handles {
        client_trace.merge(&cluster.client_metrics(h).trace);
    }
    let mut db_trace = TraceSink::new();
    for b in 0..3 {
        db_trace.merge(&cluster.db_trace(0, b));
    }
    (cluster.mw_metrics(0), client_trace, db_trace)
}

fn e17_latency_attribution() {
    banner(
        "E17",
        "per-stage latency attribution: trace waterfalls across load and a gray episode",
    );
    let secs = 10u64;
    println!(
        "  20% updates / 5% scans / 75% point reads on 2000 rows, 3 backends, {secs}s;\n  every statement carries a trace id and each middleware stage transition\n  records a span — the stage columns tile the end-to-end latency exactly.\n"
    );
    let arms: [(&str, bool, usize, u64, bool); 5] = [
        ("stmt low", false, 2, 5_000, false),
        ("stmt mid", false, 8, 500, false),
        ("stmt saturated", false, 24, 100, false),
        ("stmt gray x8", false, 8, 500, true),
        ("ws mid", true, 8, 500, false),
    ];
    let mut t = Table::new(&["load", "stage", "count", "mean µs", "p50 µs", "p99 µs", "share %"]);
    let mut ct = Table::new(&["load", "client stage", "count", "mean µs", "p99 µs"]);
    let mut waterfall: Option<String> = None;
    let mut cert_line: Option<String> = None;
    for (label, writeset, clients, think, gray) in arms {
        let (mw, client_trace, db_trace) = e17_arm(writeset, clients, think, gray, secs);
        let total: u64 = Stage::ALL.iter().map(|&s| mw.trace.stage_histogram(s).sum_us()).sum();
        for s in Stage::ALL {
            let h = mw.trace.stage_histogram(s);
            if h.count() == 0 {
                continue;
            }
            t.row(&[
                label.to_string(),
                s.name().to_string(),
                h.count().to_string(),
                format!("{:.0}", h.mean_us()),
                h.quantile_us(0.5).to_string(),
                h.quantile_us(0.99).to_string(),
                format!("{:.1}", 100.0 * h.sum_us() as f64 / total.max(1) as f64),
            ]);
        }
        for s in [Stage::ClientRtt, Stage::Retry, Stage::Backoff, Stage::Rollback] {
            let h = client_trace.stage_histogram(s);
            if h.count() == 0 {
                continue;
            }
            ct.row(&[
                label.to_string(),
                s.name().to_string(),
                h.count().to_string(),
                format!("{:.0}", h.mean_us()),
                h.quantile_us(0.99).to_string(),
            ]);
        }
        let dbh = db_trace.stage_histogram(Stage::DbService);
        ct.row(&[
            label.to_string(),
            "db-service".to_string(),
            dbh.count().to_string(),
            format!("{:.0}", dbh.mean_us()),
            dbh.quantile_us(0.99).to_string(),
        ]);
        if gray {
            if let Some(slow) = mw.trace.slowest().first() {
                waterfall = mw.trace.waterfall(slow.trace);
            }
        }
        if writeset {
            let c = mw.certifier;
            cert_line = Some(format!(
                "  certifier ({label}): {} checks, {} commits, {} aborts, {} keys, max window {}\n",
                c.checks, c.commits, c.aborts, c.keys_checked, c.max_window
            ));
        }
    }
    t.print();
    println!("  client-side and backend-side attribution for the same runs:\n");
    ct.print();
    if let Some(line) = cert_line {
        println!("{line}");
    }
    if let Some(w) = waterfall {
        println!("  slowest middleware trace of the gray arm (the brownout made Execute\n  absorb nearly the whole window):\n");
        for l in w.lines() {
            println!("    {l}");
        }
        println!();
    }
    println!(
        "  (Admission and BalancerPick are zero-width markers — the middleware\n   admits and routes in the same virtual instant. Order and Certify read as\n   ~0 µs too: with a single middleware the publish self-delivers instantly;\n   multi-middleware runs (E14) pay real ordering latency there. Execute is\n   backend work + queueing; Fanout is certification -> last replica ack.\n   Stage::Other stays absent: every recorded microsecond is attributed.)\n"
    );

    // -- appended: plan-cache attribution on the parse-heavy insert mix --
    println!(
        "  plan cache on the parse-heavy mix — single-row inserts over 8\n  disjoint tables (8 templates, literals changing every statement), 32\n  clients, group commit 32/200µs, 5s. Every backend executes the\n  middleware's admission-time parse whatever the capacity; with the\n  cache on, the middleware reuses each template's parse and binds the\n  literals instead of parsing every statement whole. That reuse is\n  middleware CPU, which the virtual clock does not price (Admission is\n  a zero-width stage), so both arms must attribute identically:\n"
    );
    let mut t = Table::new(&[
        "cache",
        "stage",
        "count",
        "mean µs",
        "sum ms",
        "hits",
        "misses",
        "hit %",
    ]);
    let mut combined = [0u64; 2];
    for (i, cache) in [0usize, 256].into_iter().enumerate() {
        let mw = e17_plan_arm(cache, 5);
        let lookups = mw.counters.plan_cache_hits + mw.counters.plan_cache_misses;
        for s in [Stage::Admission, Stage::Execute] {
            let h = mw.trace.stage_histogram(s);
            combined[i] += h.sum_us();
            t.row(&[
                if cache == 0 { "off".into() } else { cache.to_string() },
                s.name().to_string(),
                h.count().to_string(),
                format!("{:.0}", h.mean_us()),
                format!("{:.1}", h.sum_us() as f64 / 1_000.0),
                mw.counters.plan_cache_hits.to_string(),
                mw.counters.plan_cache_misses.to_string(),
                if lookups == 0 {
                    "-".into()
                } else {
                    format!("{:.1}", 100.0 * mw.counters.plan_cache_hits as f64 / lookups as f64)
                },
            ]);
        }
    }
    t.print();
    println!(
        "  combined Admission+Execute stage time: {:.1} ms (off), {:.1} ms (on).\n  Reuse moves no virtual time; its price is wall clock (the repo\n  benchmark's sql.plan.hit_ns / miss_ns probes).\n",
        combined[0] as f64 / 1_000.0,
        combined[1] as f64 / 1_000.0,
    );
}

/// One plan-cache attribution arm for the E17 appendix: the E18 insert
/// workload (8 templates, fresh literals each statement) with the plan
/// cache set as given (0 = no reuse).
fn e17_plan_arm(plan_cache: usize, secs: u64) -> replimid_core::MwMetrics {
    // The E18 best batching arm: with ~32-statement batches one delivery
    // amortizes the network hop over the whole batch, so the Execute span
    // is mostly backend CPU and the parse share is visible. Unbatched, the
    // ~200µs RTT swamps the 18µs per-statement parse.
    let mut cfg = group_commit_cfg(32, 200);
    cfg.mw.plan_cache = plan_cache;
    let mut cluster = Cluster::build(cfg);
    for i in 0..32 {
        cluster.add_client(ShardedInsert::new(10_000_000 * (i as i64 + 1)), |cc| {
            cc.think_time_us = 100;
            cc.request_timeout_us = 2_000_000;
        });
    }
    run_and_drain(&mut cluster, secs);
    cluster.mw_metrics(0)
}

// ---------------------------------------------------------------------
// E18 — group-commit batching on the totally-ordered write path
// ---------------------------------------------------------------------

/// One E18 arm: pure-insert load spread over 8 disjoint tables (so the
/// backend-side grouped apply has parallelism to exploit), with the
/// middleware's group-commit batch knobs set as given. `batch_max = 1`
/// disables batching and takes the exact pre-batching code path.
fn e18_arm(
    clients: usize,
    think_us: u64,
    batch_max: usize,
    deadline_us: u64,
    secs: u64,
) -> replimid_core::MwMetrics {
    let mut cluster = Cluster::build(group_commit_cfg(batch_max, deadline_us));
    for i in 0..clients {
        cluster.add_client(ShardedInsert::new(10_000_000 * (i as i64 + 1)), |cc| {
            cc.think_time_us = think_us;
            cc.request_timeout_us = 2_000_000;
        });
    }
    run_and_drain(&mut cluster, secs);
    cluster.mw_metrics(0)
}

fn e18_group_commit() {
    banner("E18", "group-commit batching: batch size x flush deadline x load");
    let secs = 5u64;
    println!(
        "  Pure single-insert transactions over 8 disjoint tables, 3 replicas,\n  {secs}s per cell. The middleware accumulates admitted writes into one\n  totally-ordered batch (flushed at batch_max or at the deadline) and the\n  backends apply each batch with the parallel-replay grouping, so disjoint\n  statements in one batch are charged max-of-chains instead of sum.\n"
    );
    let loads: [(&str, usize, u64); 3] =
        [("low", 2, 5_000), ("mid", 8, 500), ("saturated", 32, 100)];
    // batch_max = 1 is the control: batching compiled in but disabled.
    let arms: [(usize, u64); 5] = [(1, 0), (8, 200), (8, 1_000), (32, 200), (32, 1_000)];
    let mut t = Table::new(&[
        "load",
        "batch",
        "ddl µs",
        "write tps",
        "vs off",
        "p50 w µs",
        "p99 w µs",
        "mean batch",
        "flush sz/ddl",
    ]);
    let mut low_off_p50 = 0u64;
    let mut low_worst_p50 = 0u64;
    let mut sat_off_tps = 0.0f64;
    let mut sat_best: Option<(f64, usize, u64)> = None;
    for (label, clients, think_us) in loads {
        let mut off_tps = 0.0f64;
        for (batch_max, deadline_us) in arms {
            let mw = e18_arm(clients, think_us, batch_max, deadline_us, secs);
            let wtps = tps(mw.counters.writes, secs);
            if batch_max == 1 {
                off_tps = wtps;
            }
            let p50 = mw.write_latency.quantile_us(0.5);
            match (label, batch_max) {
                ("low", 1) => low_off_p50 = p50,
                ("low", _) => low_worst_p50 = low_worst_p50.max(p50),
                ("saturated", 1) => sat_off_tps = wtps,
                ("saturated", _) if sat_best.is_none_or(|(best, _, _)| wtps > best) => {
                    sat_best = Some((wtps, batch_max, deadline_us));
                }
                _ => {}
            }
            let flushes = mw.counters.batch_flush_size + mw.counters.batch_flush_deadline;
            t.row(&[
                label.to_string(),
                if batch_max == 1 { "off".to_string() } else { batch_max.to_string() },
                if batch_max == 1 { "-".to_string() } else { deadline_us.to_string() },
                format!("{wtps:.0}"),
                format!("{:.2}x", wtps / off_tps.max(1e-9)),
                p50.to_string(),
                mw.write_latency.quantile_us(0.99).to_string(),
                if flushes == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", mw.batch_sizes.sum_us() as f64 / flushes as f64)
                },
                if flushes == 0 {
                    "-".to_string()
                } else {
                    format!("{}/{}", mw.counters.batch_flush_size, mw.counters.batch_flush_deadline)
                },
            ]);
        }
    }
    t.print();
    if let Some((best_tps, batch, ddl)) = sat_best {
        println!(
            "\n  at saturation, batch={batch} / deadline={ddl} µs sustains {:.2}x the\n  unbatched write throughput; the price is paid at low load, where the\n  write p50 grows from {low_off_p50} µs (off) to {low_worst_p50} µs (worst batched arm) —\n  the classic group-commit trade the deadline knob bounds.\n",
            best_tps / sat_off_tps.max(1e-9)
        );
    }
}

// ---------------------------------------------------------------------
// E19 — freshness-constrained read routing at fleet scale (§5.1 agenda;
// the read-one/write-all session-consistency gap of §3.1)
// ---------------------------------------------------------------------

/// One freshness arm: master-slave 1-safe with lazy log shipping, a
/// session fleet mixing point reads and writes on slot-private keys, and
/// the quarantine breaker armed. Optionally injects the PR 2 gray episode
/// (slave 1 browns out 1s..3s). Returns (fleet metrics, mw metrics).
#[allow(clippy::too_many_arguments)]
fn e19_arm(
    sessions: usize,
    backends: usize,
    policy: ReadPolicy,
    ship_ms: u64,
    write_permille: u32,
    think_us: u64,
    secs: u64,
    gray: bool,
    saturate: bool,
) -> (FleetMetrics, MwMetrics) {
    // The fleet's keyspace is sharded over fixed-size tables
    // (`keys_per_table`), a layout kept from when a point query cost a
    // scan of its table; with the primary-key access path the shard size
    // no longer changes what a read costs.
    let kpt = if saturate { 100 } else { 1_000 };
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: ship_ms * 1_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: false,
        },
        micro::sharded_schema("bench", sessions, kpt),
        "bench",
    );
    cfg.backends_per_mw = backends;
    // Round-robin keeps every slave in rotation so the freshness filter
    // (not balancer skew) decides who serves; it also lets a browned
    // slave's health score accumulate evidence (E16 reasoning).
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = policy;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    if saturate {
        // The scale sweep oversubscribes the cluster on purpose, so db
        // queues grow far past the LAN detector's 100ms: pongs queue
        // behind reads and the detector would evict *live* backends —
        // and evicting the master means a 1-safe promotion that loses
        // acked tail writes (real RYW violations, but E3's story, not
        // this one). Detection under load is E11/E16's subject; here the
        // paper's tcp-default anti-pattern timeout keeps the cells about
        // read capacity. `op_timeout_us` must cover the heartbeat
        // timeout (middleware invariant).
        cfg.mw.heartbeat = HeartbeatConfig::tcp_default();
        cfg.mw.op_timeout_us = 75_000_000;
    }
    let mut cluster = Cluster::build(cfg);
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        fc.think_time_us = think_us;
        fc.write_permille = write_permille;
        fc.keys_per_table = kpt;
        fc.ramp_us = 1_000_000;
        // Large fleets oversubscribe the backends on purpose (closed-loop
        // queueing is the point); don't let the guard misread queueing as
        // loss.
        fc.request_timeout_us = 30_000_000;
    });
    if gray {
        cluster.brownout_backend_at(SimTime::from_millis(1_000), 0, 1, 10.0);
        cluster.clear_brownout_at(SimTime::from_millis(3_000), 0, 1);
    }
    cluster.run_for(dur::secs(secs));
    (cluster.fleet_metrics(fleet), cluster.mw_metrics(0))
}

fn e19_freshness_routing() {
    banner("E19", "freshness-vector read routing: read-your-writes at fleet scale");
    let secs = 5u64;

    // -- (a) policy arms: does the read path honour the session's writes? --
    println!(
        "  (a) read-policy arms — 120 sessions, 45ms think, 4 backends (1\n  master + 3 slaves), 50ms shipping, 20% writes, {secs}s: a session's\n  next read lands inside the shipping lag of its own commit. `any`\n  reads any healthy slave (stale windows up to the ship interval);\n  `sticky` pins the session where it last wrote; `fresh` admits every\n  slave whose applied position covers the session's last commit,\n  parking (then falling back to the master) when none does.\n"
    );
    let mut t = Table::new(&[
        "policy",
        "read tps",
        "ryw viol",
        "stale cut",
        "waits",
        "timeouts",
        "to master",
        "p50 r µs",
        "p99 r µs",
    ]);
    for (label, policy) in [
        ("any", ReadPolicy::Any),
        ("sticky", ReadPolicy::SessionSticky),
        ("fresh", ReadPolicy::Fresh),
    ] {
        let (f, m) = e19_arm(120, 4, policy, 50, 200, 45_000, secs, false, false);
        t.row(&[
            label.to_string(),
            format!("{:.0}", tps(f.reads, secs)),
            f.ryw_violations.to_string(),
            m.counters.fresh_filtered_stale.to_string(),
            m.counters.freshness_waits.to_string(),
            m.counters.freshness_wait_timeouts.to_string(),
            m.counters.fresh_fallback_primary.to_string(),
            f.read_latency.quantile_us(0.5).to_string(),
            f.read_latency.quantile_us(0.99).to_string(),
        ]);
    }
    t.print();

    // -- (b) write-ratio sweep: freshness pressure vs the wait path --
    println!(
        "\n  (b) read/write mix under `fresh` — same cluster; the write ratio\n  controls how often a session's own commit outruns the slaves and the\n  read must wait or divert.\n"
    );
    let mut t = Table::new(&[
        "writes",
        "read tps",
        "ryw viol",
        "stale cut",
        "waits",
        "to master",
        "p99 r µs",
    ]);
    for write_permille in [20u32, 200, 500] {
        let (f, m) =
            e19_arm(120, 4, ReadPolicy::Fresh, 50, write_permille, 45_000, secs, false, false);
        t.row(&[
            format!("{}%", write_permille / 10),
            format!("{:.0}", tps(f.reads, secs)),
            f.ryw_violations.to_string(),
            m.counters.fresh_filtered_stale.to_string(),
            m.counters.freshness_waits.to_string(),
            m.counters.fresh_fallback_primary.to_string(),
            f.read_latency.quantile_us(0.99).to_string(),
        ]);
    }
    t.print();

    // -- (c) sessions x backends: does read capacity still scale-out? --
    println!(
        "\n  (c) fleet size x backend count under `fresh` — 10ms shipping, 10%\n  writes, 3s per cell. Think time grows with the fleet so every cell\n  offers the same demand, derived from the measured cost of one point\n  read as a backend runs it (23µs): what five read-only backends could\n  serve, ~217k req/s, more than 1, 3, or 7 slaves deliver. The failure\n  detector is set to the paper's tcp-default anti-pattern so deliberate\n  queueing is measured as latency instead of evicting live nodes\n  (detection under load is E11/E16's subject), and closed-loop p50/p99\n  absorb the oversubscription in the capacity-limited cells. The session\n  table is the middleware structure under test at 10^5 entries;\n  scale-out is sublinear in slaves because every slave also pays the\n  apply cost of every write (the lazy-replication tax from E1).\n"
    );
    let mut t = Table::new(&[
        "sessions",
        "backends",
        "read tps",
        "vs 2",
        "ryw viol",
        "p50 r µs",
        "p99 r µs",
    ]);
    // The 10^6-session row multiplies the run cost by ~10x, so it is
    // opt-in: REPLIMID_HEAVY=1 adds it (and nothing else changes — the
    // default output stays byte-identical for the determinism gate).
    let mut fleet_sizes = vec![1_000usize, 10_000, 100_000];
    if std::env::var("REPLIMID_HEAVY").as_deref() == Ok("1") {
        fleet_sizes.push(1_000_000);
    }
    // Saturated cells serve 30k-90k requests per virtual second: three
    // seconds (one of ramp, two steady) keep the sweep affordable.
    let sweep_secs = 3u64;
    for sessions in fleet_sizes {
        let think_us = replimid_bench::saturating_fleet_think_us(sessions, 100);
        let mut base_tps = 0.0f64;
        for backends in [2usize, 4, 8] {
            let (f, _m) = e19_arm(
                sessions,
                backends,
                ReadPolicy::Fresh,
                10,
                100,
                think_us,
                sweep_secs,
                false,
                true,
            );
            let rtps = tps(f.reads, sweep_secs);
            if backends == 2 {
                base_tps = rtps;
            }
            assert_eq!(f.ryw_violations, 0, "RYW broke at {sessions} x {backends}");
            t.row(&[
                sessions.to_string(),
                backends.to_string(),
                format!("{rtps:.0}"),
                format!("{:.2}x", rtps / base_tps.max(1e-9)),
                f.ryw_violations.to_string(),
                f.read_latency.quantile_us(0.5).to_string(),
                f.read_latency.quantile_us(0.99).to_string(),
            ]);
        }
    }
    t.print();

    // -- (d) the PR 2 gray episode: RYW through quarantine and rejoin --
    let (f, m) = e19_arm(120, 4, ReadPolicy::Fresh, 50, 200, 45_000, secs, true, false);
    let trips = m
        .quarantine_events
        .iter()
        .filter(|&&(_, b, e)| b == 1 && matches!(e, HealthEvent::Trip { .. }))
        .count();
    let rejoins = m
        .quarantine_events
        .iter()
        .filter(|&&(_, b, e)| b == 1 && e == HealthEvent::Rejoin)
        .count();
    println!(
        "\n  (d) gray episode: slave 1 browns out (10x service) 1s..3s mid-run.\n  read tps {:.0}, ryw violations {} (must be 0), quarantine trips {},\n  rejoins {}, reads routed to a quarantined slave {} — the freshness\n  filter composes with the breaker instead of fighting it.\n",
        tps(f.reads, secs),
        f.ryw_violations,
        trips,
        rejoins,
        m.counters.reads_routed_to_quarantined,
    );

    // -- (e) bounded staleness: the dial between `fresh` and `any` --
    println!(
        "\n  (e) bounded staleness — same cluster as (a), 20% writes: `k` is how\n  many log positions a replica may lag behind the session's own last\n  commit and still serve its reads. k=0 is exactly `fresh` (RYW holds\n  by construction); growing k releases reads earlier and trades a\n  bounded, *counted* staleness window for fewer parked reads — the\n  continuous consistency dial the §3.3 taxonomy samples only at its\n  endpoints. Here `ryw viol` is the measured price of the slack, not a\n  bug: it counts reads served inside the k-window.\n"
    );
    let mut t = Table::new(&[
        "policy",
        "read tps",
        "ryw viol",
        "stale cut",
        "waits",
        "to master",
        "p50 r µs",
        "p99 r µs",
    ]);
    for (label, policy) in [
        ("k=0 (fresh)", ReadPolicy::BoundedStaleness(0)),
        ("k=2", ReadPolicy::BoundedStaleness(2)),
        ("k=8", ReadPolicy::BoundedStaleness(8)),
        ("k=64", ReadPolicy::BoundedStaleness(64)),
        ("any", ReadPolicy::Any),
    ] {
        let (f, m) = e19_arm(120, 4, policy, 50, 200, 45_000, secs, false, false);
        if policy == ReadPolicy::BoundedStaleness(0) {
            assert_eq!(f.ryw_violations, 0, "k=0 must behave exactly like `fresh`");
        }
        t.row(&[
            label.to_string(),
            format!("{:.0}", tps(f.reads, secs)),
            f.ryw_violations.to_string(),
            m.counters.fresh_filtered_stale.to_string(),
            m.counters.freshness_waits.to_string(),
            m.counters.fresh_fallback_primary.to_string(),
            f.read_latency.quantile_us(0.5).to_string(),
            f.read_latency.quantile_us(0.99).to_string(),
        ]);
    }
    t.print();

    // -- (f) appended: monotonic reads for sessions that don't write --
    println!(
        "\n  (f) monotonic reads — same fleet, but the master joins the read\n  rotation, shipping slowed to 200 ms (several reads fit inside one\n  lag window), and every second session is a pure *observer*: it\n  never writes and watches a neighbor's key. RYW freshness is vacuous\n  for an observer (no own commit to anchor the stamp), so under `any`\n  AND under `fresh` its view can go backwards — read the fresh\n  master, then a lagged slave. `monotonic` folds the highest position\n  a session has read into its stamp; a session that has read the\n  master pins there (the middleware cannot bound what a master read\n  saw).\n"
    );
    let mut t = Table::new(&[
        "policy",
        "read tps",
        "monotonic viol",
        "ryw viol",
        "stale cut",
        "waits",
        "p50 r µs",
        "p99 r µs",
    ]);
    for (label, policy) in [
        ("any", ReadPolicy::Any),
        ("fresh", ReadPolicy::Fresh),
        ("monotonic", ReadPolicy::MonotonicReads),
    ] {
        let (f, m) = e19_monotonic_arm(120, 4, policy, 200, secs);
        if policy == ReadPolicy::MonotonicReads {
            assert_eq!(f.monotonic_violations, 0, "monotonic arm went backwards");
            assert_eq!(f.ryw_violations, 0, "monotonic arm broke RYW");
        }
        t.row(&[
            label.to_string(),
            format!("{:.0}", tps(f.reads, secs)),
            f.monotonic_violations.to_string(),
            f.ryw_violations.to_string(),
            m.counters.fresh_filtered_stale.to_string(),
            m.counters.freshness_waits.to_string(),
            f.read_latency.quantile_us(0.5).to_string(),
            f.read_latency.quantile_us(0.99).to_string(),
        ]);
    }
    t.print();
}

/// One monotonic-reads arm for E19(f): like [`e19_arm`] but with the
/// master in the read rotation (`read_master: true`, where going backwards
/// actually happens — lockstep shipping keeps the slaves within jitter of
/// each other) and half the fleet as write-free observer sessions. No
/// fault injection: the anomaly is pure routing.
fn e19_monotonic_arm(
    sessions: usize,
    backends: usize,
    policy: ReadPolicy,
    ship_ms: u64,
    secs: u64,
) -> (FleetMetrics, MwMetrics) {
    let mut cfg = ClusterConfig::new(
        Mode::MasterSlave {
            two_safe: false,
            ship_interval_us: ship_ms * 1_000,
            use_writesets: false,
            parallel_apply: false,
            read_master: true,
        },
        micro::schema("bench", sessions),
        "bench",
    );
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.read_policy = policy;
    cfg.backends_per_mw = backends;
    let mut cluster = Cluster::build(cfg);
    let fleet = cluster.add_session_fleet(0, sessions, |fc| {
        fc.think_time_us = 45_000;
        fc.write_permille = 200;
        fc.ramp_us = 1_000_000;
        fc.observer_every = 2;
    });
    cluster.run_for(dur::secs(secs));
    (cluster.fleet_metrics(fleet), cluster.mw_metrics(0))
}

// ---------------------------------------------------------------------
// E20 — durable WAL + checkpoint recovery: measured MTTR
// ---------------------------------------------------------------------

/// Sequential inserts spread over 4 disjoint tables (same shape as E9's
/// workload, distinct id blocks per client).
struct E20Source {
    next: i64,
}

impl replimid_core::TxSource for E20Source {
    fn next_tx(&mut self, _r: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k % 4)]
    }
}

/// One crash/recovery episode against a durable 3-backend statement-mode
/// cluster. Returns the filled table row plus the recovered backend's
/// wal/recovery numbers for the summary asserts.
#[allow(clippy::too_many_arguments)]
fn e20_episode(
    checkpoint_every: u64,
    kind: CrashKind,
    truncate_log: bool,
) -> Vec<String> {
    let mut schema = vec!["CREATE DATABASE bench".to_string(), "USE bench".to_string()];
    for i in 0..4 {
        schema.push(format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)"));
    }
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema,
        "bench",
    );
    cfg.mw.recovery_batch = 256;
    // Real durability under every backend: WAL mirrored from the binlog,
    // fsync every 8 records (so lossy crash kinds have an unsynced tail to
    // destroy), checkpoints every `checkpoint_every` commits (0 = never:
    // recovery replays the whole log from the schema image).
    cfg.engine.durability = Some(DurabilityConfig { checkpoint_every, fsync_every: 8, ..Default::default() });
    let mut cluster = Cluster::build(cfg);
    for i in 0..4 {
        cluster.add_client(E20Source { next: 10_000_000 * (i + 1) }, |cc| {
            cc.think_time_us = 400;
            // Finite load: clients stop after 2000 transactions (~7 virtual
            // seconds), so the tail of the run drains to quiescence and the
            // end-of-run checksum comparison sees settled state rather than
            // in-flight statements.
            cc.tx_limit = 2_000;
        });
    }
    // 2s of load, then the injected crash; 500ms outage; the rest of the
    // run covers local replay + middleware rejoin.
    cluster.run_for(dur::secs(2));
    // Closed-loop pacing synchronizes the cluster with the checkpoint
    // cadence: a fixed crash instant tends to land in the post-checkpoint
    // lull where the WAL is empty and a lossy crash has nothing to
    // destroy. Step forward (deterministically) until the WAL carries an
    // unsynced tail so `lost-tail`/`torn-tail` hit the window they are
    // meant to test; `clean` uses the same instant for comparability.
    let mut pre_wal = cluster.backend_wal_stats(0, 2).expect("durability on");
    for _ in 0..400 {
        if pre_wal.wal_records >= 4 && pre_wal.wal_bytes > pre_wal.wal_synced_bytes {
            break;
        }
        cluster.run_for(500);
        pre_wal = cluster.backend_wal_stats(0, 2).expect("durability on");
    }
    let tail_exposed = pre_wal.wal_bytes > pre_wal.wal_synced_bytes;
    let pre_pos = cluster.backend_ordered_applied(0, 2);
    cluster.crash_backend_with(cluster.now() + 1, 0, 2, kind);
    cluster.run_for(dur::millis(250));
    if truncate_log {
        // Operator-forced log truncation mid-outage: the rejoiner's
        // checkpoint falls below the boundary and log recovery must
        // escalate to a full resync (the PR 5 truncated-rejoin path, now
        // exercised against a node that ALSO lost local WAL tail).
        cluster.with_middleware(0, |m| {
            let head = m.log().head();
            m.log().force_truncate(head);
        });
    }
    cluster.run_for(dur::millis(250));
    cluster.restart_backend_at(cluster.now() + 1, 0, 2);
    cluster.run_for(dur::secs(10));

    let rec = cluster.backend_recovery(0, 2).expect("backend 2 restarted durably");
    let lost_local = pre_pos.saturating_sub(rec.report.ordered_applied);
    let mw = cluster.mw_metrics(0);
    let rejoin_ms = mw
        .recoveries
        .iter()
        .find(|&&(b, _, _)| b == 2)
        .map(|&(_, s, e)| format!("{:.0}", (e - s) as f64 / 1e3))
        .unwrap_or_else(|| "STUCK".into());
    // The hard promise of the whole subsystem: whatever the crash destroyed
    // locally, the recovered replica converges back to the cluster state —
    // zero committed transactions lost.
    // A lossy crash aimed at an exposed (unsynced) tail must actually lose
    // something locally — otherwise the episode silently tested nothing.
    if tail_exposed && kind != CrashKind::Clean {
        assert!(
            lost_local > 0,
            "E20: {} crash over an unsynced WAL tail lost no local state \
             (ckpt_every={checkpoint_every})",
            kind.name()
        );
    }
    let sums = cluster.backend_checksums();
    assert!(
        sums[0].windows(2).all(|w| w[0] == w[1]),
        "E20: backends diverged after {} crash (ckpt_every={checkpoint_every}): {:?}",
        kind.name(),
        sums[0]
    );
    vec![
        if checkpoint_every == 0 { "never".into() } else { checkpoint_every.to_string() },
        kind.name().to_string(),
        pre_wal.wal_records.to_string(),
        if rec.report.checkpoint_loaded { rec.report.checkpoint_rows.to_string() } else { "-".into() },
        rec.report.entries_replayed.to_string(),
        if rec.report.torn_truncated { "yes".into() } else { "no".into() },
        lost_local.to_string(),
        format!("{:.1}", rec.local_us as f64 / 1e3),
        rejoin_ms,
    ]
}

fn e20_durability() {
    banner(
        "E20",
        "durable WAL + checkpoint recovery: measured MTTR (crash kind x checkpoint interval)",
    );
    println!(
        "  Every backend runs on a simulated block device: committed work is\n  mirrored into a checksummed WAL (fsync every 8 records), checkpoints\n  snapshot the engine and truncate the log. A crash destroys what real\n  crashes destroy — `clean` loses nothing, `lost-tail` drops everything\n  past the last fsync, `torn-tail` additionally leaves a half-written\n  record that recovery truncates at the first bad checksum. MTTR is\n  *measured*, not modeled: `local ms` is the restart's checkpoint load +\n  WAL replay + device IO in virtual time (Stage::Replay); `rejoin ms` is\n  the middleware resyncing the remainder through the recovery log, which\n  restarts from the NODE's reported position — after a lossy crash the\n  node is behind the middleware's own checkpoint (§4.4.2: only the\n  database knows what committed). `lost@node` counts ordered statements\n  the crash destroyed locally; every row must still converge to the\n  cluster checksum (zero committed loss), they are just re-fetched.\n"
    );
    let mut t = Table::new(&[
        "ckpt every",
        "crash",
        "wal recs",
        "ckpt rows",
        "replayed",
        "torn cut",
        "lost@node",
        "local ms",
        "rejoin ms",
    ]);
    for checkpoint_every in [16u64, 256, 0] {
        for kind in [CrashKind::Clean, CrashKind::LostTail, CrashKind::TornTail] {
            t.row(&e20_episode(checkpoint_every, kind, false));
        }
    }
    t.print();

    // The escalation path: log truncated past the rejoiner's checkpoint
    // while it was down AND the node lost its own WAL tail — log replay is
    // impossible, the middleware must ship a full dump, and the node
    // checkpoints the restored image so a later crash cannot resurrect
    // pre-resync state.
    println!(
        "\n  truncated-rejoin escalation: the recovery log is force-truncated\n  mid-outage, so the torn-tail rejoiner cannot log-replay and takes the\n  dump-and-restore path instead (checkpointed on arrival):\n"
    );
    let mut t = Table::new(&[
        "ckpt every",
        "crash",
        "wal recs",
        "ckpt rows",
        "replayed",
        "torn cut",
        "lost@node",
        "local ms",
        "rejoin ms",
    ]);
    t.row(&e20_episode(64, CrashKind::TornTail, true));
    t.print();
    println!();
}

// ---------------------------------------------------------------------
// E21 — plan-cache campaign: cache capacity x statement-template count
// ---------------------------------------------------------------------

/// Fresh-key single-row inserts cycled round-robin over `templates`
/// disjoint tables: every statement is a new literal, so text-keyed
/// caching would never hit — only the normalized (literals-to-params)
/// key gives the cache a chance, and the round-robin cycle is LRU's
/// worst case the moment the template count exceeds the capacity.
struct TemplateCycle {
    next: i64,
    templates: usize,
}

impl replimid_core::TxSource for TemplateCycle {
    fn next_tx(&mut self, _rng: &mut replimid_det::DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        vec![format!("INSERT INTO t{} VALUES ({k}, 1)", k as usize % self.templates)]
    }
}

/// One E21 cell: statement-mode multi-master over `templates` disjoint
/// tables, 8 closed-loop clients, plan cache of the given capacity
/// (0 = no reuse).
fn e21_arm(plan_cache: usize, templates: usize, secs: u64) -> replimid_core::MwMetrics {
    let mut schema = vec!["CREATE DATABASE bench".to_string(), "USE bench".to_string()];
    for i in 0..templates {
        schema.push(format!("CREATE TABLE t{i} (k INT PRIMARY KEY, v INT)"));
    }
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema,
        "bench",
    );
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.plan_cache = plan_cache;
    let mut cluster = Cluster::build(cfg);
    for i in 0..8 {
        // Phase-offset the cycles (client i starts T*i/8 templates in), so
        // the global access pattern interleaves 8 spread positions instead
        // of 8 lockstep ones — the realistic shape, and the one where
        // capacity genuinely decides the hit rate.
        let phase = (templates as i64 * i as i64) / 8;
        cluster.add_client(
            TemplateCycle { next: 10_000_000 * (i as i64 + 1) + phase, templates },
            |cc| {
                cc.think_time_us = 100;
                cc.request_timeout_us = 2_000_000;
            },
        );
    }
    run_and_drain(&mut cluster, secs);
    cluster.mw_metrics(0)
}

fn e21_plan_cache() {
    banner("E21", "plan cache: capacity x distinct templates (hit rate vs speedup)");
    let secs = 5u64;
    println!(
        "  Single-row inserts cycling over T disjoint tables (T distinct\n  statement templates, fresh literals every statement), 8 clients, 3\n  replicas, {secs}s per cell. With the cache on the middleware\n  normalizes each statement (literals -> params) and consults a\n  bounded-LRU plan cache; in every cell it ships the parsed statement,\n  so no backend parses anything. Cycling access is LRU's worst case:\n  the moment T exceeds the capacity the hit rate collapses to zero and\n  every statement pays a miss plus an eviction, which is why capacity\n  sits on the row axis of a real deployment's sizing decision.\n"
    );
    let mut t = Table::new(&[
        "cache",
        "templates",
        "hit %",
        "evictions",
        "write tps",
        "vs off",
        "p50 w µs",
        "p99 w µs",
    ]);
    for templates in [4usize, 32, 128] {
        let mut off_tps = 0.0f64;
        for cache in [0usize, 8, 64, 256] {
            let mw = e21_arm(cache, templates, secs);
            let wtps = tps(mw.counters.writes, secs);
            if cache == 0 {
                off_tps = wtps;
            }
            let lookups = mw.counters.plan_cache_hits + mw.counters.plan_cache_misses;
            t.row(&[
                if cache == 0 { "off".into() } else { cache.to_string() },
                templates.to_string(),
                if lookups == 0 {
                    "-".into()
                } else {
                    format!(
                        "{:.1}",
                        100.0 * mw.counters.plan_cache_hits as f64 / lookups as f64
                    )
                },
                mw.counters.plan_cache_evictions.to_string(),
                format!("{wtps:.0}"),
                format!("{:.2}x", wtps / off_tps.max(1e-9)),
                mw.write_latency.quantile_us(0.5).to_string(),
                mw.write_latency.quantile_us(0.99).to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "  (Every cell, `off` included, ships the admission-time parse, so the\n   virtual-time columns are flat in hit rate by construction: what a\n   hit buys over a miss or `off` is wall-clock middleware CPU, outside\n   the simulator's cost model (admission is a zero-width stage). The\n   repo benchmark's sql.plan.hit_ns / miss_ns / sql.parser.parse_ns\n   probes price it: for statements this small a hit (normalize+bind)\n   costs about half a miss but about the same as one plain parse, so\n   admission CPU is roughly unchanged; the pipeline's win is the\n   backend parses it removes, at every capacity.)\n"
    );
}

// ---------------------------------------------------------------------
// E22 — partial replication: write scaling on disjoint groups + the
// cross-group commit tax
// ---------------------------------------------------------------------

/// One E22 cell: writeset-mode cluster with `per_group` closed-loop
/// insert clients per table group (client i homed on group i % groups),
/// an optional placement, an optional fraction of paired cross-group
/// transactions, and a backend CPU cost multiplier (the scaling arm
/// slows the backends so replicated apply work — not client count — is
/// what limits write throughput).
fn e22_arm(
    groups: usize,
    backends: usize,
    placement: Option<Placement>,
    per_group: usize,
    multi_fraction: f64,
    speed_factor: f64,
    secs: u64,
) -> (replimid_bench::Agg, MwMetrics) {
    let cfg = {
        let mut cfg = partial_ws_cfg(groups, backends, placement);
        cfg.mw.policy = Policy::RoundRobin;
        cfg.backend_speed = vec![speed_factor];
        cfg
    };
    let mut cluster = Cluster::build(cfg);
    let clients: Vec<NodeId> = (0..per_group * groups)
        .map(|i| {
            let src = micro::DisjointInsert::new(1_000_000 * (i as i64 + 1), i % groups)
                .with_multi(multi_fraction);
            cluster.add_client(src, |cc| {
                cc.think_time_us = 200;
                cc.request_timeout_us = 2_000_000;
            })
        })
        .collect();
    run_and_drain(&mut cluster, secs);
    (aggregate(&mut cluster, &clients), cluster.mw_metrics(0))
}

fn e22_partial_replication() {
    banner("E22", "partial replication: per-group sequencers vs the global total order");
    let secs = 5u64;
    println!(
        "  Fresh-key inserts over B disjoint tables (one table group each, six\n  closed-loop clients per group, backends costed at 4x CPU so apply\n  work is the bottleneck, {secs}s per cell). `global` is full\n  replication — one sequencer, every write applied at every backend, so\n  adding backends adds apply work as fast as it adds capacity and write\n  throughput saturates at ONE backend's apply rate. `partial` stripes\n  group g onto backend g % B (one replica): disjoint groups get their\n  own sequencer, certifier shard, and recovery-log stream, and a write\n  is applied only where its group lives — per-backend apply load stays\n  constant as B grows.\n"
    );
    let mut t = Table::new(&[
        "backends",
        "global tps",
        "partial tps",
        "speedup",
        "global p99 µs",
        "partial p99 µs",
    ]);
    let mut partial_by_b = Vec::new();
    for b in [2usize, 4, 8] {
        let (ga, _) = e22_arm(b, b, None, 6, 0.0, 4.0, secs);
        let (pa, _) = e22_arm(b, b, Some(striped_placement(b, b, 1)), 6, 0.0, 4.0, secs);
        let gtps = tps(ga.committed, secs);
        let ptps = tps(pa.committed, secs);
        partial_by_b.push((b, ptps, gtps));
        t.row(&[
            b.to_string(),
            format!("{gtps:.0}"),
            format!("{ptps:.0}"),
            format!("{:.2}x", ptps / gtps.max(1e-9)),
            ga.p99_tx_us.to_string(),
            pa.p99_tx_us.to_string(),
        ]);
    }
    t.print();
    let (b0, p0, g0) = partial_by_b[0];
    let (bn, pn, gn) = partial_by_b[partial_by_b.len() - 1];
    println!(
        "  write scaling {b0} -> {bn} backends: partial {:.2}x, global {:.2}x\n",
        pn / p0.max(1e-9),
        gn / g0.max(1e-9)
    );

    // The tax knob: 4 backends, paired host sets ({0,1} for groups 0+1,
    // {2,3} for groups 2+3), and a rising fraction of transactions that
    // write both partner tables — each one needs a prepare slot in both
    // groups' streams and commits only when every involved group votes
    // yes (the 2PC-ish path, Stage::CrossGroupWait).
    println!(
        "  cross-group commit tax: same cluster shape (4 backends, 4 groups,\n  partner pairs co-hosted), sweeping the fraction of transactions that\n  write both partner tables in one atomic commit:\n"
    );
    let paired = || {
        Placement::new(vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![2, 3]])
            .assign("t0", 0)
            .assign("t1", 1)
            .assign("t2", 2)
            .assign("t3", 3)
    };
    let mut t = Table::new(&[
        "multi %",
        "tps",
        "vs 0%",
        "xgroup commits",
        "xgroup aborts",
        "mean tx µs",
        "p99 tx µs",
    ]);
    let mut base_tps = 0.0f64;
    for f in [0.0f64, 0.1, 0.2, 0.3] {
        let (agg, mw) = e22_arm(4, 4, Some(paired()), 2, f, 1.0, secs);
        let wtps = tps(agg.committed, secs);
        if f == 0.0 {
            base_tps = wtps;
        }
        t.row(&[
            format!("{:.0}", f * 100.0),
            format!("{wtps:.0}"),
            format!("{:.2}x", wtps / base_tps.max(1e-9)),
            mw.counters.xgroup_commits.to_string(),
            mw.counters.xgroup_aborts.to_string(),
            format!("{:.0}", agg.mean_tx_us),
            agg.p99_tx_us.to_string(),
        ]);
    }
    t.print();

    println!(
        "  (Full replication is the one-group placement hosted everywhere: the\n   no-placement arms above and E1-E21 run this same per-group pipeline\n   with G = 1, and the trivial_placement_is_byte_identical test asserts\n   that no placement and the explicit one-group placement agree on\n   every counter, certifier stat and checksum.)\n"
    );
}

// ---------------------------------------------------------------------
// E23 — elasticity under open-loop load: what a management operation
// costs while traffic keeps arriving (§5.1's "cost of management
// operations", measured instead of asserted)
// ---------------------------------------------------------------------

/// Windowed cost of one management operation, extracted from the driver's
/// per-second series. All times are virtual seconds.
struct OpCost {
    /// Completions/s over the pre-op baseline window.
    baseline_tps: f64,
    /// Worst single-second throughput dip after the op, as a fraction of
    /// baseline (0 = no dip).
    dip_depth: f64,
    /// Seconds spent below 90% of baseline after the op.
    dip_secs: usize,
    /// Sojourn p99 over the baseline window / over the op window.
    p99_base_us: u64,
    p99_op_us: u64,
    /// Seconds from the op until throughput sustains >= 95% of baseline
    /// for two consecutive seconds (-1 = never inside the window).
    recover_s: i64,
    /// Arrivals shed from the op onward: overload made visible.
    shed: u64,
}

fn op_cost(m: &replimid_workload::OpenLoopMetrics, base: (usize, usize), op_s: usize, end_s: usize) -> OpCost {
    let sec = |s: usize| *m.per_sec_completed.get(s).unwrap_or(&0) as f64;
    let (b0, b1) = base;
    let baseline_tps = m.completed_in(b0, b1) as f64 / (b1 - b0).max(1) as f64;
    let mut min_tps = f64::MAX;
    for s in op_s..end_s {
        min_tps = min_tps.min(sec(s));
    }
    let dip_depth = ((baseline_tps - min_tps) / baseline_tps.max(1e-9)).max(0.0);
    let dip_secs = (op_s..end_s).filter(|&s| sec(s) < 0.9 * baseline_tps).count();
    let p99_base_us = m.window_quantile_us(b0, b1, 0.99);
    let p99_op_us = m.window_quantile_us(op_s, (op_s + 6).min(end_s), 0.99);
    // Recovery = time until throughput is *permanently* back above 95% of
    // baseline within the window (the last bad second, plus one).
    let recover_s = match (op_s..end_s).rev().find(|&s| sec(s) < 0.95 * baseline_tps) {
        None => 0,
        Some(s) if s + 1 >= end_s => -1,
        Some(s) => (s + 1 - op_s) as i64,
    };
    let shed = m.per_sec_shed.iter().skip(op_s).take(end_s - op_s).sum();
    OpCost { baseline_tps, dip_depth, dip_secs, p99_base_us, p99_op_us, recover_s, shed }
}

fn cost_row(t: &mut Table, label: &str, c: &OpCost) {
    t.row(&[
        label.to_string(),
        format!("{:.0}", c.baseline_tps),
        format!("{:.0}%", c.dip_depth * 100.0),
        c.dip_secs.to_string(),
        c.p99_base_us.to_string(),
        c.p99_op_us.to_string(),
        format!("{:.2}x", c.p99_op_us as f64 / c.p99_base_us.max(1) as f64),
        if c.recover_s < 0 { "never".into() } else { format!("{}s", c.recover_s) },
        c.shed.to_string(),
    ]);
}

/// One elasticity arm: a 3-backend statement-replicated cluster under an
/// open-loop Poisson load, with admin operations injected mid-run and an
/// optional gray-fault (brownout) window on backend 2.
fn e23_arm(
    rate: f64,
    initial_removed: Vec<usize>,
    ops: Vec<(u64, AdminCmd)>,
    gray: Option<(u64, u64)>,
    secs: u64,
    stop_s: u64,
) -> (replimid_workload::OpenLoopMetrics, MwMetrics) {
    let mut schema = micro::schema("bench", 100);
    // Writes land in their own table, so the read table stays at its 100
    // rows whatever the run inserts.
    schema.push("CREATE TABLE olw (k INT PRIMARY KEY, v INT NOT NULL)".to_string());
    let mut cfg = ClusterConfig::new(
        Mode::MultiMasterStatement { nondet: NondetPolicy::RewriteAndReject },
        schema,
        "bench",
    );
    cfg.backends_per_mw = 3;
    cfg.mw.policy = Policy::RoundRobin;
    cfg.mw.quarantine = Some(QuarantineConfig::default());
    cfg.mw.initial_removed = initial_removed;
    // Backends costed at 39x CPU (the E22 idiom): a point read (23 µs as
    // a plan) is ~0.9 ms on every replica, so 1700/s keeps three backends
    // about two-thirds busy and two about nine-tenths. Capacity sits near
    // the arrival rate: losing or gaining a replica moves the needle.
    cfg.backend_speed = vec![39.0];
    let mut cluster = Cluster::build(cfg);
    let mut olc = replimid_workload::OpenLoopConfig::new(
        replimid_workload::ArrivalProcess::Poisson { rate_per_sec: rate },
    );
    olc.seed = 23;
    olc.write_permille = 100;
    olc.read_keys = 100;
    olc.write_table = "olw".to_string();
    olc.max_inflight = 64;
    olc.queue_max = 512;
    olc.stop_at_us = stop_s * 1_000_000;
    let driver = replimid_workload::add_open_loop(&mut cluster, 0, olc);
    for (at_us, cmd) in ops {
        cluster.admin_at(SimTime(at_us), 0, cmd);
    }
    if let Some((from_us, to_us)) = gray {
        cluster.brownout_backend_at(SimTime(from_us), 0, 2, 10.0);
        cluster.clear_brownout_at(SimTime(to_us), 0, 2);
    }
    cluster.run_for(dur::secs(secs));
    let m = replimid_workload::open_loop_metrics(&mut cluster, driver);
    if std::env::var("E23_DEBUG").is_ok() {
        eprintln!("completed/s {:?}", m.per_sec_completed);
        eprintln!("shed/s      {:?}", m.per_sec_shed);
    }
    (m, cluster.mw_metrics(0))
}

fn e23_elasticity() {
    banner("E23", "elasticity: management operations under open-loop load");
    let secs = 26u64;
    let stop_s = 24u64;
    let base = (4usize, 8usize);
    let op_s = 10usize;
    let end_s = stop_s as usize;

    // -- (a) management-operation cost table ----------------------------
    println!(
        "  Open-loop Poisson arrivals (the driver never waits: arrivals keep\n  coming at the configured rate, a 64-deep admission stage plus a\n  512-slot queue buffer bursts, and anything beyond that is SHED and\n  counted). 3 statement-replicated backends, 10% writes, op at t=10s,\n  baseline window 4..8s (before the
  gray arm's brownout onset). Dip depth is the worst one-second throughput\n  drop vs baseline; recovery is the first sustained return to 95%.\n"
    );
    let mut t = Table::new(&[
        "operation",
        "base tps",
        "dip",
        "dip s",
        "p99 base µs",
        "p99 op µs",
        "infl",
        "recover",
        "shed",
    ]);

    // Control: no operation at all (dip/shed must be ~0: the yardstick).
    let (m, _) = e23_arm(1_700.0, vec![], vec![], None, secs, stop_s);
    cost_row(&mut t, "none (control)", &op_cost(&m, base, op_s, end_s));

    // Scale-out: backend 2 starts Removed (spare), joins under load and
    // resyncs via the recovery machinery.
    let (m, mw) = e23_arm(
        1_700.0,
        vec![2],
        vec![(10_000_000, AdminCmd::AddBackend { backend: BackendId(2) })],
        None,
        secs,
        stop_s,
    );
    assert_eq!(mw.counters.backends_added, 1, "E23 add arm: join did not happen");
    cost_row(&mut t, "add backend", &op_cost(&m, base, op_s, end_s));

    // Scale-in: drain backend 1 gracefully (in-flight work completes).
    let (m, mw) = e23_arm(
        1_700.0,
        vec![],
        vec![(10_000_000, AdminCmd::DrainBackend { backend: BackendId(1) })],
        None,
        secs,
        stop_s,
    );
    assert_eq!(mw.counters.drains_completed, 1, "E23 drain arm: drain did not finish");
    assert_eq!(mw.counters.lost_transactions, 0, "E23 drain arm lost transactions");
    cost_row(&mut t, "drain backend", &op_cost(&m, base, op_s, end_s));

    // Rolling restart: drain + re-add backends 1 and 2 in sequence, the
    // way a fleet takes a software upgrade.
    let (m, mw) = e23_arm(
        1_700.0,
        vec![],
        vec![
            (10_000_000, AdminCmd::DrainBackend { backend: BackendId(1) }),
            (13_000_000, AdminCmd::AddBackend { backend: BackendId(1) }),
            (16_000_000, AdminCmd::DrainBackend { backend: BackendId(2) }),
            (19_000_000, AdminCmd::AddBackend { backend: BackendId(2) }),
        ],
        None,
        secs,
        stop_s,
    );
    assert_eq!(mw.counters.drains_completed, 2, "E23 rolling arm: a drain did not finish");
    assert_eq!(mw.counters.backends_added, 2, "E23 rolling arm: a re-add did not happen");
    cost_row(&mut t, "rolling restart", &op_cost(&m, base, op_s, end_s));

    // Composed with the PR 2 gray scheduler: backend 2 browns out (10x
    // service time) at 8s and the drain of backend 1 lands at 10s — the
    // elasticity operation happens DURING the brownout, with the breaker
    // and the drain machinery working the same rotation. The operator
    // scales back out (re-adds backend 1) at 16s, after the brownout
    // clears.
    let (m, mw) = e23_arm(
        1_700.0,
        vec![],
        vec![
            (10_000_000, AdminCmd::DrainBackend { backend: BackendId(1) }),
            (16_000_000, AdminCmd::AddBackend { backend: BackendId(1) }),
        ],
        Some((8_000_000, 14_000_000)),
        secs,
        stop_s,
    );
    assert_eq!(mw.counters.drains_completed, 1, "E23 gray arm: drain did not finish");
    cost_row(&mut t, "drain + gray b2", &op_cost(&m, base, op_s, end_s));
    t.print();

    // -- (b) overload is visible, not absorbed --------------------------
    println!(
        "\n  (b) the same cluster at ~2x the sustainable arrival rate: a closed\n  loop would slow its own offered load to match capacity and report a\n  modest latency bump; the open loop keeps arriving, fills the queue,\n  and sheds the excess — the overload signal operators actually see.\n"
    );
    let mut t = Table::new(&["rate/s", "arrivals", "completed", "shed", "p99 µs"]);
    for rate in [1_700.0f64, 5_000.0] {
        let (m, _) = e23_arm(rate, vec![], vec![], None, 14, 12);
        t.row(&[
            format!("{rate:.0}"),
            m.arrivals.to_string(),
            m.completed_ok.to_string(),
            m.shed.to_string(),
            m.sojourn.quantile_us(0.99).to_string(),
        ]);
    }
    t.print();

    // -- (c) WAN multi-site arm: examples/wan_sites.rs as data ----------
    println!(
        "\n  (c) three sites (EU/US/Asia), one backend per middleware, synchronous\n  statement ordering across sites; the open-loop driver is colocated\n  with the site-1 middleware, so every write (30% of arrivals) pays the\n  cross-ocean trip to the ordering site. The LAN cluster answers in\n  under a millisecond at every rate; the WAN cluster's p50 is 33ms at\n  600/s and 262ms at 1200/s — every in-flight slot tied up in ~160ms\n  ordering round trips — where it starts to shed. (Fig. 4's\n  '1-copy-serializability is unlikely to be successful in the WAN',\n  measured under load that does not politely slow down.)\n"
    );
    let mut t = Table::new(&["net", "rate/s", "completed tps", "p50 µs", "p99 µs", "shed"]);
    for wan in [false, true] {
        for rate in [150.0f64, 600.0, 1_200.0] {
            let mut cfg = mm_statement_cfg(100);
            cfg.backends_per_mw = 1;
            cfg.middlewares = 3;
            let mut cluster = Cluster::build(cfg);
            let mut olc = replimid_workload::OpenLoopConfig::new(
                replimid_workload::ArrivalProcess::Poisson { rate_per_sec: rate },
            );
            olc.seed = 4;
            olc.write_permille = 300;
            olc.read_keys = 100;
            olc.max_inflight = 32;
            olc.queue_max = 256;
            olc.stop_at_us = 10_000_000;
            // The driver lives at site 1, not the ordering site: its
            // writes cross the ocean to get their total-order slot.
            let driver = replimid_workload::add_open_loop(&mut cluster, 1, olc);
            if wan {
                // Sites: db i + mw i = site i; the driver shares site 1.
                let site_of = move |n: NodeId| -> usize {
                    if n == driver {
                        1
                    } else if n.0 < 3 {
                        n.0
                    } else {
                        n.0 - 3
                    }
                };
                let all: Vec<NodeId> =
                    (0..cluster.sim.node_count()).map(NodeId).collect();
                for &a in &all {
                    for &b in &all {
                        if a != b && site_of(a) != site_of(b) {
                            cluster.sim.net.set_link(a, b, LinkSpec::wan());
                        }
                    }
                }
            }
            cluster.run_for(dur::secs(13));
            let m = replimid_workload::open_loop_metrics(&mut cluster, driver);
            t.row(&[
                if wan { "WAN" } else { "LAN" }.to_string(),
                format!("{rate:.0}"),
                format!("{:.0}", tps(m.completed_ok, 10)),
                m.sojourn.quantile_us(0.5).to_string(),
                m.sojourn.quantile_us(0.99).to_string(),
                m.shed.to_string(),
            ]);
        }
    }
    t.print();
}
