//! Layer probes: wall-clock cost of one layer's public function in
//! isolation, fed the first `PROBE_TXS` transactions the workload's own
//! generator produced. Each probe is timed over its whole input and
//! reported per call; the median of `PASSES` passes is kept.
//!
//! A faster layer saves at most its share of `wall_us_per_op` (probe ns ×
//! calls per operation), which is what these numbers are for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use replimid_core::cluster::build_engine;
use replimid_core::{Certifier, SessionTable, TxSource};
use replimid_gcs::{GcsConfig, GroupMember, MemberId, OrderProtocol, ShardedMember};
use replimid_simnet::{Actor, Ctx, NetworkModel, NodeId, Sim};
use replimid_sql::wal::DurableStore;
use replimid_sql::{
    bind, normalize, parse_statement, BinlogEntry, CachedPlan, ConnId, Engine, EngineConfig,
    PlanCache, Statement, Writeset, ADMIN_PASSWORD, ADMIN_USER,
};

use crate::stats::median;
use crate::workloads::{
    crash_recover, gen, open, open_ladder, partial_xgroup, read_fleet, write_sat,
};
use crate::workloads::{Opts, Tracer};

const PROBE_TXS: usize = 20_000;
const PASSES: usize = 3;

/// Median over `PASSES` of `pass()`, which returns (wall ns, calls).
fn per_call_ns(mut pass: impl FnMut() -> (u128, usize)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (ns, calls) = pass();
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed(f: impl FnOnce()) -> u128 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos()
}

struct Input {
    schema: Vec<String>,
    txs: Vec<Vec<String>>,
    gen_ns_per_tx: f64,
}

fn input(workload: &str, o: &Opts) -> Input {
    let n = o.scaled(PROBE_TXS as u64) as usize;
    let make = || -> (Vec<String>, Vec<Box<dyn TxSource>>) {
        match workload {
            "write-sat" => (write_sat::schema(), write_sat::sources(o.seed)),
            "read-fleet" => (read_fleet::schema(o), read_fleet::sources(o)),
            "partial-xgroup" => (partial_xgroup::schema(), partial_xgroup::sources(o.seed)),
            "open-ladder" => (open::schema(), open_ladder::sources(o.seed)),
            "crash-recover" => (open::schema(), crash_recover::sources(o.seed)),
            other => unreachable!("unknown workload {other}"),
        }
    };
    let gen_ns_per_tx = per_call_ns(|| {
        let (_, mut sources) = make();
        (
            timed(|| drop(black_box(gen::interleave(&mut sources, n)))),
            n,
        )
    });
    let (schema, mut sources) = make();
    Input {
        schema,
        txs: gen::interleave(&mut sources, n),
        gen_ns_per_tx,
    }
}

fn engine_with(schema: &[String]) -> (Engine, ConnId) {
    let mut e = build_engine(EngineConfig::default(), schema);
    let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
    e.execute(c, "USE bench")
        .expect("schema created the bench database");
    (e, c)
}

/// Run the probes that apply to `workload`.
pub fn run(workload: &str, o: &Opts, t: &mut Tracer) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let inp = t.phase("probe.workload.gen", |_| input(workload, o));
    out.insert("workload.gen_ns_per_tx".to_string(), inp.gen_ns_per_tx);
    let stmts: Vec<&String> = inp.txs.iter().flatten().collect();

    t.phase("probe.sql.parser", |_| {
        let ns = per_call_ns(|| {
            (
                timed(|| {
                    for s in &stmts {
                        black_box(parse_statement(black_box(s)).expect("generated SQL parses"));
                    }
                }),
                stmts.len(),
            )
        });
        out.insert("sql.parser.parse_ns".to_string(), ns);
    });

    t.phase("probe.sql.plan", |_| {
        // Only DML normalizes; BEGIN/COMMIT take the plain parse path.
        let dml: Vec<&String> = stmts
            .iter()
            .copied()
            .filter(|s| normalize(s).is_some())
            .collect();
        // The cached path as the middleware runs it: a template that was
        // evicted (read-fleet has more templates than the 256 slots) is
        // prepared and inserted again.
        let mut cache = PlanCache::new(256);
        let mut lookup = |s: &String| {
            let nf = normalize(black_box(s)).expect("filtered above");
            let plan = cache.get(&nf.key).unwrap_or_else(|| {
                let plan = CachedPlan::prepare(&nf).expect("template parses");
                cache.insert(nf.key.clone(), plan.clone());
                plan
            });
            black_box(bind(&plan.template, &nf.params).expect("params bind"));
        };
        dml.iter().for_each(|s| lookup(s)); // warm
        let hit = per_call_ns(|| (timed(|| dml.iter().for_each(|s| lookup(s))), dml.len()));
        let miss = per_call_ns(|| {
            (
                timed(|| {
                    for s in &dml {
                        let nf = normalize(black_box(s)).expect("filtered above");
                        let plan = CachedPlan::prepare(&nf).expect("template parses");
                        black_box(bind(&plan.template, &nf.params).expect("params bind"));
                    }
                }),
                dml.len(),
            )
        });
        out.insert("sql.plan.hit_ns".to_string(), hit);
        out.insert("sql.plan.miss_ns".to_string(), miss);
    });

    // One engine with the workload's schema executes every statement; the
    // virtual cost it reports and the writesets and binlog it produces
    // feed the probes below.
    let parsed: Vec<Statement> = stmts
        .iter()
        .map(|s| parse_statement(s).expect("generated SQL parses"))
        .collect();
    let mut writesets: Vec<Writeset> = Vec::new();
    let mut binlog: Vec<BinlogEntry> = Vec::new();
    t.phase("probe.sql.engine", |_| {
        let (mut rows_read, mut cpu_us) = (0u64, 0u64);
        let ns = per_call_ns(|| {
            let (mut e, c) = engine_with(&inp.schema);
            let schema_head = e.binlog_head();
            (rows_read, cpu_us) = (0, 0);
            writesets.clear();
            let wall = timed(|| {
                for s in &parsed {
                    let r = e
                        .execute_ast(c, black_box(s))
                        .expect("generated SQL executes");
                    rows_read += r.cost.rows_read;
                    cpu_us += r.cost.cpu_us;
                    if let Some(commit) = r.commit {
                        writesets.push(commit.writeset);
                    }
                }
            });
            binlog = e.binlog_after(schema_head).unwrap_or_default();
            (wall, parsed.len())
        });
        out.insert("sql.engine.exec_ns".to_string(), ns);
        out.insert(
            "sql.engine.rows_read_per_stmt".to_string(),
            rows_read as f64 / parsed.len().max(1) as f64,
        );
        out.insert(
            "sql.engine.cpu_us_per_stmt".to_string(),
            cpu_us as f64 / parsed.len().max(1) as f64,
        );
    });

    // Probes of layers off the workload's path are skipped; the runner
    // reports a metric nobody produced as 0.
    let on = |names: &[&str]| names.contains(&workload);
    if on(&["read-fleet"]) {
        t.phase("probe.sql.engine.point_read", |_| {
            out.insert(
                "sql.engine.point_read_ns.1e2".to_string(),
                point_read_ns(100, o),
            );
            out.insert(
                "sql.engine.point_read_ns.1e4".to_string(),
                point_read_ns(10_000, o),
            );
        });
        t.phase("probe.core.session", |_| {
            let ns = session_op_ns(o.scaled(read_fleet::SESSIONS as u64));
            out.insert("core.session.op_ns".to_string(), ns);
        });
    }

    if on(&["partial-xgroup"]) {
        t.phase("probe.sql.writeset", |_| {
            let ns = per_call_ns(|| {
                let (mut e, _) = engine_with(&inp.schema);
                let wall = timed(|| {
                    for ws in &writesets {
                        black_box(
                            e.apply_writeset(black_box(ws))
                                .expect("captured writeset applies"),
                        );
                    }
                });
                (wall, writesets.len())
            });
            out.insert("sql.writeset.apply_ns".to_string(), ns);
        });
        t.phase("probe.core.certifier", |_| {
            let (e, _) = engine_with(&inp.schema);
            let ns = per_call_ns(|| {
                let mut cert = Certifier::new();
                let wall = timed(|| {
                    for ws in &writesets {
                        // A snapshot eight commits old; no key repeats,
                        // so every verdict is a commit, as in the workload.
                        let start = cert.position().saturating_sub(8);
                        black_box(cert.certify(start, black_box(ws), |db, tbl| e.pk_of(db, tbl)));
                    }
                });
                (wall, writesets.len())
            });
            out.insert("core.certifier.certify_ns".to_string(), ns);
        });
        t.phase("probe.gcs.sharded", |_| {
            let ns = per_call_ns(|| {
                let cfg = GcsConfig::lan(OrderProtocol::FixedSequencer);
                let groups = partial_xgroup::GROUPS;
                let mut m = ShardedMember::new(MemberId(0), vec![MemberId(0)], cfg, 0, groups);
                let _ = m.start(0);
                let wall = timed(|| {
                    for (i, s) in stmts.iter().enumerate() {
                        black_box(m.publish(i % groups, (*s).clone(), i as u64));
                    }
                });
                (wall, stmts.len())
            });
            out.insert("gcs.sharded.publish_ns".to_string(), ns);
        });
    }

    if on(&["crash-recover"]) {
        t.phase("probe.sql.wal", |_| {
            let commits = binlog.len().max(1) as f64;
            let ns = per_call_ns(|| {
                let mut store = DurableStore::new(crash_recover::DURABILITY);
                let wall = timed(|| {
                    for (i, entry) in binlog.iter().enumerate() {
                        store.append_commit(black_box(entry), entry.lsn.0, i as u64);
                        store.maybe_fsync();
                    }
                });
                let io = store.take_io();
                out.insert(
                    "sql.wal.bytes_per_commit".to_string(),
                    io.bytes_written as f64 / commits,
                );
                out.insert(
                    "sql.wal.fsyncs_per_commit".to_string(),
                    io.fsyncs as f64 / commits,
                );
                (wall, binlog.len())
            });
            out.insert("sql.wal.append_ns".to_string(), ns);
        });
    }

    // The workloads run one middleware replica, so a publish is ordered
    // and delivered back to the publisher in the same call.
    if on(&["write-sat", "open-ladder", "crash-recover"]) {
        t.phase("probe.gcs.member", |_| {
            let ns = per_call_ns(|| {
                let cfg = GcsConfig::lan(OrderProtocol::FixedSequencer);
                let mut m = GroupMember::new(MemberId(0), vec![MemberId(0)], cfg, 0);
                let _ = m.start(0);
                let wall = timed(|| {
                    for (i, s) in stmts.iter().enumerate() {
                        black_box(m.publish((*s).clone(), i as u64));
                    }
                });
                (wall, stmts.len())
            });
            out.insert("gcs.member.publish_ns".to_string(), ns);
        });
    }

    let raw = t.phase("probe.simnet.sim", |_| {
        sim_raw_ns_per_event(o.scaled(1_000_000))
    });
    out.insert("simnet.sim.raw_ns_per_event".to_string(), raw);
    out
}

/// Point `SELECT`s on a table of `rows` rows: flat in `rows` once a
/// planner uses the primary key, proportional to it while every read scans.
fn point_read_ns(rows: usize, o: &Opts) -> f64 {
    let mut schema = vec![
        "CREATE DATABASE bench".to_string(),
        "USE bench".to_string(),
        "CREATE TABLE p (k INT PRIMARY KEY, v INT NOT NULL)".to_string(),
    ];
    for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk.iter().map(|k| format!("({k}, 0)")).collect();
        schema.push(format!("INSERT INTO p VALUES {}", values.join(", ")));
    }
    let (mut e, c) = engine_with(&schema);
    let mut rng = gen::rng_for(o.seed, 99);
    // Fewer reads on the big table: each one scans all of it today.
    let reads: Vec<Statement> = (0..o.scaled((200_000 / rows as u64).max(100)))
        .map(|_| {
            let k = rng.gen_range(0..rows);
            parse_statement(&format!("SELECT v FROM p WHERE k = {k}")).expect("point read parses")
        })
        .collect();
    per_call_ns(|| {
        let wall = timed(|| {
            for s in &reads {
                black_box(e.execute_ast(c, black_box(s)).expect("point read executes"));
            }
        });
        (wall, reads.len())
    })
}

/// Insert, look up and remove `n` sessions (the fleet's session count).
fn session_op_ns(n: u64) -> f64 {
    per_call_ns(|| {
        let mut table: SessionTable<u64> = SessionTable::new();
        let wall = timed(|| {
            for k in 1..=n {
                table.insert(k, k);
            }
            for k in 1..=n {
                black_box(table.get(black_box(k)));
            }
            for k in 1..=n {
                black_box(table.remove(k));
            }
        });
        (wall, 3 * n as usize)
    })
}

/// Two actors bouncing one message on a bare `Sim`: the kernel's own cost
/// per event, with no replication code on top.
struct PingPong {
    peer: NodeId,
    left: u64,
    serve: bool,
}

impl Actor<u64> for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.serve {
            ctx.send(self.peer, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, n: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(self.peer, n + 1);
        }
    }
}

fn sim_raw_ns_per_event(events: u64) -> f64 {
    per_call_ns(|| {
        let mut sim: Sim<u64> = Sim::new(NetworkModel::lan(), 1);
        let a = sim.add_node(PingPong {
            peer: NodeId(1),
            left: events / 2,
            serve: true,
        });
        let b = sim.add_node(PingPong {
            peer: a,
            left: events / 2,
            serve: false,
        });
        debug_assert_eq!(b, NodeId(1));
        let wall = timed(|| sim.run_to_quiescence());
        (wall, sim.stats().events_processed as usize)
    })
}
