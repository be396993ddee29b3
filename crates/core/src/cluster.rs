//! Cluster assembly and experiment driving: builds the simulated world
//! (database nodes, middleware replicas, clients, network), exposes fault
//! injection and management operations, and collects metrics — the harness
//! surface used by examples, integration tests, and the experiment binary.

use replimid_det::DetRng;
use replimid_simnet::{ControlOp, LinkFault, NetworkModel, NodeId, Sim, SimTime};
use replimid_sql::{Engine, EngineConfig, ADMIN_PASSWORD, ADMIN_USER};

use crate::client::{Client, ClientConfig, ClientMetrics, TxSource};
use crate::db_node::DbNode;
use crate::fleet::{FleetConfig, FleetMetrics, SessionFleet};
use crate::middleware::{Middleware, Mode, MwConfig, MwMetrics};
use crate::msg::{BackendId, Msg, SessionId};

/// Everything needed to assemble one cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    pub seed: u64,
    pub mw: MwConfig,
    /// Number of middleware replicas (peers in one GCS group).
    pub middlewares: usize,
    /// Backends per middleware replica.
    pub backends_per_mw: usize,
    /// Per-backend CPU speed factors (cycled if shorter than the backend
    /// count). 1.0 = nominal; 2.0 = twice as slow (§4.1.3 heterogeneity).
    pub backend_speed: Vec<f64>,
    /// Engine template; each backend gets a distinct RAND() seed.
    pub engine: EngineConfig,
    /// Schema/bootstrap script executed on every backend before start.
    pub schema: Vec<String>,
    /// Default database selected on every backend connection.
    pub default_db: String,
    pub net: NetworkModel,
}

impl ClusterConfig {
    pub fn new(mode: Mode, schema: Vec<String>, default_db: &str) -> Self {
        ClusterConfig {
            seed: 42,
            mw: MwConfig::defaults(mode),
            middlewares: 1,
            backends_per_mw: 3,
            backend_speed: vec![1.0],
            engine: EngineConfig::default(),
            schema,
            default_db: default_db.to_string(),
            net: NetworkModel::lan(),
        }
    }
}

/// The running cluster.
pub struct Cluster {
    pub sim: Sim<Msg>,
    /// Database nodes, grouped per middleware: `db_nodes[mw][backend]`.
    pub db_nodes: Vec<Vec<NodeId>>,
    pub mw_nodes: Vec<NodeId>,
    pub client_nodes: Vec<NodeId>,
    next_session: u64,
}

impl Cluster {
    /// Build the cluster: engines are created and schema-loaded *before*
    /// the simulation starts (time-zero state is identical on every
    /// backend, like replicas initialized from the same dump).
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let mut cfg = cfg;
        // Fill in the certifier's schema knowledge from the schema script.
        if cfg.mw.pk_map.is_empty() {
            cfg.mw.pk_map = pk_map_from_schema(&cfg.schema);
        }
        if cfg.mw.default_db.is_none() {
            cfg.mw.default_db = Some(cfg.default_db.clone());
        }
        let mut sim: Sim<Msg> = Sim::new(cfg.net.clone(), cfg.seed);
        let total_backends = cfg.middlewares * cfg.backends_per_mw;

        // Node id layout: [db nodes 0..B) [middlewares B..B+M) [clients...].
        let mut db_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.middlewares);
        let mut engine_seed = cfg.seed.wrapping_mul(1000);
        for mwi in 0..cfg.middlewares {
            let mut group = Vec::with_capacity(cfg.backends_per_mw);
            for bi in 0..cfg.backends_per_mw {
                engine_seed += 1;
                let mut econf = cfg.engine.clone();
                econf.name = format!("mw{mwi}-db{bi}");
                econf.seed = engine_seed;
                let engine = build_engine(econf, &cfg.schema);
                let speed = cfg.backend_speed
                    [(mwi * cfg.backends_per_mw + bi) % cfg.backend_speed.len()];
                let node = sim.add_node(
                    DbNode::new(engine, Some(cfg.default_db.clone())).with_speed(speed),
                );
                group.push(node);
            }
            db_nodes.push(group);
        }
        let mw_ids: Vec<NodeId> =
            (0..cfg.middlewares).map(|i| NodeId(total_backends + i)).collect();
        let mut mw_nodes = Vec::with_capacity(cfg.middlewares);
        for (mwi, backends) in db_nodes.iter().enumerate() {
            let mw = Middleware::new(cfg.mw.clone(), mwi, mw_ids.clone(), backends.clone());
            let node = sim.add_node(mw);
            debug_assert_eq!(node, mw_ids[mwi]);
            mw_nodes.push(node);
        }
        Cluster { sim, db_nodes, mw_nodes, client_nodes: Vec::new(), next_session: 1 }
    }

    /// Add a closed-loop client driving transactions from `source`.
    /// `configure` tweaks the default client config.
    pub fn add_client<S: TxSource + 'static>(
        &mut self,
        source: S,
        configure: impl FnOnce(&mut ClientConfig),
    ) -> NodeId {
        let session = SessionId(self.next_session);
        self.next_session += 1;
        // Clients prefer a "home" middleware (spread round-robin) and fail
        // over to the others.
        let mut mws = self.mw_nodes.clone();
        let n = mws.len().max(1);
        mws.rotate_left((session.0 as usize) % n);
        let mut cc = ClientConfig::new(session, mws);
        configure(&mut cc);
        let node = self.sim.add_node(Client::new(cc, source));
        self.client_nodes.push(node);
        node
    }

    /// Reserve `n` consecutive session ids for an externally built driver
    /// (e.g. the open-loop driver in `replimid-workload`), so its sessions
    /// never collide with later `add_client`/`add_session_fleet` calls.
    pub fn alloc_sessions(&mut self, n: usize) -> u64 {
        let first = self.next_session;
        self.next_session += n as u64;
        first
    }

    /// Add a [`SessionFleet`]: one actor multiplexing `sessions` closed-loop
    /// sessions against middleware `mw` (the 10⁵–10⁶-session driver for the
    /// freshness experiments). `configure` tweaks the default fleet config;
    /// the session-id block (including headroom for churn) is reserved here
    /// so later `add_client` calls cannot collide.
    pub fn add_session_fleet(
        &mut self,
        mw: usize,
        sessions: usize,
        configure: impl FnOnce(&mut FleetConfig),
    ) -> NodeId {
        let first = self.next_session;
        // Reserve the live block plus generous churn headroom.
        self.next_session += sessions as u64 * 64;
        let mut fc = FleetConfig::new(first, sessions, self.mw_nodes[mw]);
        configure(&mut fc);
        self.sim.add_node(SessionFleet::new(fc))
    }

    pub fn run_for(&mut self, duration_us: u64) {
        let until = self.sim.now() + duration_us;
        self.sim.run_until(until);
    }

    /// End a measured window: every closed-loop client finishes the
    /// transaction it has in flight and starts no other.
    pub fn stop_clients(&mut self) {
        for &node in &self.client_nodes {
            self.sim.with_actor::<Client, _>(node, Client::stop);
        }
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    // ------------------------------------------------------------------
    // Fault injection & management operations (§5.1)
    // ------------------------------------------------------------------

    pub fn crash_backend_at(&mut self, at: SimTime, mw: usize, backend: usize) {
        self.sim.schedule(at, ControlOp::Crash(self.db_nodes[mw][backend]));
    }

    /// Crash a backend at `at` with explicit durable-image semantics: how
    /// much of the WAL tail the crash destroys (`CrashKind::Clean` loses
    /// nothing, `LostTail` drops everything past the last fsync, `TornTail`
    /// additionally leaves a half-written record for the scanner to
    /// truncate). Only meaningful for backends built with
    /// `EngineConfig::durability`; without it the kind is ignored and this
    /// is exactly `crash_backend_at`.
    pub fn crash_backend_with(
        &mut self,
        at: SimTime,
        mw: usize,
        backend: usize,
        kind: replimid_sql::CrashKind,
    ) {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| d.set_pending_crash(kind));
        self.sim.schedule(at, ControlOp::Crash(node));
    }

    /// The report of a backend's most recent durable restart (crash kind,
    /// replay counts, measured local recovery time), if it has had one.
    pub fn backend_recovery(
        &mut self,
        mw: usize,
        backend: usize,
    ) -> Option<crate::db_node::RecoveryInfo> {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| d.last_recovery.clone())
    }

    /// A backend's ordered-statement apply position (durable metadata).
    pub fn backend_ordered_applied(&mut self, mw: usize, backend: usize) -> u64 {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| d.ordered_applied())
    }

    /// Durable-device statistics for a backend (None without durability).
    pub fn backend_wal_stats(
        &mut self,
        mw: usize,
        backend: usize,
    ) -> Option<replimid_sql::WalStats> {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| d.wal_stats())
    }

    pub fn restart_backend_at(&mut self, at: SimTime, mw: usize, backend: usize) {
        self.sim.schedule(at, ControlOp::Restart(self.db_nodes[mw][backend]));
    }

    pub fn crash_middleware_at(&mut self, at: SimTime, mw: usize) {
        self.sim.schedule(at, ControlOp::Crash(self.mw_nodes[mw]));
    }

    pub fn restart_middleware_at(&mut self, at: SimTime, mw: usize) {
        self.sim.schedule(at, ControlOp::Restart(self.mw_nodes[mw]));
    }

    /// Gray failure: stretch a backend's service times by `factor` starting
    /// at `at` (slow-but-alive; pings still answer, just late).
    pub fn brownout_backend_at(&mut self, at: SimTime, mw: usize, backend: usize, factor: f64) {
        self.sim.schedule(at, ControlOp::SetBrownout(self.db_nodes[mw][backend], factor));
    }

    pub fn clear_brownout_at(&mut self, at: SimTime, mw: usize, backend: usize) {
        self.sim.schedule(at, ControlOp::ClearBrownout(self.db_nodes[mw][backend]));
    }

    /// Gray failure: overlay loss/duplication/jitter on the middleware <->
    /// backend link (both directions) without severing it.
    pub fn flaky_link_at(&mut self, at: SimTime, mw: usize, backend: usize, fault: LinkFault) {
        self.sim.schedule(
            at,
            ControlOp::SetLinkFault(self.mw_nodes[mw], self.db_nodes[mw][backend], fault),
        );
    }

    pub fn clear_flaky_link_at(&mut self, at: SimTime, mw: usize, backend: usize) {
        self.sim.schedule(
            at,
            ControlOp::ClearLinkFault(self.mw_nodes[mw], self.db_nodes[mw][backend]),
        );
    }

    pub fn partition_at(&mut self, at: SimTime, groups: Vec<Vec<NodeId>>) {
        self.sim.schedule(at, ControlOp::Partition(groups));
    }

    pub fn heal_at(&mut self, at: SimTime) {
        self.sim.schedule(at, ControlOp::Heal);
    }

    /// Inject a management command to middleware `mw` at time `at`.
    pub fn admin_at(&mut self, at: SimTime, mw: usize, cmd: crate::msg::AdminCmd) {
        let node = self.mw_nodes[mw];
        self.sim.inject(at, node, Msg::Admin(cmd));
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    pub fn client_metrics(&mut self, node: NodeId) -> ClientMetrics {
        self.sim.with_actor::<Client, _>(node, |c| c.metrics.clone())
    }

    /// Sum of committed transactions across all clients.
    pub fn total_commits(&mut self) -> u64 {
        let nodes = self.client_nodes.clone();
        nodes
            .iter()
            .map(|&n| self.sim.with_actor::<Client, _>(n, |c| c.metrics.committed))
            .sum()
    }

    pub fn fleet_metrics(&mut self, node: NodeId) -> FleetMetrics {
        self.sim.with_actor::<SessionFleet, _>(node, |f| f.metrics.clone())
    }

    pub fn mw_metrics(&mut self, mw: usize) -> MwMetrics {
        let node = self.mw_nodes[mw];
        let now = self.sim.now().micros();
        self.sim.with_actor::<Middleware, _>(node, |m| {
            let mut snap = m.metrics.clone();
            snap.availability.finish(now);
            snap.degraded.finish(now);
            snap
        })
    }

    /// A database node's service-time trace sink (`Stage::DbService` spans
    /// recorded per operation).
    pub fn db_trace(&mut self, mw: usize, backend: usize) -> crate::trace::TraceSink {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| d.trace.clone())
    }

    /// Data checksums of every backend (divergence detection across the
    /// whole cluster).
    pub fn backend_checksums(&mut self) -> Vec<Vec<u64>> {
        let groups = self.db_nodes.clone();
        groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&n| {
                        self.sim.with_actor::<DbNode, _>(n, |d| d.engine().checksum_data())
                    })
                    .collect()
            })
            .collect()
    }

    pub fn backend_full_checksums(&mut self) -> Vec<Vec<u64>> {
        let groups = self.db_nodes.clone();
        groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&n| {
                        self.sim.with_actor::<DbNode, _>(n, |d| d.engine().checksum_full())
                    })
                    .collect()
            })
            .collect()
    }

    /// Direct access to a backend's engine (test assertions).
    pub fn with_backend_engine<R>(
        &mut self,
        mw: usize,
        backend: usize,
        f: impl FnOnce(&mut Engine) -> R,
    ) -> R {
        let node = self.db_nodes[mw][backend];
        self.sim.with_actor::<DbNode, _>(node, |d| f(d.engine_mut()))
    }

    pub fn with_middleware<R>(&mut self, mw: usize, f: impl FnOnce(&mut Middleware) -> R) -> R {
        let node = self.mw_nodes[mw];
        self.sim.with_actor::<Middleware, _>(node, f)
    }

    /// Which backend index is currently the master (master-slave mode).
    pub fn master_of(&mut self, mw: usize) -> BackendId {
        self.with_middleware(mw, |m| m.master_backend())
    }
}

/// Build one backend engine and run the bootstrap script on it.
pub fn build_engine(config: EngineConfig, schema: &[String]) -> Engine {
    let mut engine = Engine::new(config);
    let conn = engine.connect(ADMIN_USER, ADMIN_PASSWORD).expect("admin login");
    for stmt in schema {
        engine
            .execute(conn, stmt)
            .unwrap_or_else(|e| panic!("schema statement failed: {stmt}: {e}"));
    }
    engine.disconnect(conn);
    engine
}

/// Derive (database, table) -> primary-key column index from a schema
/// script (the certifier's catalog knowledge).
pub fn pk_map_from_schema(
    schema: &[String],
) -> std::collections::HashMap<(String, String), usize> {
    use replimid_sql::ast::Statement;
    let mut map = std::collections::HashMap::new();
    let mut current_db: Option<String> = None;
    for sql in schema {
        let Ok(stmt) = replimid_sql::parse_statement(sql) else { continue };
        match stmt {
            Statement::UseDatabase { name } => current_db = Some(name),
            Statement::CreateTable { name, columns, temporary: false, .. } => {
                let db = name.database.clone().or_else(|| current_db.clone());
                if let (Some(db), Some(pk)) = (db, columns.iter().position(|c| c.primary_key)) {
                    map.insert((db, name.name.clone()), pk);
                }
            }
            _ => {}
        }
    }
    map
}

/// Deterministic RNG for workload setup outside actors.
pub fn seeded_rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pk_map_extraction() {
        let schema = vec![
            "CREATE DATABASE shop".to_string(),
            "USE shop".to_string(),
            "CREATE TABLE a (id INT PRIMARY KEY, v INT)".to_string(),
            "CREATE TABLE b (x INT, y INT)".to_string(),
            "CREATE TABLE other.c (k INT PRIMARY KEY)".to_string(),
        ];
        let map = pk_map_from_schema(&schema);
        assert_eq!(map.get(&("shop".into(), "a".into())), Some(&0));
        assert_eq!(map.get(&("shop".into(), "b".into())), None);
        assert_eq!(map.get(&("other".into(), "c".into())), Some(&0));
    }
}
