//! Cluster assembly and experiment driving: builds the simulated world
//! (database nodes, middleware replicas, clients, network), exposes fault
//! injection and management operations, and collects metrics — the harness
//! surface used by examples, integration tests, and the experiment binary.

use replimid_simnet::{ControlOp, LinkFault, NetworkModel, NodeId, Sim, SimTime};
use replimid_sql::{Engine, EngineConfig, TableName, ADMIN_PASSWORD, ADMIN_USER};

use crate::client::{Client, ClientConfig, ClientMetrics};
use crate::db_node::DbNode;
use crate::driver::{Driver, TxSource};
use crate::fleet::{FleetConfig, FleetMetrics};
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
    /// Build the cluster. The schema runs once, on the first backend's
    /// engine, *before* the simulation starts; every other backend gets a
    /// copy of that image under its own name and RAND() seed
    /// ([`Engine::copy_as`]). Time-zero state is one image, like replicas
    /// initialized from the same dump, and the copies' binlogs share the
    /// schema load's entries.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let mut cfg = cfg;
        let mut sim: Sim<Msg> = Sim::new(cfg.net.clone(), cfg.seed);
        let total_backends = cfg.middlewares * cfg.backends_per_mw;

        let mut engines: Vec<Engine> = Vec::with_capacity(total_backends);
        let mut engine_seed = cfg.seed.wrapping_mul(1000);
        for mwi in 0..cfg.middlewares {
            for bi in 0..cfg.backends_per_mw {
                engine_seed += 1;
                let name = format!("mw{mwi}-db{bi}");
                let engine = match engines.first() {
                    Some(image) => image.copy_as(name, engine_seed),
                    None => {
                        let econf = EngineConfig { name, seed: engine_seed, ..cfg.engine.clone() };
                        build_engine(econf, &cfg.schema)
                    }
                };
                engines.push(engine);
            }
        }
        let keys = engines.first().map(primary_keys).unwrap_or_default();

        // Node id layout: [db nodes 0..B) [middlewares B..B+M) [clients...].
        let mut db_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.middlewares);
        let mut engines = engines.into_iter();
        for mwi in 0..cfg.middlewares {
            let mut group = Vec::with_capacity(cfg.backends_per_mw);
            for bi in 0..cfg.backends_per_mw {
                let engine = engines.next().expect("one engine per backend");
                let speed = cfg.backend_speed
                    [(mwi * cfg.backends_per_mw + bi) % cfg.backend_speed.len()];
                let node = sim.add_node(
                    DbNode::new(engine, Some(cfg.default_db.clone())).with_speed(speed),
                );
                group.push(node);
            }
            db_nodes.push(group);
        }
        // Fill in the certifier's schema knowledge from a backend's
        // catalog, and key each partitioned table of the placement by the
        // same index.
        if cfg.mw.pk_map.is_empty() {
            cfg.mw.pk_map = keys.iter().map(|(table, at, _)| (table.clone(), *at)).collect();
        }
        if let Some(p) = &mut cfg.mw.placement {
            p.bind(&cfg.default_db, |t| keys.iter().find(|k| k.0 == *t).map(|k| (k.1, k.2.as_str())))
                .unwrap_or_else(|e| panic!("invalid placement: {e}"));
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
        let node = self.sim.add_node(Driver::client(cc, source));
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

    /// Add a session fleet: one driver multiplexing `sessions` closed-loop
    /// sessions against middleware `mw` (the 10⁵–10⁶-session driver for the
    /// freshness experiments). `configure` tweaks the default fleet config;
    /// the session-id block is reserved here so later `add_client` calls
    /// cannot collide.
    pub fn add_session_fleet(
        &mut self,
        mw: usize,
        sessions: usize,
        configure: impl FnOnce(&mut FleetConfig),
    ) -> NodeId {
        let first = self.next_session;
        // Reserve 64 ids per session: later clients' session ids set their
        // start jitter and home middleware, which the experiments' numbers
        // depend on.
        self.next_session += sessions as u64 * 64;
        let mut fc = FleetConfig::new(first, sessions, self.mw_nodes[mw]);
        configure(&mut fc);
        self.sim.add_node(Driver::fleet(fc))
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

    /// A backend's applied position in each group's ordered stream (the end
    /// of its contiguous prefix; durable metadata).
    pub fn backend_ordered_applied(&mut self, mw: usize, backend: usize) -> Vec<u64> {
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

    /// Inject a management command to middleware `mw` at time `at`.
    pub fn admin_at(&mut self, at: SimTime, mw: usize, cmd: crate::msg::AdminCmd) {
        let node = self.mw_nodes[mw];
        self.sim.inject(at, node, Msg::Admin(cmd));
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    pub fn client_metrics(&mut self, node: NodeId) -> ClientMetrics {
        self.sim.with_actor::<Client, _>(node, |c| ClientMetrics::from(&c.metrics))
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
        self.sim.with_actor::<Driver, _>(node, |f| FleetMetrics::from(&f.metrics))
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

/// The primary key of every table in `engine`'s catalog: (table, key
/// column position, key column name). The certifier's schema knowledge,
/// and where each partition scheme finds its key.
fn primary_keys(engine: &Engine) -> Vec<(TableName, usize, String)> {
    let tables = engine.catalog().databases.values().flat_map(|db| db.tables.values());
    tables
        .filter_map(|t| {
            let at = t.schema.primary_key?;
            Some((t.schema.name.clone(), at, t.schema.columns[at].name.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_sql::Lsn;

    #[test]
    fn pk_map_extraction() {
        let schema = vec![
            "CREATE DATABASE shop".to_string(),
            "USE shop".to_string(),
            "CREATE TABLE a (id INT PRIMARY KEY, v INT)".to_string(),
            "CREATE TABLE b (x INT, y INT)".to_string(),
            "CREATE DATABASE other".to_string(),
            "CREATE TABLE other.c (k INT PRIMARY KEY)".to_string(),
        ];
        let keys = primary_keys(&build_engine(EngineConfig::default(), &schema));
        assert_eq!(
            keys,
            [(TableName::new("other", "c"), 0, "k".into()), (TableName::new("shop", "a"), 0, "id".into())],
            "b has no primary key"
        );
    }

    fn schema() -> Vec<String> {
        [
            "CREATE DATABASE shop",
            "USE shop",
            "CREATE TABLE a (id INT PRIMARY KEY, v INT)",
            "CREATE TABLE b (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)",
            "CREATE SEQUENCE ids START 10",
            "INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)",
            "INSERT INTO b (v) VALUES ('x'), ('y')",
            "UPDATE a SET v = v + 1 WHERE id = 2",
            "DELETE FROM a WHERE id = 3",
            "SELECT NEXTVAL('ids')",
        ]
        .map(str::to_string)
        .to_vec()
    }

    fn conf(name: &str, seed: u64) -> EngineConfig {
        EngineConfig { name: name.into(), seed, ..EngineConfig::default() }
    }

    /// A backend provisioned from another's image under its own name and
    /// seed is the engine the schema would have built under them: same
    /// data and counters, same binlog, same ordered positions, and the
    /// same next connection id.
    #[test]
    fn a_copied_image_equals_an_engine_built_from_the_schema() {
        let image = build_engine(conf("mw0-db0", 1), &schema());
        let (mut copy, mut built) = (image.copy_as("mw0-db1", 2), build_engine(conf("mw0-db1", 2), &schema()));
        assert_eq!(copy.config, built.config);
        assert_eq!(copy.checksum_full(), built.checksum_full());
        // Entries compare by LSN, commit timestamp, database, statements
        // and writeset.
        let copied = copy.binlog_after(Lsn(0)).unwrap();
        assert!(!copied.is_empty());
        assert_eq!(copied, built.binlog_after(Lsn(0)).unwrap());
        assert_eq!(copy.ordered(), built.ordered());
        let login = |e: &mut Engine| e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
        assert_eq!(login(&mut copy), login(&mut built));
    }

    /// The copy draws RAND() from its own seed, as a fresh engine does.
    #[test]
    fn a_copy_draws_rand_from_its_own_seed() {
        let image = build_engine(conf("mw0-db0", 1), &schema());
        let draws = |mut e: Engine| {
            let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
            (0..5).map(|_| format!("{:?}", e.execute(c, "SELECT RAND()").unwrap().outcome)).collect::<Vec<_>>()
        };
        let copied = draws(image.copy_as("mw0-db1", 7));
        assert_eq!(copied, draws(Engine::new(conf("fresh", 7))));
        assert_ne!(copied, draws(image), "the image keeps its own seed");
    }

    /// Every backend is a copy of one image; a cluster with none builds.
    #[test]
    fn every_backend_starts_from_one_image_and_none_is_fine() {
        let nondet = crate::rewrite::NondetPolicy::RewriteAndReject;
        let mut cfg = ClusterConfig::new(Mode::MultiMasterStatement { nondet }, schema(), "shop");
        cfg.middlewares = 2;
        let sums = Cluster::build(cfg.clone()).backend_full_checksums().concat();
        assert_eq!(sums.len(), 6);
        assert!(sums.iter().all(|&s| s == sums[0]), "{sums:?}");
        cfg.middlewares = 0;
        assert!(Cluster::build(cfg).db_nodes.is_empty());
    }
}
