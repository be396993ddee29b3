//! Property-based tests for the SQL substrate, on the in-tree `detcheck`
//! harness (seeded cases, reproducible by case seed — see crates/det).

use replimid_det::{detcheck, DetRng};
use replimid_sql::ast::{
    BinOp, ColumnRef, Expr, InsertSource, ObjectName, OrderKey, Select, SelectItem, Statement,
};
use replimid_sql::engine::Engine;
use replimid_sql::expr::like_match;
use replimid_sql::parser::parse_statement;
use replimid_sql::{Outcome, Value, ADMIN_PASSWORD, ADMIN_USER};

// ---------------------------------------------------------------------
// Generators (mirroring the strategies of the former proptest suite)
// ---------------------------------------------------------------------

const RESERVED: &[&str] = &[
    "where", "join", "inner", "on", "group", "having", "order", "limit", "offset", "for",
    "set", "values", "as", "and", "or", "not", "asc", "desc", "end", "do", "begin", "from",
    "select", "null", "true", "false", "exists", "in", "is", "like", "between", "timestamp",
    "update", "insert", "delete", "create", "drop", "use", "commit", "rollback", "grant",
    "call", "start",
];

const IDENT_FIRST: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
    'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
];

const IDENT_REST: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
    'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7',
    '8', '9', '_',
];

const TEXT_CHARS: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', 'A', 'B', 'Z', '0', '5', '9', ' ', '\'',
];

fn arb_ident(rng: &mut DetRng) -> String {
    loop {
        let first = *detcheck::pick(rng, IDENT_FIRST);
        let mut s = String::new();
        s.push(first);
        s.push_str(&detcheck::string_from(rng, IDENT_REST, 0, 8));
        if !RESERVED.contains(&s.as_str()) {
            return s;
        }
    }
}

fn arb_value(rng: &mut DetRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Int(rng.gen::<i64>()),
        // Finite floats only: NaN breaks PartialEq round-trip comparison.
        2 => Value::Float((rng.gen::<f64>() - 0.5) * 2.0e12),
        3 => Value::Text(detcheck::string_from(rng, TEXT_CHARS, 0, 12)),
        4 => Value::Bool(rng.gen::<bool>()),
        _ => Value::Timestamp(rng.gen::<i64>()),
    }
}

fn arb_expr(rng: &mut DetRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..3) {
            0 => Expr::Literal(arb_value(rng)),
            1 => Expr::Column(ColumnRef { table: None, name: arb_ident(rng) }),
            _ => Expr::Column(ColumnRef {
                table: Some(arb_ident(rng)),
                name: arb_ident(rng),
            }),
        };
    }
    match rng.gen_range(0..4) {
        0 => {
            let op = *detcheck::pick(
                rng,
                &[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Eq,
                    BinOp::Lt,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Concat,
                ],
            );
            Expr::Binary {
                left: Box::new(arb_expr(rng, depth - 1)),
                op,
                right: Box::new(arb_expr(rng, depth - 1)),
            }
        }
        1 => Expr::IsNull { expr: Box::new(arb_expr(rng, depth - 1)), negated: rng.gen::<bool>() },
        2 => Expr::InList {
            expr: Box::new(arb_expr(rng, depth - 1)),
            list: detcheck::vec_of(rng, 0, 2, |r| arb_expr(r, depth - 1)),
            negated: rng.gen::<bool>(),
        },
        _ => Expr::Function {
            name: arb_ident(rng),
            args: detcheck::vec_of(rng, 0, 2, |r| arb_expr(r, depth - 1)),
        },
    }
}

fn arb_object_name(rng: &mut DetRng) -> ObjectName {
    ObjectName {
        database: detcheck::option_of(rng, arb_ident),
        name: arb_ident(rng),
    }
}

fn arb_select(rng: &mut DetRng) -> Select {
    let mut s = Select::empty();
    s.projections = detcheck::vec_of(rng, 1, 2, |r| SelectItem::Expr {
        expr: arb_expr(r, 3),
        alias: detcheck::option_of(r, arb_ident),
    });
    s.from = detcheck::option_of(rng, arb_object_name)
        .map(|name| replimid_sql::ast::TableRef::Table { name, alias: None });
    s.filter = detcheck::option_of(rng, |r| arb_expr(r, 3));
    if let Some((expr, asc)) = detcheck::option_of(rng, |r| (arb_expr(r, 3), r.gen::<bool>())) {
        s.order_by.push(OrderKey { expr, asc });
    }
    s.limit = detcheck::option_of(rng, |r| r.gen_range(0u64..100));
    s.offset = detcheck::option_of(rng, |r| r.gen_range(0u64..100));
    s.for_update = rng.gen::<bool>();
    s
}

fn arb_statement(rng: &mut DetRng) -> Statement {
    match rng.gen_range(0..4) {
        0 => Statement::Select(Box::new(arb_select(rng))),
        1 => {
            let table = arb_object_name(rng);
            let columns = detcheck::vec_of(rng, 0, 2, arb_ident);
            let rows =
                detcheck::vec_of(rng, 1, 2, |r| detcheck::vec_of(r, 1, 2, |r2| arb_expr(r2, 3)));
            // Column count must match each row's arity for realism; the
            // renderer/parser don't care, but keep rows uniform.
            let width = rows[0].len();
            let rows: Vec<Vec<Expr>> = rows
                .into_iter()
                .map(|mut r| {
                    r.truncate(width);
                    while r.len() < width {
                        r.push(Expr::lit(0i64));
                    }
                    r
                })
                .collect();
            let columns = if columns.len() == width { columns } else { Vec::new() };
            Statement::Insert { table, columns, source: InsertSource::Values(rows) }
        }
        2 => Statement::Update {
            table: arb_object_name(rng),
            assignments: detcheck::vec_of(rng, 1, 2, |r| (arb_ident(r), arb_expr(r, 3))),
            filter: detcheck::option_of(rng, |r| arb_expr(r, 3)),
        },
        _ => Statement::Delete {
            table: arb_object_name(rng),
            filter: detcheck::option_of(rng, |r| arb_expr(r, 3)),
        },
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

fn assert_round_trip(stmt: &Statement) {
    let sql = stmt.to_string();
    let reparsed =
        parse_statement(&sql).unwrap_or_else(|e| panic!("could not re-parse {sql:?}: {e}"));
    assert_eq!(*stmt, reparsed, "render/parse mismatch for {sql}");
}

/// The statement renderer and parser are inverses: load-bearing for
/// master-slave binlog shipping and WAL checkpoint schemas.
#[test]
fn render_parse_round_trip() {
    detcheck::check("render_parse_round_trip", 256, |rng| {
        let stmt = arb_statement(rng);
        assert_round_trip(&stmt);
    });
}

/// Regression preserved from the proptest era
/// (crates/sql/tests/properties_sql.proptest-regressions, case
/// 0bfd3c56…): `INSERT INTO a VALUES (NULL + TIMESTAMP '-1')` must survive
/// the render/parse round trip.
#[test]
fn regression_insert_null_plus_timestamp_round_trips() {
    let stmt = Statement::Insert {
        table: ObjectName { database: None, name: "a".to_string() },
        columns: Vec::new(),
        source: InsertSource::Values(vec![vec![Expr::Binary {
            left: Box::new(Expr::Literal(Value::Null)),
            op: BinOp::Add,
            right: Box::new(Expr::Literal(Value::Timestamp(-1))),
        }]]),
    };
    assert_round_trip(&stmt);
}

/// LIKE matching agrees with a simple dynamic-programming oracle.
#[test]
fn like_agrees_with_oracle() {
    const LIKE_CHARS: &[char] = &['a', 'b', '_', '%'];
    detcheck::check("like_agrees_with_oracle", 256, |rng| {
        let s = detcheck::string_from(rng, LIKE_CHARS, 0, 8);
        let p = detcheck::string_from(rng, LIKE_CHARS, 0, 6);
        assert_eq!(like_match(&s, &p), like_oracle(&s, &p), "s={s:?} p={p:?}");
    });
}

/// Data checksums are insertion-order independent (replicas insert in
/// different orders under multi-master; only content may matter).
#[test]
fn checksum_order_independence() {
    detcheck::check("checksum_order_independence", 128, |rng| {
        let mut set = std::collections::BTreeSet::new();
        let n = rng.gen_range(1..20usize);
        while set.len() < n {
            set.insert(rng.gen_range(0i64..1000));
        }
        let keys: Vec<i64> = set.into_iter().collect();
        let forward = engine_with_rows(keys.iter().copied());
        let backward = engine_with_rows(keys.iter().rev().copied());
        assert_eq!(forward.checksum_data(), backward.checksum_data());
    });
}

/// Snapshot isolation: everything a transaction reads stays stable for
/// its whole lifetime, regardless of concurrent committed writes.
#[test]
fn si_reads_are_repeatable() {
    detcheck::check("si_reads_are_repeatable", 128, |rng| {
        let writes =
            detcheck::vec_of(rng, 1, 11, |r| (r.gen_range(1i64..5), r.gen_range(0i64..100)));
        let (mut e, reader) = Engine::with_database("d");
        e.execute(reader, "CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
        for id in 1..5 {
            e.execute(reader, &format!("INSERT INTO t VALUES ({id}, 0)")).unwrap();
        }
        let writer = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
        e.execute(writer, "USE d").unwrap();

        e.execute(reader, "BEGIN ISOLATION LEVEL SNAPSHOT").unwrap();
        let before = read_all(&mut e, reader);
        for (id, v) in writes {
            e.execute(writer, &format!("UPDATE t SET v = {v} WHERE id = {id}")).unwrap();
            let during = read_all(&mut e, reader);
            assert_eq!(before, during, "snapshot changed mid-transaction");
        }
        e.execute(reader, "COMMIT").unwrap();
    });
}

// ---------------------------------------------------------------------
// Access paths: `WHERE <pk> = <literal>` by index vs. the same predicate
// with the key lookup defeated in SQL
// ---------------------------------------------------------------------

/// Which connection of an [`AccessCase`] history runs a statement.
#[derive(Clone, Copy, PartialEq)]
enum Who {
    /// Autocommit: builds the committed table.
    Setup,
    /// One explicit transaction, still open when the statement under test
    /// runs.
    Writer,
    /// The connection under test.
    Tester,
}

struct AccessCase {
    text_key: bool,
    history: Vec<(Who, String)>,
    /// Statement under test up to and including `WHERE `.
    head: &'static str,
    key: i64,
    /// Optional `AND <other>` tail, already rendered.
    other: Option<String>,
    for_update: bool,
}

impl AccessCase {
    fn lit(&self, key: i64) -> String {
        if self.text_key {
            format!("'k{key:03}'")
        } else {
            key.to_string()
        }
    }

    /// The statement under test. `by_key` leaves `<pk> = <lit>` for the
    /// access-path chooser to find; otherwise the same predicate is spelled
    /// so that it cannot.
    fn statement(&self, by_key: bool) -> String {
        let lit = self.lit(self.key);
        let key_test = match (by_key, self.text_key) {
            (true, _) => format!("k = {lit}"),
            (false, false) => format!("k + 0 = {lit}"),
            (false, true) => format!("((k = {lit}) OR FALSE)"),
        };
        let other = self.other.as_ref().map(|o| format!(" AND {o}")).unwrap_or_default();
        let lock = if self.for_update { " FOR UPDATE" } else { "" };
        format!("{}{key_test}{other}{lock}", self.head)
    }
}

fn arb_access_case(rng: &mut DetRng) -> AccessCase {
    const KEYS: i64 = 260;
    let text_key = rng.gen::<bool>();
    let mut case = AccessCase {
        text_key,
        history: Vec::new(),
        head: "",
        key: 0,
        other: None,
        for_update: false,
    };
    let key_type = if text_key { "TEXT" } else { "INT" };
    case.history.push((Who::Setup, format!("CREATE TABLE t (k {key_type} PRIMARY KEY, v INT)")));

    // 0-200 rows in random key order, then deletes, updates and key moves
    // (a move onto a live key fails the same way on both engines).
    let rows = rng.gen_range(0..=200usize);
    let mut keys: Vec<i64> = (0..KEYS).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    case.key = if rows > 0 && rng.gen_bool(0.8) { keys[rng.gen_range(0..rows)] } else { keys[0] };
    for &k in &keys[..rows] {
        let v = rng.gen_range(0..8i64);
        case.history.push((Who::Setup, format!("INSERT INTO t VALUES ({}, {v})", case.lit(k))));
    }
    let live = &keys[..rows];
    // A statement that changes one row, and the key it names. Keys are
    // drawn from the inserted ones three times out of four.
    let change = |rng: &mut DetRng, case: &AccessCase| {
        let key = match live {
            [] => rng.gen_range(0..KEYS),
            _ if rng.gen_bool(0.25) => rng.gen_range(0..KEYS),
            _ => *detcheck::pick(rng, live),
        };
        let k = case.lit(key);
        let sql = match rng.gen_range(0..4) {
            0 => format!("DELETE FROM t WHERE k = {k}"),
            1 => format!("UPDATE t SET v = v + 1 WHERE k = {k}"),
            2 => format!("UPDATE t SET k = {} WHERE k = {k}", case.lit(rng.gen_range(0..KEYS))),
            _ => format!("INSERT INTO t VALUES ({k}, {})", rng.gen_range(0..8i64)),
        };
        (key, sql)
    };
    for _ in 0..rng.gen_range(0..40usize) {
        let (_, sql) = change(rng, &case);
        case.history.push((Who::Setup, sql));
    }
    // Half the time the tester holds a snapshot older than the last commits.
    if rng.gen::<bool>() {
        let at = rng.gen_range(1..=case.history.len());
        case.history.insert(at, (Who::Tester, "BEGIN ISOLATION LEVEL SNAPSHOT".into()));
    }
    case.history.push((Who::Writer, "BEGIN ISOLATION LEVEL SNAPSHOT".into()));
    for _ in 0..rng.gen_range(1..4usize) {
        let (key, sql) = change(rng, &case);
        case.history.push((Who::Writer, sql));
        // Aim the statement under test at a row the open writer touched.
        if rng.gen_bool(0.4) {
            case.key = key;
        }
    }

    (case.head, case.for_update) = match rng.gen_range(0..5) {
        0 => ("SELECT k, v FROM t WHERE ", false),
        1 => ("UPDATE t SET v = v + 10 WHERE ", false),
        2 if text_key => ("UPDATE t SET k = 'moved' WHERE ", false),
        2 => ("UPDATE t SET k = k + 1000 WHERE ", false),
        3 => ("DELETE FROM t WHERE ", false),
        _ => ("SELECT v FROM t WHERE ", true),
    };
    let x = rng.gen_range(0..8i64);
    case.other = match rng.gen_range(0..4) {
        0 => None,
        1 => Some(format!("v >= {x}")),
        2 => Some(format!("v <> {x}")),
        // Fails on the one row where v = x: only ever a candidate row,
        // because AND stops at a false key test.
        _ => Some(format!("1 / (v - {x}) >= 0")),
    };
    case
}

/// Everything a client, or a replica comparing checksums, could observe.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    tester_commit: String,
    checksum_after_tester: u64,
    writer_commit: String,
    checksum_after_writer: u64,
}

fn observe(case: &AccessCase, by_key: bool) -> Observed {
    let (mut e, setup) = Engine::with_database("d");
    let connect = |e: &mut Engine| {
        let c = e.connect(ADMIN_USER, ADMIN_PASSWORD).unwrap();
        e.execute(c, "USE d").unwrap();
        c
    };
    let (writer, tester) = (connect(&mut e), connect(&mut e));
    for (who, sql) in &case.history {
        let conn = match who {
            Who::Setup => setup,
            Who::Writer => writer,
            Who::Tester => tester,
        };
        let _ = e.execute(conn, sql);
    }
    let in_tx = case.history.iter().any(|(who, _)| *who == Who::Tester);

    let visible = match e.execute(tester, "SELECT COUNT(*) FROM t").unwrap().outcome {
        Outcome::Rows(rs) => rs.int().unwrap() as u64,
        other => panic!("COUNT returned {other:?}"),
    };
    let sql = case.statement(by_key);
    let result = match e.execute(tester, &sql) {
        Ok(r) => {
            if by_key {
                assert!(r.cost.rows_read <= 1, "{sql}: touched {} rows", r.cost.rows_read);
            } else {
                assert_eq!(r.cost.rows_read, visible, "{sql}: a scan reads every visible row");
            }
            format!("{:?}", r.outcome)
        }
        Err(err) => format!("error: {err}"),
    };
    let finish = |e: &mut Engine, conn, open: bool| match open.then(|| e.execute(conn, "COMMIT")) {
        None => String::new(),
        Some(Ok(_)) => "committed".to_string(),
        Some(Err(err)) => format!("error: {err}"),
    };
    let tester_commit = finish(&mut e, tester, in_tx);
    let checksum_after_tester = e.checksum_data();
    let writer_commit = finish(&mut e, writer, true);
    Observed {
        result,
        tester_commit,
        checksum_after_tester,
        writer_commit,
        checksum_after_writer: e.checksum_data(),
    }
}

/// The point path may only narrow the set of rows a statement looks at:
/// result sets, affected counts, errors and the committed state are those
/// of a full scan, for every snapshot and next to an uncommitted writer.
#[test]
fn access_path_never_changes_an_outcome() {
    detcheck::check("access_path_never_changes_an_outcome", 96, |rng| {
        let case = arb_access_case(rng);
        let (by_key, scanned) = (observe(&case, true), observe(&case, false));
        assert_eq!(by_key, scanned, "{}", case.statement(true));
    });
}

fn read_all(e: &mut Engine, c: replimid_sql::ConnId) -> Vec<Vec<Value>> {
    match e.execute(c, "SELECT id, v FROM t ORDER BY id").unwrap().outcome {
        Outcome::Rows(rs) => rs.rows,
        _ => unreachable!(),
    }
}

fn engine_with_rows(keys: impl Iterator<Item = i64>) -> Engine {
    let (mut e, c) = Engine::with_database("d");
    e.execute(c, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
    for k in keys {
        e.execute(c, &format!("INSERT INTO t VALUES ({k}, 'v{k}')")).unwrap();
    }
    let _ = ADMIN_PASSWORD;
    e
}

/// O(n*m) dynamic-programming LIKE oracle.
fn like_oracle(s: &str, p: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = p.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; s.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = dp[0][j - 1] && p[j - 1] == '%';
    }
    for i in 1..=s.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && s[i - 1] == c,
            };
        }
    }
    dp[s.len()][p.len()]
}
