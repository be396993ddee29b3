//! Heap footprint of the three things every replica does most: keep a
//! row, run a prepared autocommit INSERT, and hold a connection; and of
//! what a master's binlog costs to keep and to read.
//!
//! A counting global allocator tallies, per thread, the bytes and blocks
//! requested while that thread has counting switched on, so tests running
//! in parallel do not count each other. Bytes are requested sizes, not
//! what the allocator rounds them up to.
//!
//! `cargo test -p replimid-sql --test footprint -- --nocapture` prints the
//! figures (`scripts/counts.sh` quotes them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use replimid_sql::{bind, parse_statement, ConnId, Engine, Statement, Value, ADMIN_PASSWORD, ADMIN_USER};

struct Counting;

/// Live bytes and live blocks (net of frees), and blocks handed out
/// (allocations and reallocations), of the current thread while [`ON`] is
/// set.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    live_bytes: i64,
    live_blocks: i64,
    allocs: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const { Cell::new(Tally { live_bytes: 0, live_blocks: 0, allocs: 0 }) };
}

fn note(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ON.try_with(|on| {
        if on.get() {
            let _ = TALLY.try_with(|t| {
                let mut v = t.get();
                f(&mut v);
                t.set(v);
            });
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees to this allocator are the ones `System` needs; the
// counting only reads the layout and touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(|t| {
                t.live_bytes += layout.size() as i64;
                t.live_blocks += 1;
                t.allocs += 1;
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(|t| {
            t.live_bytes -= layout.size() as i64;
            t.live_blocks -= 1;
        });
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(|t| {
                t.live_bytes += new_size as i64 - layout.size() as i64;
                t.allocs += 1;
            });
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` leaves allocated on this thread, and the blocks it allocated.
fn counted(f: impl FnOnce()) -> Tally {
    TALLY.with(|t| t.set(Tally::default()));
    ON.with(|on| on.set(true));
    f();
    ON.with(|on| on.set(false));
    TALLY.with(Cell::get)
}

/// An engine holding one two-column primary-key table, whose binlog nobody
/// reads (a multi-master replica's), and the prepared INSERT template.
fn engine() -> (Engine, ConnId, Statement) {
    let (mut e, c, template) = master();
    e.set_binlog_horizon(None);
    (e, c, template)
}

/// [`engine`] with its binlog kept, as a master's is until its slaves
/// have read it.
fn master() -> (Engine, ConnId, Statement) {
    let (mut e, c) = Engine::with_database("fp");
    e.execute(c, "CREATE TABLE t (k INT PRIMARY KEY, v INT)").expect("create table");
    let template = parse_statement("INSERT INTO t VALUES (?, ?)").expect("template parses");
    (e, c, template)
}

fn insert(e: &mut Engine, c: ConnId, template: &Statement, k: i64) {
    let stmt = bind(template, &[Value::Int(k), Value::Int(k * 7)]).expect("binds");
    e.execute_prepared(c, &stmt).expect("insert");
}

const ROWS: i64 = 20_000;

/// A stored row costs its values' block and its share of the slab and of
/// the primary-key index's slots (204.9 bytes in 1.17 blocks while the
/// index was a B-tree holding a copy of each key and a row list).
#[test]
fn a_stored_row_costs_at_most_145_bytes_in_1_01_blocks() {
    let (mut e, c, template) = engine();
    let t = counted(|| {
        for k in 0..ROWS {
            insert(&mut e, c, &template, k);
        }
    });
    let bytes = t.live_bytes as f64 / ROWS as f64;
    let blocks = t.live_blocks as f64 / ROWS as f64;
    println!("footprint: live heap per stored row: {bytes:.1} bytes in {blocks:.2} blocks");
    assert!(bytes <= 145.0, "{bytes:.1} bytes per row");
    assert!(blocks <= 1.01, "{blocks:.2} blocks per row");
}

/// Blocks per prepared autocommit INSERT, bind included (41.3 while an
/// autocommit rendered its SQL text for a binlog that drops it and commit
/// cloned its write records; 28.3 while each row had a chain block of its
/// own and a second copy kept for triggers the table did not have; 25.2
/// while a write record owned copies of its database and table names and
/// every INSERT copied the table's column list and the session's database
/// name; 16.2 while the privilege check listed the statement's tables and
/// copied the database name even for the superuser, who needs no check;
/// 13.2 while the primary-key index was a B-tree whose nodes an insert
/// allocated now and then).
const INSERT_BLOCKS: f64 = 13.0;

#[test]
fn a_prepared_autocommit_insert_allocates_13_0_blocks() {
    let (mut e, c, template) = engine();
    // Warm the engine's maps up first: what is measured is the steady state.
    for k in 0..1_000 {
        insert(&mut e, c, &template, k);
    }
    let n = 2_000;
    let t = counted(|| {
        for k in 1_000..1_000 + n {
            insert(&mut e, c, &template, k);
        }
    });
    let per_insert = t.allocs as f64 / n as f64;
    println!(
        "footprint: heap blocks per prepared autocommit INSERT (bind included): {per_insert:.1}"
    );
    assert!(per_insert <= INSERT_BLOCKS + 0.05, "{per_insert:.1} blocks per insert");
}

const CONNS: usize = 20_000;

/// A connection that ran `USE` and one point read costs its slot in the
/// engine's connection map and nothing else (257.6 bytes in 2.00 blocks
/// while it kept its own copies of its user and database names, and a
/// slot of 144 bytes with the variables, temporary tables and transaction
/// texts only some connections use).
#[test]
fn a_connection_costs_at_most_128_bytes_in_0_01_blocks() {
    let (mut e, c, template) = engine();
    insert(&mut e, c, &template, 7);
    let read = parse_statement("SELECT v FROM t WHERE k = 7").expect("read parses");
    let t = counted(|| {
        for _ in 0..CONNS {
            let conn = e.connect(ADMIN_USER, ADMIN_PASSWORD).expect("login");
            e.execute(conn, "USE fp").expect("use");
            e.execute_prepared(conn, &read).expect("point read");
        }
    });
    let bytes = t.live_bytes as f64 / CONNS as f64;
    let blocks = t.live_blocks as f64 / CONNS as f64;
    println!("footprint: live heap per connection (USE and one point read): {bytes:.1} bytes in {blocks:.2} blocks");
    assert!(bytes <= 128.0, "{bytes:.1} bytes per connection");
    assert!(blocks <= 0.01, "{blocks:.2} blocks per connection");
}

/// Blocks per prepared autocommit INSERT on an engine whose binlog is kept:
/// the rendered statement text, its list, the entry's payload and its copy
/// of the writeset come on top of [`INSERT_BLOCKS`]. The payload's shared
/// block costs what the entry's own copy of the session's database name
/// did, so this is the figure of entries that held their fields inline.
const KEPT_INSERT_BLOCKS: f64 = 22.0;

#[test]
fn a_prepared_autocommit_insert_with_its_binlog_kept_allocates_22_0_blocks() {
    let (mut e, c, template) = master();
    for k in 0..1_000 {
        insert(&mut e, c, &template, k);
    }
    let n = 2_000;
    let t = counted(|| {
        for k in 1_000..1_000 + n {
            insert(&mut e, c, &template, k);
        }
    });
    let per_insert = t.allocs as f64 / n as f64;
    println!("footprint: heap blocks per prepared autocommit INSERT, binlog kept: {per_insert:.1}");
    assert!(per_insert <= KEPT_INSERT_BLOCKS + 0.05, "{per_insert:.1} blocks per insert");
}

/// Reading a master's binlog copies no entry: the list it returns is the
/// one block, and every entry in it shares its payload with the log's
/// (a deep copy of each entry's statements and writeset before).
#[test]
fn reading_1000_kept_binlog_entries_allocates_1_block() {
    let (mut e, c, template) = master();
    let from = e.binlog_head();
    for k in 0..1_000 {
        insert(&mut e, c, &template, k);
    }
    let mut read = None;
    let t = counted(|| read = e.binlog_after(from));
    let read = read.expect("nothing was purged");
    assert_eq!(read.len(), 1_000);
    println!("footprint: heap blocks to read 1000 kept binlog entries: {}", t.allocs);
    assert!(t.allocs <= 1, "{} blocks to read the binlog", t.allocs);
}
