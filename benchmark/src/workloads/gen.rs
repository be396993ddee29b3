//! The benchmark's own statement generators. Each owns a `DetRng` derived
//! from `--seed` and its stream index (never the simulator's shared one),
//! so the same generator can be re-created outside a cluster to feed the
//! layer probes exactly the statements the workload sent.

use replimid_core::TxSource;
use replimid_det::DetRng;

pub fn rng_for(seed: u64, stream: u64) -> DetRng {
    DetRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream.wrapping_add(1) << 32))
}

/// Key space of generator `stream`: 10 M keys, never shared.
fn key_base(stream: u64) -> i64 {
    10_000_000 * (stream as i64 + 1)
}

/// write-sat: fresh-key single-row inserts spread over `t0..t7`.
pub struct ShardedInsert {
    rng: DetRng,
    next: i64,
}

pub const INSERT_TABLES: usize = 8;

impl ShardedInsert {
    pub fn new(seed: u64, stream: u64) -> Self {
        ShardedInsert {
            rng: rng_for(seed, stream),
            next: key_base(stream),
        }
    }
}

impl TxSource for ShardedInsert {
    fn next_tx(&mut self, _sim_rng: &mut DetRng) -> Vec<String> {
        let k = self.next;
        self.next += 1;
        let t = self.rng.gen_range(0..INSERT_TABLES);
        vec![format!("INSERT INTO t{t} VALUES ({k}, 1)")]
    }
}

/// partial-xgroup: a client homed on table group `group`. Each
/// transaction inserts a fresh key into `t{g}`; one in ten inserts the same
/// key into the partner group's table too (groups 2k and 2k+1 are partners)
/// inside one snapshot transaction, which needs a vote from both groups'
/// sequencers. Paired inserts use the upper half of the key space, so
/// atomicity is checkable.
pub struct XGroup {
    rng: DetRng,
    group: usize,
    next: i64,
    next_paired: i64,
}

const PAIRED_OFFSET: i64 = 5_000_000;

/// Whether `key` was generated for a paired (two-group) insert.
pub fn is_paired_key(key: i64) -> bool {
    key % 10_000_000 >= PAIRED_OFFSET
}

impl XGroup {
    pub fn new(seed: u64, stream: u64, group: usize) -> Self {
        let base = key_base(stream);
        XGroup {
            rng: rng_for(seed, stream),
            group,
            next: base,
            next_paired: base + PAIRED_OFFSET,
        }
    }

    /// The next transaction before it is rendered to SQL: the key and the
    /// table groups it goes to (the checks tally these to know exactly
    /// what a finished run must have left behind).
    pub fn next_op(&mut self) -> (i64, Vec<usize>) {
        let paired = self.rng.gen::<f64>() < 0.10;
        let (counter, groups) = if paired {
            let a = self.group & !1;
            (&mut self.next_paired, vec![a, a + 1])
        } else {
            (&mut self.next, vec![self.group])
        };
        let key = *counter;
        *counter += 1;
        (key, groups)
    }
}

impl TxSource for XGroup {
    fn next_tx(&mut self, _sim_rng: &mut DetRng) -> Vec<String> {
        let (key, groups) = self.next_op();
        let mut tx: Vec<String> = groups
            .iter()
            .map(|g| format!("INSERT INTO t{g} VALUES ({key}, 1)"))
            .collect();
        if groups.len() > 1 {
            tx.insert(0, "BEGIN ISOLATION LEVEL SNAPSHOT".to_string());
            tx.push("COMMIT".to_string());
        }
        tx
    }
}

/// The statements a `SessionFleet` sends (`keys_per_table` = 100): point
/// reads and point updates on `bench_<t>`. Used for the traced sampler
/// clients on read-fleet (one private table each) and, over the fleet's
/// own tables, as the probe input.
pub struct FleetMirror {
    rng: DetRng,
    first_table: usize,
    tables: usize,
    write_permille: u32,
    next_val: u64,
}

impl FleetMirror {
    pub fn new(
        seed: u64,
        stream: u64,
        first_table: usize,
        tables: usize,
        write_permille: u32,
    ) -> Self {
        FleetMirror {
            rng: rng_for(seed, stream),
            first_table,
            tables,
            write_permille,
            next_val: 1,
        }
    }
}

impl TxSource for FleetMirror {
    fn next_tx(&mut self, _sim_rng: &mut DetRng) -> Vec<String> {
        let t = self.first_table + self.rng.gen_range(0..self.tables);
        let k = self.rng.gen_range(0..100);
        if self.rng.gen_range(0..1000u32) < self.write_permille {
            let v = self.next_val;
            self.next_val += 1;
            vec![format!("UPDATE bench_{t} SET v = {v} WHERE k = {k}")]
        } else {
            vec![format!("SELECT v FROM bench_{t} WHERE k = {k}")]
        }
    }
}

/// The statements the open-loop driver sends: fresh-key inserts into `olw`
/// and point reads on the 100-row `bench` table. Used for the traced
/// sampler clients on the open-loop workloads and as their probe input.
pub struct OpenMirror {
    rng: DetRng,
    write_permille: u32,
    next: i64,
}

impl OpenMirror {
    pub fn new(seed: u64, stream: u64, write_permille: u32) -> Self {
        // Far above the driver's own insert keys (1 000 000 + n).
        OpenMirror {
            rng: rng_for(seed, stream),
            write_permille,
            next: 900_000_000 + key_base(stream),
        }
    }
}

impl TxSource for OpenMirror {
    fn next_tx(&mut self, _sim_rng: &mut DetRng) -> Vec<String> {
        if self.rng.gen_range(0..1000u32) < self.write_permille {
            let k = self.next;
            self.next += 1;
            vec![format!("INSERT INTO olw VALUES ({k}, 1)")]
        } else {
            vec![format!(
                "SELECT v FROM bench WHERE k = {}",
                self.rng.gen_range(0..100)
            )]
        }
    }
}

/// Pull `n` transactions round-robin from `sources`, the order a set of
/// equally paced clients would send them in.
pub fn interleave(sources: &mut [Box<dyn TxSource>], n: usize) -> Vec<Vec<String>> {
    let mut sim_rng = DetRng::seed_from_u64(0);
    (0..n)
        .map(|i| sources[i % sources.len()].next_tx(&mut sim_rng))
        .collect()
}
