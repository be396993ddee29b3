//! Sources of non-determinism (§4.3.2): the clock behind NOW() and the RNG
//! behind RAND(). Each engine owns one `Determinism`, seeded independently —
//! exactly why broadcasting a statement containing RAND() diverges replicas.
//!
//! The clock is *virtual*: the embedding simulator sets it. Two replicas that
//! are perfectly time-synchronized still evaluate NOW() at different points
//! in their execution, which we model by letting the middleware (not the
//! engine) decide whether to rewrite time macros before broadcast.

use replimid_det::DetRng;

/// Per-engine non-deterministic inputs.
#[derive(Debug, Clone)]
pub struct Determinism {
    now_us: i64,
    rng: DetRng,
}

impl Determinism {
    pub fn new(seed: u64) -> Self {
        Determinism { now_us: 0, rng: DetRng::seed_from_u64(seed) }
    }

    /// Whether RAND() has drawn nothing since seeding from `seed`.
    pub fn rng_unused(&self, seed: u64) -> bool {
        self.rng == DetRng::seed_from_u64(seed)
    }

    /// Set the virtual wall clock (microseconds).
    pub fn set_now(&mut self, now_us: i64) {
        self.now_us = now_us;
    }

    /// NOW()/CURRENT_TIMESTAMP.
    pub fn now(&self) -> i64 {
        self.now_us
    }

    /// RAND(): uniform in [0, 1).
    pub fn rand(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_is_seed_deterministic() {
        let mut a = Determinism::new(42);
        let mut b = Determinism::new(42);
        assert_eq!(a.rand(), b.rand());
        let mut c = Determinism::new(43);
        assert_ne!(a.rand(), c.rand());
    }
}
