//! Applied positions in the middleware's ordered streams.
//!
//! The replication middleware orders writes in one stream per table group
//! (one stream, group 0, without a placement). Each stream numbers its
//! writes densely from 1. A replica records which positions it applied so
//! that a rejoin replays exactly what it is missing: it reports, per group,
//! the highest position below which it holds everything, and skips the
//! positions above it that it already has.
//!
//! A maximum would not do. A cross-group transaction takes a slot in each
//! of its groups when it is prepared and reaches a replica only when every
//! group has voted, so position `p` can arrive after `p + 1`. A replica
//! that crashed in between and reported its maximum would be skipped past
//! `p` for good.

use std::collections::BTreeSet;

/// One applied position: (group, position in the group's stream).
pub type Mark = (u32, u64);

/// The positions one operation applied. A bare `u64` is a position in group
/// 0, the one stream of a cluster without a placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Marks(pub Vec<Mark>);

impl From<u64> for Marks {
    fn from(pos: u64) -> Marks {
        Marks(vec![(0, pos)])
    }
}

impl From<Vec<Mark>> for Marks {
    fn from(marks: Vec<Mark>) -> Marks {
        Marks(marks)
    }
}

/// The contiguous prefix `1..=value()` of a position space, plus the
/// positions applied above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watermark {
    next: u64,
    done: BTreeSet<u64>,
}

impl Default for Watermark {
    fn default() -> Self {
        Watermark::new()
    }
}

impl Watermark {
    /// Nothing applied.
    pub fn new() -> Self {
        Watermark::at(0)
    }

    /// Everything up to `pos` applied, nothing above.
    pub fn at(pos: u64) -> Self {
        Watermark { next: pos + 1, done: BTreeSet::new() }
    }

    pub fn mark(&mut self, pos: u64) {
        if pos != self.next {
            if pos > self.next {
                self.done.insert(pos);
            }
            return;
        }
        self.next += 1;
        while self.done.remove(&self.next) {
            self.next += 1;
        }
    }

    /// The end of the contiguous prefix.
    pub fn value(&self) -> u64 {
        self.next - 1
    }

    pub fn has(&self, pos: u64) -> bool {
        pos < self.next || self.done.contains(&pos)
    }

    /// The positions applied above the prefix, ascending.
    pub fn above(&self) -> impl Iterator<Item = u64> + '_ {
        self.done.iter().copied()
    }
}

/// A replica's applied positions, one [`Watermark`] per group. Groups it
/// never heard of have applied nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Positions(Vec<Watermark>);

impl Positions {
    /// Everything up to `heads[g]` applied in each group `g`.
    pub fn at(heads: &[u64]) -> Self {
        Positions(heads.iter().map(|&h| Watermark::at(h)).collect())
    }

    pub fn from_groups(groups: Vec<Watermark>) -> Self {
        Positions(groups)
    }

    pub fn groups(&self) -> &[Watermark] {
        &self.0
    }

    pub fn mark(&mut self, (g, pos): Mark) {
        let g = g as usize;
        if self.0.len() <= g {
            self.0.resize_with(g + 1, Watermark::new);
        }
        self.0[g].mark(pos);
    }

    pub fn has(&self, (g, pos): Mark) -> bool {
        self.0.get(g as usize).map_or(pos == 0, |w| w.has(pos))
    }

    /// Group `g`'s contiguous prefix.
    pub fn prefix(&self, g: usize) -> u64 {
        self.0.get(g).map_or(0, Watermark::value)
    }

    /// Every group's contiguous prefix, indexed by group.
    pub fn prefixes(&self) -> Vec<u64> {
        self.0.iter().map(Watermark::value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_advances_contiguously() {
        let mut w = Watermark::new();
        assert_eq!(w.value(), 0);
        w.mark(2);
        assert_eq!(w.value(), 0, "gap at 1");
        w.mark(1);
        assert_eq!(w.value(), 2, "contiguous through 2");
        w.mark(3);
        assert_eq!(w.value(), 3);
        // Stale marks are ignored.
        w.mark(1);
        assert_eq!(w.value(), 3);
    }

    #[test]
    fn watermark_at_position() {
        let mut w = Watermark::at(100);
        assert_eq!(w.value(), 100);
        w.mark(101);
        assert_eq!(w.value(), 101);
        w.mark(50);
        assert_eq!(w.value(), 101);
    }

    #[test]
    fn watermark_out_of_order_batch() {
        let mut w = Watermark::new();
        for pos in [5, 3, 1, 4, 2] {
            w.mark(pos);
        }
        assert_eq!(w.value(), 5);
    }

    #[test]
    fn positions_keep_a_hole_per_group() {
        let mut p = Positions::default();
        p.mark((1, 2));
        p.mark((1, 1));
        p.mark((1, 4));
        p.mark((0, 1));
        assert_eq!(p.prefixes(), vec![1, 2]);
        assert!(p.has((1, 4)) && !p.has((1, 3)));
        assert!(!p.has((5, 1)) && p.has((5, 0)), "an unknown group applied nothing");
        assert_eq!(p.groups()[1].above().collect::<Vec<_>>(), vec![4]);
        assert_eq!(Positions::at(&[3, 0]).prefixes(), vec![3, 0]);
    }
}
