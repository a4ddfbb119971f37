//! Sparse accumulators.
//!
//! [`Spa`] is the classic Gustavson sparse accumulator: a dense value
//! array indexed by column, a list of touched positions, and a
//! *generation stamp* per slot so that both membership tests and resets
//! are O(1) — `clear` just bumps the generation. It serves the callers
//! that need each slot's final value: SpGEMM, per-edge supports, pair
//! matrices, peeling and the reference counters. It follows the perf-book
//! "workhorse collection" pattern: allocate once, reuse across
//! rows/vertices.
//!
//! [`PairAccum`] is the counting kernels' accumulator. They need only
//! `Σ_c C(cnt[c], 2)` over one exposed vertex's wedges (paper eq. 7), and
//! `C(n, 2) = 0 + 1 + … + (n − 1)`: adding each slot's count *before*
//! every hit sums the same total as it goes. So a slot is one packed
//! `u64` (generation and count), with no stamp array, no touched list and
//! no drain.

use crate::scalar::Scalar;

/// Dense accumulator with O(1) scatter, membership, and reset. For the
/// callers that read each slot's final value; the counting kernels use
/// [`PairAccum`].
#[derive(Debug, Clone)]
pub struct Spa<T: Scalar> {
    values: Vec<T>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<u32>,
}

impl<T: Scalar> Spa<T> {
    /// New accumulator over the index range `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![T::ZERO; n],
            stamp: vec![0; n],
            generation: 1,
            touched: Vec::new(),
        }
    }

    /// Capacity (the index range).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the accumulator covers an empty index range.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of positions touched since the last [`Self::clear`].
    #[inline]
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Add `v` at index `i`. First contact in the current generation
    /// overwrites the stale slot and records the touch.
    #[inline]
    pub fn scatter(&mut self, i: u32, v: T) {
        let ix = i as usize;
        if self.stamp[ix] == self.generation {
            self.values[ix] += v;
        } else {
            self.stamp[ix] = self.generation;
            self.values[ix] = v;
            self.touched.push(i);
        }
    }

    /// Current value at index `i` (zero if untouched this generation).
    #[inline]
    pub fn get(&self, i: u32) -> T {
        let ix = i as usize;
        if self.stamp[ix] == self.generation {
            self.values[ix]
        } else {
            T::ZERO
        }
    }

    /// Iterate `(index, value)` over touched positions (insertion order).
    pub fn entries(&self) -> impl Iterator<Item = (u32, T)> + '_ {
        self.touched
            .iter()
            .map(move |&i| (i, self.values[i as usize]))
    }

    /// Touched indices (insertion order).
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Reset: O(1) via generation bump. Slot values are lazily invalidated.
    pub fn clear(&mut self) {
        self.touched.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wraparound: hard-reset stamps so stale slots
            // from 2³² generations ago cannot alias the new generation.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Drain into `(indices, values)` sorted by index, then clear.
    pub fn drain_sorted(&mut self) -> (Vec<u32>, Vec<T>) {
        self.touched.sort_unstable();
        let idx = std::mem::take(&mut self.touched);
        let vals = idx.iter().map(|&i| self.values[i as usize]).collect();
        self.clear();
        (idx, vals)
    }
}

/// Counting accumulator for `Σ_c C(cnt[c], 2)`: one packed `u64` slot
/// per index, `generation << 32 | count`.
///
/// [`Self::hit`] returns the slot's count before the hit, so summing the
/// returns over a generation gives `Σ_c C(cnt[c], 2)` exactly (`C(n, 2) =
/// 0 + 1 + … + (n − 1)`), and a return of 0 marks a first touch. A slot
/// written in an older generation reads as count 0: generations only grow
/// between wraps, so a stale slot is always below the current
/// generation's base. A count must stay below 2³² within one generation;
/// in the kernels it is a wedge multiplicity, at most a degree.
#[derive(Debug, Clone)]
pub struct PairAccum {
    slots: Vec<u64>,
    /// `generation << 32`; the generation is never 0, so the zeroed
    /// slots of [`Self::new`] and of a wrap read as stale.
    base: u64,
}

impl PairAccum {
    /// New accumulator over the index range `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            slots: vec![0; n],
            base: 1 << 32,
        }
    }

    /// Count one more hit at index `i`; returns the count before it (0 on
    /// the first hit this generation).
    #[inline]
    pub fn hit(&mut self, i: u32) -> u64 {
        let slot = &mut self.slots[i as usize];
        let cur = (*slot).max(self.base);
        debug_assert_ne!(
            cur as u32,
            u32::MAX,
            "count would carry into the generation"
        );
        *slot = cur + 1;
        cur - self.base
    }

    /// Reset: O(1) via generation bump. When the generation wraps, every
    /// slot is zeroed so that no slot from 2³² generations ago aliases
    /// the new one.
    pub fn clear(&mut self) {
        match self.base.checked_add(1 << 32) {
            Some(base) => self.base = base,
            None => {
                self.slots.fill(0);
                self.base = 1 << 32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_accumulates() {
        let mut spa = Spa::<u64>::new(8);
        spa.scatter(3, 2);
        spa.scatter(3, 5);
        spa.scatter(1, 1);
        assert_eq!(spa.get(3), 7);
        assert_eq!(spa.get(1), 1);
        assert_eq!(spa.get(0), 0);
        assert_eq!(spa.touched_len(), 2);
    }

    #[test]
    fn clear_is_cheap_and_complete() {
        let mut spa = Spa::<u64>::new(4);
        spa.scatter(0, 9);
        spa.scatter(2, 9);
        spa.clear();
        assert_eq!(spa.touched_len(), 0);
        for i in 0..4 {
            assert_eq!(spa.get(i), 0);
        }
        // Reusable after clear; stale slot values must not leak through.
        spa.scatter(2, 1);
        assert_eq!(spa.get(2), 1);
        assert_eq!(spa.touched_len(), 1);
    }

    #[test]
    fn drain_sorted_orders_and_clears() {
        let mut spa = Spa::<u64>::new(10);
        spa.scatter(7, 1);
        spa.scatter(2, 2);
        spa.scatter(5, 3);
        let (idx, vals) = spa.drain_sorted();
        assert_eq!(idx, vec![2, 5, 7]);
        assert_eq!(vals, vec![2, 3, 1]);
        assert_eq!(spa.touched_len(), 0);
        assert_eq!(spa.get(7), 0);
    }

    #[test]
    fn zero_scatter_counts_as_touch_once() {
        let mut spa = Spa::<i64>::new(4);
        spa.scatter(1, 0);
        assert_eq!(spa.touched_len(), 1);
        spa.scatter(1, 0);
        assert_eq!(spa.touched_len(), 1, "no duplicate touch entries");
        assert_eq!(spa.touched(), &[1]);
    }

    #[test]
    fn many_generations_stay_isolated() {
        let mut spa = Spa::<u64>::new(3);
        for round in 0..1000u64 {
            spa.scatter(0, round);
            spa.scatter(2, 1);
            assert_eq!(spa.get(0), round);
            assert_eq!(spa.get(2), 1);
            assert_eq!(spa.get(1), 0);
            spa.clear();
        }
    }

    /// A fresh accumulator whose generation starts at `generation`.
    fn pairs_at(n: usize, generation: u32) -> PairAccum {
        assert_ne!(generation, 0);
        PairAccum {
            slots: vec![0; n],
            base: (generation as u64) << 32,
        }
    }

    #[test]
    fn hit_returns_the_count_before_it() {
        let mut pairs = PairAccum::new(4);
        assert_eq!(pairs.hit(2), 0);
        assert_eq!(pairs.hit(2), 1);
        assert_eq!(pairs.hit(0), 0);
        assert_eq!(pairs.hit(2), 2);
        // Three hits on one slot sum to C(3, 2).
        assert_eq!((0..3).map(|_| pairs.hit(3)).sum::<u64>(), 3);
    }

    #[test]
    fn clear_makes_every_slot_fresh() {
        let mut pairs = PairAccum::new(3);
        for i in 0..3 {
            pairs.hit(i);
            pairs.hit(i);
        }
        pairs.clear();
        for i in 0..3 {
            assert_eq!(pairs.hit(i), 0, "slot {i} leaked across a clear");
        }
        for _ in 0..1000 {
            pairs.clear();
            assert_eq!(pairs.hit(1), 0);
            assert_eq!(pairs.hit(1), 1);
        }
    }

    #[test]
    fn generation_wrap_reads_old_slots_as_fresh() {
        let mut pairs = pairs_at(3, u32::MAX);
        assert_eq!(pairs.hit(0), 0);
        assert_eq!(pairs.hit(0), 1);
        assert_eq!(pairs.hit(2), 0);
        // Generation u32::MAX wraps to 1. Without the zeroing, slot 0
        // (written in generation u32::MAX) would sit above every later
        // generation and read as current.
        pairs.clear();
        assert_eq!(pairs.hit(0), 0);
        assert_eq!(pairs.hit(2), 0);
        assert_eq!(pairs.hit(2), 1);
        // An ordinary bump after the wrap.
        pairs.clear();
        assert_eq!(pairs.hit(0), 0);
        assert_eq!(pairs.hit(1), 0);
    }
}
