//! Sparse accumulator (SPA).
//!
//! The classic Gustavson sparse accumulator: a dense value array indexed by
//! column, a list of touched positions, and a *generation stamp* per slot so
//! that both membership tests and resets are O(1) — `clear` just bumps the
//! generation. This single structure powers both SpGEMM and the
//! wedge-expansion butterfly counters in `bfly-core` (where the "value" is a
//! wedge multiplicity). It follows the perf-book "workhorse collection"
//! pattern: allocate once, reuse across rows/vertices.

use crate::scalar::Scalar;

/// Dense accumulator with O(1) scatter, membership, and reset.
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
}
