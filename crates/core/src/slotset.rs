//! A dense ordered set of small slot indices, backed by a bitmap.
//!
//! The vector register file keeps two index sets on its hottest paths — the
//! free list (popped at every allocation) and the allocated set (walked by
//! every release scan and §3.6 store check).  Slot indices are small dense
//! integers, so a bitmap with a first-set-word hint beats a B-tree on every
//! operation the file performs while preserving the one property the
//! paper's semantics need: **ascending order**.  `pop_first` still returns
//! the lowest free slot (the original linear scan's choice) and iteration
//! still visits slots in index order, so swapping the backing structure is
//! invisible to every simulation statistic.

/// An ordered set of `u32` slot indices stored one bit per slot.
#[derive(Debug, Clone, Default)]
pub struct SlotSet {
    words: Vec<u64>,
    len: usize,
    /// Every word below this index is zero (lower bound on the first set
    /// bit's word).  Lowered on insert, advanced by first-bit scans, so
    /// `pop_first` stays O(1) amortised.
    first_hint: usize,
}

impl SlotSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        SlotSet::default()
    }

    /// Creates the set `{0, 1, …, n - 1}`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        SlotSet {
            words,
            len: n,
            first_hint: 0,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is a member.
    #[must_use]
    pub fn contains(&self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / 64, slot as usize % 64);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Inserts `slot`; returns `true` if it was not already present.
    /// The bitmap grows on demand (unbounded register files).
    pub fn insert(&mut self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / 64, slot as usize % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.len += 1;
        self.first_hint = self.first_hint.min(word);
        true
    }

    /// Removes `slot`; returns `true` if it was present.
    pub fn remove(&mut self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / 64, slot as usize % 64);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.len -= 1;
        true
    }

    /// Removes and returns the smallest element.
    pub fn pop_first(&mut self) -> Option<u32> {
        if self.len == 0 {
            self.first_hint = self.words.len();
            return None;
        }
        while self.first_hint < self.words.len() {
            let w = self.words[self.first_hint];
            if w != 0 {
                let bit = w.trailing_zeros();
                self.words[self.first_hint] &= !(1u64 << bit);
                self.len -= 1;
                return Some((self.first_hint as u32) * 64 + bit);
            }
            self.first_hint += 1;
        }
        unreachable!("len > 0 implies a set bit at or above the hint");
    }

    /// Iterates the members in ascending order.
    #[must_use]
    pub fn iter(&self) -> SlotIter<'_> {
        let start = self.first_hint.min(self.words.len());
        SlotIter::new(&self.words[start..], start as u32 * 64)
    }

    /// Copies the backing bitmap into `out` (cleared first): a snapshot to
    /// walk with [`SlotIter::over`] while the set itself is mutated.
    pub fn snapshot_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.words);
    }
}

/// Ascending iterator over the members of a [`SlotSet`] (or of a bitmap
/// snapshot of one): one word load per 64 slots, one `trailing_zeros` per
/// member.
#[derive(Debug, Clone)]
pub struct SlotIter<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Slot index of bit 0 of the next word to load.
    next_base: u32,
    /// Slot index of bit 0 of `current`.
    base: u32,
    /// Members of the current word not yet returned.
    current: u64,
}

impl<'a> SlotIter<'a> {
    fn new(words: &'a [u64], base: u32) -> Self {
        SlotIter {
            words: words.iter(),
            next_base: base,
            base,
            current: 0,
        }
    }

    /// Iterates the set bits of a bitmap snapshot (see
    /// [`SlotSet::snapshot_into`]) in ascending order.
    #[must_use]
    pub fn over(words: &'a [u64]) -> Self {
        SlotIter::new(words, 0)
    }
}

impl Iterator for SlotIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.current = *self.words.next()?;
            self.base = self.next_base;
            self.next_base += 64;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn mirrors_a_btree_set() {
        let mut slots = SlotSet::new();
        let mut tree: BTreeSet<u32> = BTreeSet::new();
        // A deterministic torture sequence mixing inserts, removes and pops
        // across word boundaries.
        let mut x = 7u32;
        for step in 0..4_000u32 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let slot = x % 300;
            match step % 4 {
                0 | 1 => {
                    assert_eq!(slots.insert(slot), tree.insert(slot));
                }
                2 => {
                    assert_eq!(slots.remove(slot), tree.remove(&slot));
                }
                _ => {
                    assert_eq!(slots.pop_first(), tree.pop_first());
                }
            }
            assert_eq!(slots.len(), tree.len());
        }
        assert_eq!(
            slots.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
        let mut snapshot = Vec::new();
        slots.snapshot_into(&mut snapshot);
        assert_eq!(
            SlotIter::over(&snapshot).collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_matches_a_range_and_pops_ascending() {
        let mut s = SlotSet::full(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..130).collect::<Vec<_>>());
        for expected in 0..130 {
            assert_eq!(s.pop_first(), Some(expected));
        }
        assert_eq!(s.pop_first(), None);
        assert!(s.is_empty());
        s.insert(64);
        assert!(s.contains(64) && !s.contains(63));
        assert_eq!(s.pop_first(), Some(64));
    }
}
