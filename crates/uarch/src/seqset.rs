//! An ordered set of sequence numbers backed by a sorted `Vec`.
//!
//! The wakeup scheduler keeps several program-ordered queues (ready queues,
//! pending validations, unknown-address stores).  Their populations are small
//! (bounded by the instruction window) and the operations are dominated by
//! ordered scans and point insert/remove, for which a sorted vector's binary
//! search plus `memmove` beats a B-tree — especially in unoptimised builds,
//! where pointer-chasing tree code pays full function-call freight on the
//! simulator's hottest path.

/// A sorted, duplicate-free set of `u64` sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct SeqSet {
    items: Vec<u64>,
}

impl SeqSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        SeqSet::default()
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Inserts `seq`; returns `true` if it was not already present.
    pub fn insert(&mut self, seq: u64) -> bool {
        match self.items.binary_search(&seq) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, seq);
                true
            }
        }
    }

    /// Appends `seq`, which must be strictly greater than every element
    /// already present — the dispatch classification's fast path: freshly
    /// dispatched instructions carry the largest sequence numbers, so their
    /// ready-set inserts are plain tail pushes instead of binary-search
    /// shifts.
    pub fn extend_back(&mut self, seq: u64) {
        debug_assert!(
            self.items.last().is_none_or(|&last| last < seq),
            "extend_back requires ascending keys"
        );
        self.items.push(seq);
    }

    /// Removes `seq`; returns `true` if it was present.
    pub fn remove(&mut self, seq: u64) -> bool {
        match self.items.binary_search(&seq) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes and returns the element at `pos` in ascending order — the
    /// issue walk's cursor already knows where its current element sits, so
    /// this skips [`Self::remove`]'s binary search.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn remove_at(&mut self, pos: usize) -> u64 {
        self.items.remove(pos)
    }

    /// The smallest element.
    #[must_use]
    pub fn first(&self) -> Option<u64> {
        self.items.first().copied()
    }

    /// The element at `pos` in ascending order.
    #[must_use]
    pub fn get(&self, pos: usize) -> Option<u64> {
        self.items.get(pos).copied()
    }

    /// The smallest element strictly smaller than `bound`, if any exists.
    #[must_use]
    pub fn any_below(&self, bound: u64) -> bool {
        self.items.first().is_some_and(|&first| first < bound)
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.items.iter()
    }
}

impl<'a> IntoIterator for &'a SeqSet {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_insert_remove_and_queries() {
        let mut s = SeqSet::new();
        assert!(s.is_empty());
        for seq in [5u64, 1, 9, 3, 7] {
            assert!(s.insert(seq));
        }
        assert!(!s.insert(5), "duplicates are rejected");
        assert_eq!(s.len(), 5);
        assert_eq!(s.first(), Some(1));
        assert!(s.any_below(2));
        assert!(!s.any_below(1));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 3, 7, 9]);
        s.clear();
        assert_eq!(s.first(), None);
    }

    #[test]
    fn extend_back_appends_in_order() {
        let mut s = SeqSet::new();
        s.insert(4);
        s.extend_back(9);
        s.extend_back(12);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4, 9, 12]);
        assert!(!s.insert(9), "extended elements are regular members");
        assert!(s.remove(9));
        assert_eq!(s.remove_at(1), 12);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4]);
    }
}
