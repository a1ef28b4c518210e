//! Struct-of-arrays reorder buffer, which also threads the wakeup lists.
//!
//! The busy-cycle loops (issue walk, store-queue walk, commit)
//! touch a handful of scalar fields of every in-flight instruction —
//! `issued`, `complete_cycle`, the issue-group tag — thousands of times per
//! simulated kernel.  Keeping those fields inside a ~150-byte AoS `RobEntry`
//! made every probe a strided cache miss and every retire a full-entry
//! `memmove`.  [`Rob`] instead stores the hot fields in parallel,
//! index-aligned lanes (`u8`/`u64` vectors) and leaves the cold decode-time
//! payload ([`RobCold`]: the retired record, exec mode and source mappings)
//! in a separate lane that is written once at dispatch and read in place at
//! issue/commit only where needed.
//!
//! # Layout
//!
//! The buffer is a power-of-two ring indexed **directly by sequence number**:
//! in-flight instructions always occupy a contiguous run of sequence numbers
//! (`head..tail`), so `slot = seq & mask` is collision-free while
//! `tail - head <= capacity`.  Push and retire never move data — commit
//! reads the head's payload in place and [`Rob::advance_head`] bumps `head`.
//!
//! # Wakeup lists
//!
//! The fast model's two kinds of wakeup list are singly linked through ROB
//! lanes, so [`Rob::new`] allocates all of their storage.  A producer's
//! waiter list links its dependents' operand slots: a node is
//! `dependent_seq << 1 | operand`, and each entry owns two `waiter_next`
//! links, one per source operand, because an instruction is on at most one
//! producer's list per operand.  A vector register's park list links
//! entries through the `park_next` lane (an entry is parked on at most one
//! register); the per-register heads live with the scheduler.  [`NO_WAITER`]
//! ends both kinds of list.

use sdv_core::VregId;
use sdv_emu::Retired;
use sdv_isa::OpClass;

/// Ends a waiter list or a park list ("no node").
pub const NO_WAITER: u64 = u64::MAX;

/// The dependent sequence number of a waiter node (`seq << 1 | operand`).
#[inline]
#[must_use]
pub fn waiter_seq(node: u64) -> u64 {
    node >> 1
}

/// Cold per-entry payload: written once at dispatch, read at issue (loads,
/// validations) and commit.  Everything the busy loops probe repeatedly lives
/// in the hot lanes of [`Rob`] instead.
#[derive(Debug, Clone)]
pub struct RobCold {
    /// The retired record from the functional emulator.
    pub retired: Retired,
    /// Cached `retired.inst.op.class()`.
    pub class: OpClass,
    /// How the instruction executes (scalar or vector-element validation).
    pub mode: crate::pipeline::ExecMode,
    /// Scalar in-flight producers of the two source operands.
    pub src_scalar: [Option<u64>; 2],
    /// Vector-element sources of the two source operands.
    pub src_vec: [Option<(VregId, u64, usize)>; 2],
}

impl RobCold {
    /// Whether this entry's result can wake scalar dependents (only entries
    /// with a non-zero scalar destination ever appear in the map table).
    #[must_use]
    pub fn wakes_dependents(&self) -> bool {
        matches!(self.mode, crate::pipeline::ExecMode::Scalar)
            && self.retired.inst.dst.is_some_and(|d| !d.is_zero())
    }
}

/// The struct-of-arrays reorder buffer: a sequence-number-indexed ring with
/// hot scalar lanes and a cold payload lane.
///
/// Invariant: the in-flight window is the contiguous sequence range
/// `head()..tail()`, and `len() <= capacity`, so `seq & mask` addresses are
/// unique.  All lane accessors take raw sequence numbers and debug-assert
/// the seq is in flight.
#[derive(Debug)]
pub struct Rob {
    mask: u64,
    head: u64,
    tail: u64,
    cold: Vec<Option<RobCold>>,
    issued: Vec<bool>,
    complete_cycle: Vec<u64>,
    store_addr_known: Vec<bool>,
    pending_scalar: Vec<u8>,
    has_vec_wait: Vec<bool>,
    queue: Vec<u8>,
    waiter_head: Vec<u64>,
    /// Two links per entry, `slot << 1 | operand`.
    waiter_next: Vec<u64>,
    park_next: Vec<u64>,
}

impl Rob {
    /// Creates a ROB able to hold `window` in-flight instructions.
    #[must_use]
    pub fn new(window: usize) -> Self {
        let cap = window.max(2).next_power_of_two();
        Rob {
            mask: (cap - 1) as u64,
            head: 0,
            tail: 0,
            cold: vec![None; cap],
            issued: vec![false; cap],
            complete_cycle: vec![0; cap],
            store_addr_known: vec![false; cap],
            pending_scalar: vec![0; cap],
            has_vec_wait: vec![false; cap],
            queue: vec![0; cap],
            waiter_head: vec![NO_WAITER; cap],
            waiter_next: vec![NO_WAITER; 2 * cap],
            park_next: vec![NO_WAITER; cap],
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        debug_assert!(self.contains(seq), "seq {seq} not in flight");
        (seq & self.mask) as usize
    }

    /// Number of in-flight entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the window is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Sequence number of the oldest in-flight entry (the commit head).
    #[inline]
    #[must_use]
    pub fn head(&self) -> u64 {
        self.head
    }

    /// One past the youngest in-flight sequence number.
    #[inline]
    #[must_use]
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Whether `seq` is in flight.
    #[inline]
    #[must_use]
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.head && seq < self.tail
    }

    /// The in-flight sequence range, oldest first.
    #[inline]
    #[must_use]
    pub fn seqs(&self) -> std::ops::Range<u64> {
        self.head..self.tail
    }

    /// Appends an entry; `retired.seq` must equal [`Self::tail`].
    pub fn push(&mut self, cold: RobCold, queue: u8) {
        debug_assert_eq!(cold.retired.seq, self.tail, "seqs are contiguous");
        debug_assert!(self.len() < self.mask as usize + 1, "window overflow");
        let slot = (self.tail & self.mask) as usize;
        self.cold[slot] = Some(cold);
        self.issued[slot] = false;
        self.complete_cycle[slot] = 0;
        self.store_addr_known[slot] = false;
        self.pending_scalar[slot] = 0;
        self.has_vec_wait[slot] = false;
        self.queue[slot] = queue;
        self.waiter_head[slot] = NO_WAITER;
        self.tail += 1;
    }

    /// Retires the head entry in place: clears its cold payload and advances
    /// the head by one.  The caller must have read what it needs from
    /// [`Self::cold`] and taken the entry's waiter list.
    pub fn advance_head(&mut self) {
        debug_assert!(!self.is_empty(), "advance on an empty window");
        let slot = (self.head & self.mask) as usize;
        debug_assert_eq!(self.waiter_head[slot], NO_WAITER, "waiters leaked");
        self.cold[slot] = None;
        self.head += 1;
    }

    // ---------------------------------------------------------- hot lanes

    /// Whether `seq` has issued.
    #[inline]
    #[must_use]
    pub fn issued(&self, seq: u64) -> bool {
        self.issued[self.slot(seq)]
    }

    /// Marks `seq` issued/unissued.
    #[inline]
    pub fn set_issued(&mut self, seq: u64, v: bool) {
        let s = self.slot(seq);
        self.issued[s] = v;
    }

    /// Completion cycle of `seq` (meaningful once issued).
    #[inline]
    #[must_use]
    pub fn complete_cycle(&self, seq: u64) -> u64 {
        self.complete_cycle[self.slot(seq)]
    }

    /// Sets the completion cycle of `seq`.
    #[inline]
    pub fn set_complete_cycle(&mut self, seq: u64, cycle: u64) {
        let s = self.slot(seq);
        self.complete_cycle[s] = cycle;
    }

    /// Whether `seq` has issued and its result is available at `cycle`.
    #[inline]
    #[must_use]
    pub fn completed(&self, seq: u64, cycle: u64) -> bool {
        let s = self.slot(seq);
        self.issued[s] && cycle >= self.complete_cycle[s]
    }

    /// Whether the store `seq` has computed its address.
    #[inline]
    #[must_use]
    pub fn store_addr_known(&self, seq: u64) -> bool {
        self.store_addr_known[self.slot(seq)]
    }

    /// Marks the store `seq`'s address as known/unknown.
    #[inline]
    pub fn set_store_addr_known(&mut self, seq: u64, v: bool) {
        let s = self.slot(seq);
        self.store_addr_known[s] = v;
    }

    /// Number of incomplete scalar producers of `seq`.
    #[inline]
    #[must_use]
    pub fn pending_scalar(&self, seq: u64) -> u8 {
        self.pending_scalar[self.slot(seq)]
    }

    /// Sets the pending-producer count of `seq`.
    #[inline]
    pub fn set_pending_scalar(&mut self, seq: u64, v: u8) {
        let s = self.slot(seq);
        self.pending_scalar[s] = v;
    }

    /// Whether `seq` reads a vector element, so it parks on that element's
    /// register once its scalar producers complete.
    #[inline]
    #[must_use]
    pub fn has_vec_wait(&self, seq: u64) -> bool {
        self.has_vec_wait[self.slot(seq)]
    }

    /// Sets the vector-wait flag of `seq`.
    #[inline]
    pub fn set_has_vec_wait(&mut self, seq: u64, v: bool) {
        let s = self.slot(seq);
        self.has_vec_wait[s] = v;
    }

    /// Issue group of `seq` (`Q_LOAD`..`Q_VALIDATION`).
    #[inline]
    #[must_use]
    pub fn queue(&self, seq: u64) -> u8 {
        self.queue[self.slot(seq)]
    }

    /// Links operand `operand` (0 or 1) of `dep` at the head of
    /// `producer`'s waiter list.
    #[inline]
    pub fn add_waiter(&mut self, producer: u64, dep: u64, operand: usize) {
        debug_assert!(operand < 2, "two source operands");
        let link = (self.slot(dep) << 1) | operand;
        let p = self.slot(producer);
        self.waiter_next[link] = self.waiter_head[p];
        self.waiter_head[p] = (dep << 1) | operand as u64;
    }

    /// Detaches `producer`'s waiter list and returns its first node
    /// ([`NO_WAITER`] = empty); walk it with [`Self::next_waiter`].
    #[inline]
    pub fn take_waiters(&mut self, producer: u64) -> u64 {
        let p = self.slot(producer);
        std::mem::replace(&mut self.waiter_head[p], NO_WAITER)
    }

    /// The node after `node` in its waiter list.
    #[inline]
    #[must_use]
    pub fn next_waiter(&self, node: u64) -> u64 {
        let link = (self.slot(waiter_seq(node)) << 1) | (node & 1) as usize;
        self.waiter_next[link]
    }

    /// The entry after `seq` in its vector register's park list.
    #[inline]
    #[must_use]
    pub fn park_next(&self, seq: u64) -> u64 {
        self.park_next[self.slot(seq)]
    }

    /// Links `seq` in front of `next` in a park list.
    #[inline]
    pub fn set_park_next(&mut self, seq: u64, next: u64) {
        let s = self.slot(seq);
        self.park_next[s] = next;
    }

    // --------------------------------------------------------- cold lane

    /// Cold payload of `seq`.
    #[inline]
    #[must_use]
    pub fn cold(&self, seq: u64) -> &RobCold {
        let s = self.slot(seq);
        self.cold[s]
            .as_ref()
            .expect("in-flight entries have cold data")
    }

    /// The retired record of `seq`.
    #[inline]
    #[must_use]
    pub fn retired(&self, seq: u64) -> &Retired {
        &self.cold(seq).retired
    }

    /// Memory address of `seq` (0 for non-memory instructions).
    #[inline]
    #[must_use]
    pub fn addr(&self, seq: u64) -> u64 {
        self.retired(seq).mem.map_or(0, |m| m.addr)
    }

    /// Memory access width of `seq` (0 for non-memory instructions).
    #[inline]
    #[must_use]
    pub fn width(&self, seq: u64) -> u64 {
        self.retired(seq).mem.map_or(0, |m| m.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retired(seq: u64) -> Retired {
        use sdv_isa::{ArchReg, Asm};
        // Any instruction works; the ring only checks the seq.
        let mut a = Asm::new();
        a.li(ArchReg::int(1), 7);
        a.halt();
        let program = a.finish();
        let mut emu = sdv_emu::Emulator::new(&program);
        let mut r = emu.step().expect("one instruction");
        r.seq = seq;
        r
    }

    fn cold(seq: u64) -> RobCold {
        RobCold {
            retired: retired(seq),
            class: OpClass::IntAlu,
            mode: crate::pipeline::ExecMode::Scalar,
            src_scalar: [None, None],
            src_vec: [None, None],
        }
    }

    #[test]
    fn ring_push_pop_and_lane_roundtrip() {
        let mut rob = Rob::new(6); // rounds up to 8 slots
        assert!(rob.is_empty());
        for seq in 0..6 {
            rob.push(cold(seq), (seq % 3) as u8);
        }
        assert_eq!(rob.len(), 6);
        assert_eq!(rob.head(), 0);
        assert_eq!(rob.tail(), 6);
        assert!(rob.contains(5) && !rob.contains(6));
        rob.set_issued(3, true);
        rob.set_complete_cycle(3, 17);
        assert!(rob.completed(3, 17) && !rob.completed(3, 16));
        assert_eq!(rob.queue(4), 1);

        // Retire two, push two more: the ring wraps without moving data.
        assert_eq!(rob.cold(0).retired.seq, 0);
        rob.advance_head();
        assert_eq!((rob.head(), rob.cold(1).retired.seq), (1, 1));
        rob.advance_head();
        assert_eq!(rob.head(), 2);
        rob.push(cold(6), 0);
        rob.push(cold(7), 0);
        assert_eq!(rob.seqs().collect::<Vec<_>>(), (2..8).collect::<Vec<_>>());
        // Lane state survives the wrap for live entries.
        assert!(rob.issued(3) && rob.complete_cycle(3) == 17);
        // Fresh entries start clean even in reused slots.
        assert!(!rob.issued(7) && rob.pending_scalar(7) == 0);
        assert_eq!(rob.take_waiters(7), NO_WAITER);

        for _ in 0..6 {
            rob.advance_head();
        }
        assert!(rob.is_empty());
    }

    #[test]
    fn duplicate_dependents_are_kept() {
        // An instruction reading one producer through both operands must be
        // woken twice: each operand has its own link.
        let mut rob = Rob::new(4);
        for seq in 0..3 {
            rob.push(cold(seq), 0);
        }
        rob.add_waiter(0, 1, 0);
        rob.add_waiter(0, 2, 1);
        rob.add_waiter(0, 1, 1);
        let mut node = rob.take_waiters(0);
        let mut woken = Vec::new();
        // Bounded, so a list that links back into itself fails the assert.
        while node != NO_WAITER && woken.len() < 4 {
            woken.push((waiter_seq(node), node & 1));
            node = rob.next_waiter(node);
        }
        // Prepend order: the latest link comes first.
        assert_eq!(woken, vec![(1, 1), (2, 1), (1, 0)]);
        assert_eq!(rob.take_waiters(0), NO_WAITER, "the list was detached");
    }
}
