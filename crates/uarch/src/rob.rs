//! Struct-of-arrays reorder buffer and the pooled waiter arena.
//!
//! The busy-cycle loops (issue walk, commit-gate recomputation, commit)
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
//! # Waiter arena
//!
//! The wakeup scheduler keeps, per producer, the list of dependents to wake
//! at completion.  Per-entry `Vec<u64>`s allocate on first push and free (or
//! round-trip through a recycling pool) at commit.  [`WaiterArena`] replaces
//! them with intrusive singly-linked lists over one node pool: a push is a
//! bump (or free-list pop), freeing a list is O(length) pointer writes, and
//! the pool is pre-sized to the hard bound of `2 × window` live nodes (every
//! in-flight instruction holds at most two source edges), so steady-state
//! dispatch performs **zero** heap allocations — counted, and pinned by a
//! unit test, via [`WaiterArena::stats`].

use sdv_core::VregId;
use sdv_emu::Retired;
use sdv_isa::OpClass;

/// Sentinel for "no node" in [`WaiterArena`] lists.
pub const NO_WAITER: u32 = u32::MAX;

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

/// Pool statistics for [`WaiterArena`], the hook behind the
/// zero-allocation-after-warmup test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaiterStats {
    /// Number of node-pool heap growths (reallocations) since construction.
    /// Zero when the pre-sized pool never overflowed.
    pub heap_growths: u64,
    /// Total nodes ever handed out.
    pub pushes: u64,
    /// Nodes currently live (allocated and not yet freed).
    pub live: usize,
    /// Node-pool capacity in nodes.
    pub capacity: usize,
}

/// A pool of singly-linked waiter nodes: `(dependent seq, next)` pairs.
///
/// Lists are identified by their head node index (`NO_WAITER` = empty) and
/// owned by the ROB's `waiter_head` lane.  Duplicate dependents are
/// deliberately kept — an instruction reading the same producer through both
/// operands must be woken (pending-count decremented) twice.
#[derive(Debug, Clone, Default)]
pub struct WaiterArena {
    dep: Vec<u64>,
    next: Vec<u32>,
    free: u32,
    stats: WaiterStats,
}

impl WaiterArena {
    /// Creates an arena pre-sized for `nodes` live nodes (use `2 × window`:
    /// each in-flight instruction holds at most two source edges).
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        let mut a = WaiterArena {
            dep: Vec::with_capacity(nodes),
            next: Vec::with_capacity(nodes),
            free: NO_WAITER,
            stats: WaiterStats::default(),
        };
        a.stats.capacity = a.dep.capacity();
        a
    }

    /// Pool statistics (the zero-allocation hook).
    #[must_use]
    pub fn stats(&self) -> WaiterStats {
        self.stats
    }

    fn alloc(&mut self, dep: u64, next: u32) -> u32 {
        self.stats.pushes += 1;
        self.stats.live += 1;
        if self.free != NO_WAITER {
            let node = self.free;
            self.free = self.next[node as usize];
            self.dep[node as usize] = dep;
            self.next[node as usize] = next;
            return node;
        }
        if self.dep.len() == self.dep.capacity() {
            self.stats.heap_growths += 1;
        }
        let node = u32::try_from(self.dep.len()).expect("waiter pool fits in u32");
        self.dep.push(dep);
        self.next.push(next);
        self.stats.capacity = self.dep.capacity();
        node
    }

    /// Prepends `dep` to the list headed by `head`; returns the new head.
    #[must_use]
    pub fn push(&mut self, head: u32, dep: u64) -> u32 {
        self.alloc(dep, head)
    }

    /// Drains the list headed by `head` into `out` (appending) and returns
    /// the nodes to the free list.
    pub fn drain_into(&mut self, mut head: u32, out: &mut Vec<u64>) {
        while head != NO_WAITER {
            let node = head as usize;
            out.push(self.dep[node]);
            head = self.next[node];
            self.next[node] = self.free;
            self.free = node as u32;
            self.stats.live -= 1;
        }
    }

    /// Frees every node at once (squash rebuild).  Keeps the pool storage, so
    /// this never gives memory back or allocates.
    pub fn reset(&mut self) {
        self.dep.clear();
        self.next.clear();
        self.free = NO_WAITER;
        self.stats.live = 0;
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
    waiter_head: Vec<u32>,
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
    /// [`Self::cold`] and freed (or taken over) the entry's waiter list.
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

    /// Whether `seq` has vector-element sources that must be polled.
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

    /// Head node of `seq`'s waiter list ([`NO_WAITER`] = empty).
    #[inline]
    #[must_use]
    pub fn waiter_head(&self, seq: u64) -> u32 {
        self.waiter_head[self.slot(seq)]
    }

    /// Replaces the head node of `seq`'s waiter list, returning the old head.
    #[inline]
    pub fn swap_waiter_head(&mut self, seq: u64, head: u32) -> u32 {
        let s = self.slot(seq);
        std::mem::replace(&mut self.waiter_head[s], head)
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
        assert_eq!(rob.waiter_head(7), NO_WAITER);

        for _ in 0..6 {
            rob.advance_head();
        }
        assert!(rob.is_empty());
    }

    #[test]
    fn waiter_arena_recycles_without_heap_growth() {
        let mut arena = WaiterArena::with_capacity(4);
        let mut head = NO_WAITER;
        for dep in [10, 11, 12] {
            head = arena.push(head, dep);
        }
        assert_eq!(arena.stats().live, 3);
        let mut out = Vec::new();
        arena.drain_into(head, &mut out);
        // Prepend order: the latest push comes first.
        assert_eq!(out, vec![12, 11, 10]);
        assert_eq!(arena.stats().live, 0);

        // Recycled nodes: no heap growth however many rounds run.
        for _ in 0..100 {
            let h = [1, 2, 3, 4]
                .into_iter()
                .fold(NO_WAITER, |h, dep| arena.push(h, dep));
            out.clear();
            arena.drain_into(h, &mut out);
        }
        let stats = arena.stats();
        assert_eq!(stats.heap_growths, 0, "pool never regrew");
        assert_eq!(stats.live, 0);
        assert!(stats.pushes >= 403);

        // Overflowing the pre-sized pool is counted.
        let mut h = NO_WAITER;
        for dep in 0..5 {
            h = arena.push(h, dep);
        }
        assert!(arena.stats().heap_growths >= 1);
        arena.reset();
        assert_eq!(arena.stats().live, 0);
    }

    #[test]
    fn duplicate_dependents_are_kept() {
        // An instruction reading one producer through both operands must be
        // woken twice; the arena must not dedup.
        let mut arena = WaiterArena::with_capacity(8);
        let head = arena.push(NO_WAITER, 42);
        let head = arena.push(head, 42);
        let mut out = Vec::new();
        arena.drain_into(head, &mut out);
        assert_eq!(out, vec![42, 42]);
    }
}
