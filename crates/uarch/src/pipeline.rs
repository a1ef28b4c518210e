//! The cycle-level out-of-order pipeline.
//!
//! The model is execution driven: the functional emulator supplies the
//! correct-path dynamic instruction stream (with resolved effective addresses
//! and branch outcomes) and the pipeline charges cycles for fetch, rename,
//! issue, execution, memory and commit, exactly in the style of
//! SimpleScalar's `sim-outorder`, extended with the speculative dynamic
//! vectorization mechanism of the paper.
//!
//! Modelling notes:
//!
//! * Wrong-path instructions are not executed.  When the front end predicts a
//!   branch incorrectly, fetch stalls until the branch resolves plus a
//!   configurable redirect penalty — the standard trace-driven approximation.
//!   Vector state is deliberately *not* flushed on a misprediction (§3.5), so
//!   correct-path instructions that follow can reuse already-computed vector
//!   elements; Figure 10 counts that reuse over 100-instruction windows.
//! * Validations occupy a ROB entry and commit bandwidth but neither a scalar
//!   functional unit nor a data-cache port; they complete one cycle after the
//!   vector element they check becomes ready.
//! * A store whose address falls in the range of a vector register (§3.6)
//!   forces the younger in-flight instructions to re-execute and charges the
//!   redirect penalty to the front end.
//!
//! # Two models
//!
//! [`Model`] selects one of two loops over the same struct-of-arrays ROB
//! ([`crate::rob::Rob`]), indexed directly by sequence number: in-flight
//! instructions occupy a contiguous sequence range, so `seq & mask`
//! addresses a slot in O(1) and the busy-loop probes (`issued`,
//! `complete_cycle`, the issue-group tag) touch dense scalar lanes instead of
//! striding over ~150-byte entries.
//!
//! The two loops share fetch, dispatch, the vector data path and commit;
//! they differ only in issue scheduling and clock stepping.  (Dispatch and
//! commit also keep the wakeup scheduler's indexes up to date under
//! [`Model::Fast`]; the reference scan never reads them.)
//!
//! * [`Model::Fast`] (the default) combines the two fast-path pieces below:
//!   the wakeup scheduler and macro-stepping.
//! * [`Model::Reference`] is the one oracle: the original full-window issue
//!   scan and one tick per simulated cycle.
//!
//! Both issue the identical instruction sequence cycle for cycle — a
//! property test pins issue traces and statistics on random programs and
//! §3.6 squash storms, and `tests/golden_stats.rs` checks both models against
//! the full per-workload counter sets — so every statistic the simulator
//! reports is bit-identical between them.
//!
//! # Scheduling
//!
//! The fast model's issue scheduler is event driven.  Each entry carries a
//! count of incomplete scalar producers; completions are scheduled on a
//! timing heap and, when they fire, wake their dependents through the
//! producer's waiter list.  Entries whose operands are all available sit in
//! a single program-ordered ready set, tagged with their issue group at
//! dispatch; issue is one sorted walk over that set, and a structural hazard
//! masks the whole group via a bitmask for the rest of the cycle.  Entries
//! waiting on a *vector* element — validations, and entries whose scalar
//! operands are ready but which read a vector element — are parked on a
//! per-vector-register park list instead.  Both kinds of list are linked
//! through ROB lanes allocated once up front ([`crate::rob`]).  The
//! engine journals every register whose ready or poison flags or generation
//! changed, and the scheduler drains that journal before each issue walk,
//! moving the entries that are now satisfied into the ready set
//! (event-driven, never polled).  Load/store disambiguation walks the queue
//! of in-flight stores rather than the whole ROB prefix.  The reference
//! model instead scans the whole window every cycle.
//!
//! # Macro-stepping
//!
//! On top of the event-driven scheduler the fast model's main loop jumps the
//! clock: when the machine is provably idle (fetch blocked or stalled,
//! nothing issuable in the ready set, no vector instance touching memory),
//! the loop consults the pending wakeup sources — the completion heap, the
//! ROB head's completion cycle, the vector data path's element-ready events,
//! the MSHR done-cycle deque and the front end's ready cycle — and advances
//! the clock straight to the earliest of them, bulk-charging the per-cycle
//! statistics (port-occupancy denominator, decode-blocked cycles) for the
//! skipped window.  Every counter stays bit-identical to the per-cycle loop
//! of [`Model::Reference`].

use crate::config::UarchConfig;
use crate::fu::FuPool;
use crate::rob::{waiter_seq, Rob, RobCold, NO_WAITER};
use crate::seqset::SeqSet;
use crate::stats::RunStats;
use crate::vector_dp::VectorDatapath;
use sdv_core::{DecodeContext, VregId};
use sdv_emu::{EmuError, Emulator, Retired};
use sdv_isa::{OpClass, Program, NUM_ARCH_REGS};
use sdv_mem::{DataMemory, PortKind, PortSet, WideBusStats};
use sdv_obs::{CycleBucket, CycleLedger, MetricsRegistry};
use sdv_predictor::BranchPredictor;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Issue-group indices: one group per issue resource, so a structural hazard
/// detected on one entry lets the whole group be masked for the rest of the
/// cycle.  `Q_STORE` is never masked (stores always issue), `Q_LOAD` is
/// masked only when an older store's address is unknown (loads otherwise
/// have per-entry port and forwarding outcomes), `Q_OTHER` holds classes
/// that need no functional unit, and `Q_VALIDATION` holds vector
/// validations (parked until their element resolves, never masked, and free
/// of issue bandwidth).  Groups tag entries in the single program-ordered
/// ready set; masking is a bit in a `u16`.
const Q_LOAD: u8 = 0;
const Q_STORE: u8 = 1;
const Q_ALU: u8 = 2;
const Q_MUL: u8 = 3;
const Q_FPADD: u8 = 4;
const Q_FPMUL: u8 = 5;
const Q_OTHER: u8 = 6;
const Q_VALIDATION: u8 = 7;

/// The issue group an instruction class issues from.  Groups mirror the
/// resource pools of [`FuPool`]: every class in a group competes for the same
/// units, so one failed acquire exhausts the group for the cycle.
fn issue_group_of(class: OpClass) -> u8 {
    match class {
        OpClass::Load => Q_LOAD,
        OpClass::Store => Q_STORE,
        OpClass::IntAlu | OpClass::Branch | OpClass::Jump => Q_ALU,
        OpClass::IntMul | OpClass::IntDiv => Q_MUL,
        OpClass::FpAdd => Q_FPADD,
        OpClass::FpMul | OpClass::FpDiv => Q_FPMUL,
        _ => Q_OTHER,
    }
}

/// The fetch queue holds two fetch groups.
fn fetch_queue_capacity(cfg: &UarchConfig) -> usize {
    2 * cfg.fetch_width
}

/// Cycle-attribution flag: the issue stage masked the load group because an
/// older store's address was unknown this cycle.
const FLAG_UNKNOWN_STORE: u8 = 1 << 0;
/// Cycle-attribution flag: the issue stage hit a structural hazard this cycle
/// (all units of a group busy).
const FLAG_STRUCTURAL: u8 = 1 << 1;

/// Ready-set keys pack the issue group into the low 3 bits of the sequence
/// number (`seq << 3 | group`).  The group is constant per entry, so the
/// packed order is exactly program order, and the per-cycle walk can test the
/// structural-hazard mask with pure integer ops — no ROB lookup for masked
/// entries.
fn ready_key(seq: u64, group: u8) -> u64 {
    (seq << 3) | u64::from(group)
}

/// The sequence number of a packed ready-set key.
fn key_seq(key: u64) -> u64 {
    key >> 3
}

/// The issue group of a packed ready-set key.
fn key_group(key: u64) -> u8 {
    (key & 0x7) as u8
}

/// Which pipeline loop drives the simulation.
///
/// The two models share fetch, dispatch and commit and differ only in issue
/// scheduling and clock stepping.  Both produce bit-identical statistics and
/// issue traces (pinned by a property test on random programs and squash
/// storms, and by the golden-stats suite on every workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Model {
    /// Event-driven wakeup issue and clock jumps over proven stall windows
    /// (the default).
    #[default]
    Fast,
    /// The reference oracle: a full-window issue scan and one tick every
    /// cycle.
    Reference,
}

/// Outcome of a single ready-load issue attempt in the wakeup walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadAttempt {
    /// The load issued (by port access or store forwarding).
    Issued,
    /// The load cannot issue this cycle, but the failure is specific to this
    /// load (busy port, pending forward, full MSHRs) — keep walking.
    Retry,
    /// An older store's address is unknown, which blocks this load *and*
    /// every younger load; the walk masks the whole load group.
    BlockedOnUnknownStore,
}

/// How a dispatched instruction will be executed (part of the cold ROB
/// payload, [`RobCold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Normal scalar execution.
    Scalar,
    /// The instruction only validates a vector element.
    Validation {
        /// The vector register holding the speculated element.
        vreg: VregId,
        /// The register generation the element belongs to.
        generation: u64,
        /// The element offset within the register.
        offset: usize,
    },
}

/// Where a source operand's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcMapping {
    /// The architectural value is already committed.
    Ready,
    /// Produced by the in-flight instruction with this sequence number.
    Rob(u64),
    /// Produced speculatively as a vector element.
    VecElem(VregId, u64, usize),
}

/// The processor model: a superscalar out-of-order core, optionally extended
/// with the speculative dynamic vectorization mechanism.
///
/// ```
/// use sdv_isa::{ArchReg, Asm};
/// use sdv_mem::PortKind;
/// use sdv_uarch::{Processor, UarchConfig};
///
/// let mut a = Asm::new();
/// let xs = a.data_u64(&(0..64).collect::<Vec<u64>>());
/// let (p, s, x, n) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3), ArchReg::int(4));
/// a.li(p, xs as i64);
/// a.li(s, 0);
/// a.li(n, 64);
/// a.label("loop");
/// a.ld(x, p, 0);
/// a.add(s, s, x);
/// a.addi(p, p, 8);
/// a.addi(n, n, -1);
/// a.bne(n, ArchReg::ZERO, "loop");
/// a.halt();
/// let program = a.finish();
///
/// let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
/// let mut proc = Processor::new(&cfg, &program);
/// let stats = proc.run(10_000);
/// assert!(stats.ipc() > 0.5);
/// assert!(stats.committed_validations > 0, "the strided load was vectorized");
/// ```
#[derive(Debug)]
pub struct Processor {
    cfg: UarchConfig,
    emu: Emulator,
    predictor: BranchPredictor,
    /// The memory hierarchy: L1-I, L1-D, the one L2 and the MSHRs.
    mem: DataMemory,
    ports: PortSet,
    wide_stats: WideBusStats,
    fus: FuPool,
    /// The DV unit (§3): the vectorization engine inside the vector data
    /// path; `None` when the mechanism is disabled.
    dv: Option<VectorDatapath>,
    /// The reorder buffer; its lanes also link the wakeup scheduler's
    /// producer → dependent lists and the park lists of `vec_waiters`.
    rob: Rob,
    fetch_queue: VecDeque<Retired>,
    map_table: Vec<SrcMapping>,
    lsq_occupancy: usize,
    /// Sequence numbers of in-flight stores, in program order: the store
    /// queue the fast model walks for load/store disambiguation
    /// ([`Self::older_store_state`]).
    store_queue: VecDeque<u64>,
    model: Model,
    /// Wakeup scheduler: the single program-ordered set of issuable entries —
    /// unissued instructions whose sources are ready, plus validations whose
    /// element is resolved.  Elements are packed [`ready_key`]s (sequence
    /// number + issue group), so the per-cycle walk is one sorted scan
    /// instead of a head merge across per-group queues, and a structural
    /// hazard masks a whole group via a bit in a `u16` without touching the
    /// ROB.
    ready_all: SeqSet,
    /// Wakeup scheduler: the head of each vector register's park list
    /// ([`NO_WAITER`] = empty), linked through the ROB's `park_next` lane.
    /// A list holds validations whose element is unresolved and entries
    /// whose scalar operands are ready but which still wait on a vector
    /// element.  Each parked entry sits on exactly one list (the register of
    /// an unresolved element it needs) and is re-examined only when the
    /// engine's touched journal reports that register
    /// ([`Self::drain_vector_wakeups`]).  Indexed by register.
    vec_waiters: Vec<u64>,
    /// Wakeup scheduler: pending completion events `(cycle, producer seq)`.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Reusable scratch buffer for wide-bus peer loads.
    peer_scratch: Vec<u64>,
    /// Optional issue trace `(cycle, seq)` for scheduler-equivalence tests.
    issue_trace: Option<Vec<(u64, u64)>>,
    /// Optional cycle-attribution ledger (see [`Self::record_cycle_ledger`]).
    /// Boxed so the disabled default costs one pointer in the hot struct.
    ledger: Option<Box<CycleLedger>>,
    /// Hazard flags the issue stage recorded this cycle (ledger enabled
    /// only); consumed and cleared by [`Self::attribute_cycle`].
    cycle_flags: u8,
    cycle: u64,
    /// Macro-step telemetry: number of clock jumps taken.
    macro_jumps: u64,
    /// Macro-step telemetry: total cycles skipped by clock jumps.
    macro_skipped_cycles: u64,
    /// Work counter: entries put on a vector-register park list (first
    /// parks plus re-parks after a wakeup that left them unresolved).
    vec_parked: u64,
    /// Work counter: parked entries moved into the ready set.
    vec_promoted: u64,
    /// Work counter: §3.6 store-conflict squashes.
    squash_events: u64,
    /// Work counter: ROB entries re-armed by squashes (every entry younger
    /// than the conflicting store except already-issued stores).
    squash_rearmed: u64,
    /// No fetch before this cycle (I-cache miss or redirect penalty).
    fetch_ready_cycle: u64,
    /// Sequence number of an unresolved mispredicted branch blocking fetch.
    fetch_blocked_on: Option<u64>,
    emulator_done: bool,
    stats: RunStats,
    last_commit_cycle: u64,
    /// Remaining instructions in the current Figure-10 observation window.
    cfi_window_left: u64,
}

impl Processor {
    /// Builds a processor for `program` with configuration `cfg`.
    #[must_use]
    pub fn new(cfg: &UarchConfig, program: &Program) -> Self {
        let dv = cfg
            .vectorization
            .map(|dv| VectorDatapath::new(&dv, cfg.vector_fus));
        Processor {
            emu: Emulator::new(program),
            predictor: BranchPredictor::new(&cfg.predictor),
            mem: DataMemory::new(&cfg.memory),
            ports: PortSet::new(cfg.port_kind, cfg.dcache_ports),
            wide_stats: WideBusStats::new(cfg.line_words()),
            fus: FuPool::new(cfg.scalar_fus),
            dv,
            rob: Rob::new(cfg.rob_size),
            fetch_queue: VecDeque::with_capacity(fetch_queue_capacity(cfg)),
            map_table: vec![SrcMapping::Ready; NUM_ARCH_REGS],
            lsq_occupancy: 0,
            store_queue: VecDeque::new(),
            model: Model::default(),
            ready_all: SeqSet::new(),
            vec_waiters: vec![NO_WAITER; cfg.vectorization.map_or(0, |dv| dv.vector_registers)],
            completions: BinaryHeap::new(),
            peer_scratch: Vec::new(),
            issue_trace: None,
            ledger: None,
            cycle_flags: 0,
            cycle: 0,
            macro_jumps: 0,
            macro_skipped_cycles: 0,
            vec_parked: 0,
            vec_promoted: 0,
            squash_events: 0,
            squash_rearmed: 0,
            fetch_ready_cycle: 0,
            fetch_blocked_on: None,
            emulator_done: false,
            stats: RunStats::new(cfg.dcache_ports),
            last_commit_cycle: 0,
            cfi_window_left: 0,
            cfg: cfg.clone(),
        }
    }

    /// Selects the pipeline model.  Call before [`Self::run`]; both models
    /// produce bit-identical results.
    pub fn set_model(&mut self, model: Model) {
        self.model = model;
    }

    /// The active pipeline model.
    #[must_use]
    pub fn model(&self) -> Model {
        self.model
    }

    /// Macro-stepping telemetry: `(clock jumps taken, total cycles skipped)`.
    ///
    /// Purely informational — deliberately *not* part of [`RunStats`], which
    /// is compared bit-for-bit between the two models.  Always `(0, 0)` under
    /// [`Model::Reference`], which never jumps.
    #[must_use]
    pub fn macro_step_telemetry(&self) -> (u64, u64) {
        (self.macro_jumps, self.macro_skipped_cycles)
    }

    /// Enables (or disables) recording of the issue trace: one `(cycle, seq)`
    /// pair per instruction, in the order issue decisions were made.  Used by
    /// the fast ≡ reference differential tests.
    pub fn record_issue_trace(&mut self, enable: bool) {
        self.issue_trace = enable.then(Vec::new);
    }

    /// Takes the recorded issue trace (empty if recording was never enabled).
    pub fn take_issue_trace(&mut self) -> Vec<(u64, u64)> {
        self.issue_trace.take().unwrap_or_default()
    }

    /// Enables (or disables) the cycle-attribution ledger: every simulated
    /// cycle is charged to exactly one [`CycleBucket`], and macro-step clock
    /// jumps charge the skipped window to
    /// [`CycleBucket::MacroStepJumped`] in bulk (the same skipped-cycle
    /// count [`Self::macro_step_telemetry`] reports).
    ///
    /// Like the issue trace, the ledger is deliberately *not* part of
    /// [`RunStats`]: stats stay bit-identical whether or not attribution is
    /// on.  Hazard attribution (the unknown-store and structural buckets) is
    /// recorded by the fast model's wakeup scheduler; under
    /// [`Model::Reference`] those cycles land in the residual bucket, but the
    /// bucket-sum invariant (`CycleLedger::total()` ≡ [`RunStats`] cycles)
    /// holds for both models.
    pub fn record_cycle_ledger(&mut self, enable: bool) {
        self.ledger = enable.then(|| Box::new(CycleLedger::new()));
        self.cycle_flags = 0;
    }

    /// The recorded cycle-attribution ledger, if enabled.
    #[must_use]
    pub fn cycle_ledger(&self) -> Option<&CycleLedger> {
        self.ledger.as_deref()
    }

    /// Exports this processor's observability metrics into `registry`:
    /// the cycle ledger (as `pipeline.cycles.<bucket>` counters), the
    /// macro-step telemetry, the deterministic work counters of the vector
    /// wakeups and §3.6 squashes (`pipeline.vector.parked` /
    /// `pipeline.vector.promoted`, `pipeline.squash.events` /
    /// `pipeline.squash.rearmed_entries`), and the memory-hierarchy
    /// instrumentation the stats struct does not carry (MSHR occupancy and
    /// the unified L2's `cache.l2.*` counters).
    /// Counters accumulate, so calling this for every cell of an engine run
    /// aggregates across the whole session.
    pub fn obs_metrics(&mut self, registry: &mut MetricsRegistry) {
        if let Some(ledger) = self.ledger.as_deref() {
            ledger.export_to(registry, "pipeline.cycles");
        }
        registry.add_counter("pipeline.macro_step.jumps", self.macro_jumps);
        registry.add_counter(
            "pipeline.macro_step.skipped_cycles",
            self.macro_skipped_cycles,
        );
        registry.add_counter("pipeline.vector.parked", self.vec_parked);
        registry.add_counter("pipeline.vector.promoted", self.vec_promoted);
        registry.add_counter("pipeline.squash.events", self.squash_events);
        registry.add_counter("pipeline.squash.rearmed_entries", self.squash_rearmed);
        registry.add_counter("cache.l1d.mshr.full_events", self.mem.mshr_full_events());
        let l2 = self.mem.l2_stats();
        registry.add_counter("cache.l2.accesses", l2.accesses);
        registry.add_counter("cache.l2.hits", l2.hits);
        registry.add_counter("cache.l2.misses", l2.misses);
        registry.add_counter("cache.l2.writebacks", l2.writebacks);
        let outstanding = self.mem.outstanding_misses(self.cycle);
        registry.set_gauge("cache.l1d.mshr.outstanding_at_end", {
            #[allow(clippy::cast_precision_loss)]
            {
                outstanding as f64
            }
        });
    }

    /// The architectural (functional) state, for checking results after a run.
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Runs until `max_insts` instructions have committed or the program halts,
    /// and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for an extended number
    /// of cycles (which would indicate a modelling bug, not a program error).
    pub fn run(&mut self, max_insts: u64) -> RunStats {
        while self.stats.committed < max_insts && !self.finished() {
            // One branch per cycle when attribution is off; the before-value
            // is only read again inside `attribute_cycle`.
            let attributing = self.ledger.is_some();
            let committed_before = if attributing { self.stats.committed } else { 0 };
            self.cycle += 1;
            self.begin_cycle();
            self.commit();
            self.issue();
            self.step_vector();
            self.dispatch();
            self.fetch();
            assert!(
                self.cycle - self.last_commit_cycle < 100_000,
                "pipeline made no progress for 100k cycles at cycle {} (rob = {}, fetched = {})",
                self.cycle,
                self.rob.len(),
                self.fetch_queue.len()
            );
            if attributing {
                self.attribute_cycle(committed_before);
            }
            if self.model == Model::Fast {
                self.try_macro_step(max_insts);
            }
        }
        self.finalize();
        self.stats.clone()
    }

    fn finished(&self) -> bool {
        self.emulator_done && self.rob.is_empty() && self.fetch_queue.is_empty()
    }

    /// Charges the cycle that just finished simulating to exactly one
    /// [`CycleBucket`].  First-match classification, in declaration order:
    /// commit progress wins, then the recorded hazards, then the front-end
    /// conditions, with [`CycleBucket::InFlightWait`] as the documented
    /// residual (in-flight work progressing without commit).  Macro-step
    /// jumps charge their skipped window separately in
    /// [`Self::try_macro_step`], so `ledger.total()` equals the final cycle
    /// count — the invariant the exhaustiveness proptest pins.
    fn attribute_cycle(&mut self, committed_before: u64) {
        let bucket = if self.stats.committed > committed_before {
            CycleBucket::Committing
        } else if self.dv.as_ref().is_some_and(|v| v.active_instances() > 0) {
            CycleBucket::VectorDatapathBusy
        } else if self.cycle_flags & FLAG_UNKNOWN_STORE != 0 {
            CycleBucket::UnknownStoreMasked
        } else if self.cycle_flags & FLAG_STRUCTURAL != 0 {
            CycleBucket::IssueStructuralHazard
        } else if self.emulator_done {
            CycleBucket::Drained
        } else if self.fetch_blocked_on.is_some() || self.cycle < self.fetch_ready_cycle {
            CycleBucket::FetchBlocked
        } else {
            CycleBucket::InFlightWait
        };
        self.cycle_flags = 0;
        if let Some(ledger) = self.ledger.as_deref_mut() {
            ledger.record(bucket);
        }
    }

    fn begin_cycle(&mut self) {
        self.ports.begin_cycle();
        self.fus.begin_cycle();
    }

    fn trace_issue(&mut self, seq: u64) {
        if let Some(trace) = self.issue_trace.as_mut() {
            trace.push((self.cycle, seq));
        }
    }

    // ---------------------------------------------------------------- fetch

    fn fetch(&mut self) {
        if self.emulator_done || self.cycle < self.fetch_ready_cycle {
            return;
        }
        if let Some(seq) = self.fetch_blocked_on {
            // Waiting for a mispredicted branch to resolve.
            if self.fetch_queue.iter().any(|f| f.seq == seq) {
                return; // not even dispatched yet
            }
            if self.rob.contains(seq) {
                if self.rob.completed(seq, self.cycle) {
                    self.fetch_ready_cycle =
                        (self.rob.complete_cycle(seq) + self.cfg.redirect_penalty).max(self.cycle);
                    self.fetch_blocked_on = None;
                }
                return;
            }
            // The branch already committed (it resolved while we were not looking).
            self.fetch_blocked_on = None;
        }
        let capacity = fetch_queue_capacity(&self.cfg);
        if self.fetch_queue.len() >= capacity {
            return;
        }

        // Model the instruction-cache access for this fetch group, at the PC
        // of the next instruction to enter the queue.
        let latency = self.mem.fetch_latency(self.emu.pc());
        if latency > self.cfg.memory.l1_hit_cycles {
            self.fetch_ready_cycle = self.cycle + latency;
            return;
        }

        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.fetch_queue.len() < capacity {
            let retired = match self.emu.step() {
                Ok(r) => r,
                Err(EmuError::Halted) => {
                    self.emulator_done = true;
                    break;
                }
                Err(e) => panic!("emulation error during fetch: {e}"),
            };
            let mut mispredicted = false;
            let mut taken = false;
            if retired.inst.is_control() {
                self.stats.branch_lookups += 1;
                taken = retired.taken;
                let prediction = match retired.inst.op {
                    sdv_isa::Opcode::Jr => self.predictor.predict_return(retired.pc),
                    op if op.class() == OpClass::Jump => self.predictor.predict_jump(retired.pc),
                    _ => self.predictor.predict_branch(retired.pc),
                };
                let correct = prediction.taken == retired.taken
                    && (!retired.taken || prediction.target == Some(retired.next_pc));
                match retired.inst.op.class() {
                    OpClass::Branch => {
                        self.predictor
                            .update_branch(retired.pc, retired.taken, retired.next_pc);
                    }
                    _ => self.predictor.update_jump(retired.pc, retired.next_pc),
                }
                if matches!(
                    retired.inst.op,
                    sdv_isa::Opcode::Jal | sdv_isa::Opcode::Jalr
                ) {
                    self.predictor.push_return_address(retired.pc + 4);
                }
                if !correct {
                    mispredicted = true;
                    self.stats.mispredictions += 1;
                    // Open a fresh Figure-10 observation window.
                    self.cfi_window_left = 100;
                }
            }
            let seq = retired.seq;
            self.fetch_queue.push_back(retired);
            fetched += 1;
            if mispredicted {
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if taken {
                break; // at most one taken branch per fetch group
            }
        }
    }

    // ------------------------------------------------------------- dispatch

    /// Dispatches up to `issue_width` instructions from the fetch queue in
    /// fetch order.  Under [`Model::Fast`] the dispatched group is then
    /// classified for the wakeup scheduler in one pass
    /// ([`Self::classify_group`]); the per-instruction half
    /// ([`Self::dispatch_core`]) is the same under both models.
    ///
    /// Deferring classification to the end of the group is exact: nothing
    /// between the first and last instruction of a group can change a
    /// producer's completion state (issue ran earlier in the cycle), and
    /// vector-element resolution is monotonic.
    fn dispatch(&mut self) {
        let first = self.rob.tail();
        let mut dispatched = 0;
        while dispatched < self.cfg.issue_width && self.can_dispatch_front() {
            let fetched = self.fetch_queue.pop_front().expect("front exists");
            self.dispatch_core(fetched);
            dispatched += 1;
        }
        if self.model == Model::Fast && dispatched > 0 {
            self.classify_group(first);
        }
    }

    /// Whether the front-of-queue instruction can dispatch this cycle.
    /// Charges the §3.2 decode-block statistic when that is what stops it.
    fn can_dispatch_front(&mut self) -> bool {
        let Some(front) = self.fetch_queue.front() else {
            return false;
        };
        if self.rob.len() >= self.cfg.rob_size {
            return false;
        }
        if front.inst.is_mem() && self.lsq_occupancy >= self.cfg.lsq_size {
            return false;
        }
        // §3.2: an instruction about to be vectorized with a scalar operand
        // whose value is not available blocks decode.
        if self.cfg.block_on_scalar_operand && self.would_block_on_scalar(front) {
            self.stats.decode_blocked_cycles += 1;
            return false;
        }
        true
    }

    fn would_block_on_scalar(&self, r: &Retired) -> bool {
        let Some(dv) = &self.dv else {
            return false;
        };
        if !r.inst.op.class().is_arith() {
            return false;
        }
        // One batched VRMT pass over both sources instead of up to four
        // point lookups.
        let srcs = [r.inst.src1, r.inst.src2];
        let maps = dv.engine().current_mappings(srcs);
        if !maps.iter().any(Option::is_some) {
            return false;
        }
        // Does any non-vector source still depend on an incomplete in-flight producer?
        srcs.iter().zip(&maps).any(|(reg, map)| {
            reg.is_some()
                && map.is_none()
                && matches!(self.map_table[reg.expect("checked").flat_index()], SrcMapping::Rob(seq)
                    if self.rob.contains(seq) && !self.rob.completed(seq, self.cycle))
        })
    }

    /// The per-instruction half of [`Self::dispatch`]: engine decode, rename,
    /// Figure-10 accounting and the ROB push.
    fn dispatch_core(&mut self, r: Retired) {
        let class = r.inst.op.class();

        // Ask the DV unit what this instruction becomes; it dispatches any
        // vector instance the decode creates.  For a non-vectorizable
        // instruction with no destination (stores, branches, nops) the
        // engine's decode is a no-op by construction, so the context build
        // and the call are skipped outright.
        let mode = match self.dv.as_mut() {
            Some(dv) if class.is_vectorizable() || r.inst.dst.is_some() => {
                dv.decode(&Self::decode_context(&r))
            }
            _ => ExecMode::Scalar,
        };

        // Record source dependences *before* updating the destination mapping.
        let mut src_scalar = [None, None];
        let mut src_vec = [None, None];
        for (i, reg) in [r.inst.src1, r.inst.src2].into_iter().enumerate() {
            let Some(reg) = reg else { continue };
            if reg.is_zero() {
                continue;
            }
            match self.map_table[reg.flat_index()] {
                SrcMapping::Ready => {}
                SrcMapping::Rob(seq) => src_scalar[i] = Some(seq),
                SrcMapping::VecElem(vreg, generation, offset) => {
                    src_vec[i] = Some((vreg, generation, offset));
                }
            }
        }

        // Update the destination mapping.
        if let Some(dst) = r.inst.dst {
            if !dst.is_zero() {
                self.map_table[dst.flat_index()] = match mode {
                    ExecMode::Scalar => SrcMapping::Rob(r.seq),
                    ExecMode::Validation {
                        vreg,
                        generation,
                        offset,
                    } => SrcMapping::VecElem(vreg, generation, offset),
                };
            }
        }

        // Figure 10: observe the window following a mispredicted branch.
        if self.cfi_window_left > 0 {
            self.stats.post_mispredict_window += 1;
            if let ExecMode::Validation { vreg, offset, .. } = mode {
                if self
                    .dv
                    .as_ref()
                    .is_some_and(|dv| dv.engine().element_ready(vreg, offset))
                {
                    self.stats.post_mispredict_reused += 1;
                }
            }
            self.cfi_window_left -= 1;
        }

        if r.inst.is_mem() {
            self.lsq_occupancy += 1;
        }
        if r.inst.is_store() {
            self.store_queue.push_back(r.seq);
        }
        let queue = if matches!(mode, ExecMode::Validation { .. }) {
            Q_VALIDATION
        } else {
            issue_group_of(class)
        };
        self.rob.push(
            RobCold {
                retired: r,
                class,
                mode,
                src_scalar,
                src_vec,
            },
            queue,
        );
    }

    /// Scoreboard classification of the unissued entries `first..tail`:
    /// counts incomplete scalar producers, registers each entry as their
    /// waiter, and routes it to the ready set or a vector-register park
    /// list.  Used for a freshly dispatched group and for the whole window
    /// by the squash rebuild, which is why issued entries are skipped.
    /// Entries are visited in ascending order and the ready set holds only
    /// older keys (or is empty, in the rebuild), so every ready-set insert
    /// is a plain tail append.
    fn classify_group(&mut self, first: u64) {
        for seq in first..self.rob.tail() {
            if self.rob.issued(seq) {
                continue;
            }
            let queue = self.rob.queue(seq);
            let cold = self.rob.cold(seq);
            if queue == Q_VALIDATION {
                let ExecMode::Validation {
                    vreg,
                    generation,
                    offset,
                } = cold.mode
                else {
                    unreachable!("the validation group holds only validations");
                };
                if self.validation_ready(vreg, generation, offset) {
                    self.ready_all.extend_back(ready_key(seq, Q_VALIDATION));
                } else {
                    self.park_on_vreg(seq, vreg);
                }
                continue;
            }
            let (src_scalar, src_vec) = (cold.src_scalar, cold.src_vec);
            let mut pending: u8 = 0;
            for (operand, producer) in src_scalar.into_iter().enumerate() {
                let Some(producer) = producer else { continue };
                if self.rob.contains(producer) && !self.rob.completed(producer, self.cycle) {
                    pending += 1;
                    self.rob.add_waiter(producer, seq, operand);
                }
            }
            let has_vec_wait = self.dv.is_some() && src_vec.iter().any(Option::is_some);
            self.rob.set_pending_scalar(seq, pending);
            self.rob.set_has_vec_wait(seq, has_vec_wait);
            if pending > 0 {
                continue;
            }
            if has_vec_wait {
                if let Some(vreg) = self.first_unresolved_vec_source(&src_vec) {
                    self.park_on_vreg(seq, vreg);
                    continue;
                }
            }
            self.ready_all.extend_back(ready_key(seq, queue));
        }
    }

    /// Parks `seq` at the head of the park list of vector register `vreg`,
    /// one of whose elements it needs and which is not resolved yet.
    fn park_on_vreg(&mut self, seq: u64, vreg: VregId) {
        let idx = vreg.index();
        if idx >= self.vec_waiters.len() {
            // Only an unbounded register file outgrows the configured count.
            self.vec_waiters.resize(idx + 1, NO_WAITER);
        }
        self.rob.set_park_next(seq, self.vec_waiters[idx]);
        self.vec_waiters[idx] = seq;
        self.vec_parked += 1;
    }

    /// Event-driven vector wakeups: drains the engine's touched journal and
    /// re-examines every entry parked on a touched register.  An entry whose
    /// needed elements are now all resolved enters the ready set; one that
    /// still waits (another element of the same register, or its other
    /// vector source) is parked again on the register it now needs.
    ///
    /// Exactness: an unresolved validation or vector-waiting entry is inert
    /// in the issue walk (its visit has no side effect and does not count
    /// toward the issue width), resolution is monotonic over an entry's
    /// life, and this runs before every walk, so the walk sees exactly the
    /// ready set it would have seen polling every entry in place.
    fn drain_vector_wakeups(&mut self) {
        while let Some(vreg) = self
            .dv
            .as_mut()
            .and_then(|dv| dv.engine_mut().pop_touched())
        {
            // Detach the list so re-parks onto the same register start a new
            // one.
            let Some(head) = self.vec_waiters.get_mut(vreg.index()) else {
                continue;
            };
            let mut seq = std::mem::replace(head, NO_WAITER);
            while seq != NO_WAITER {
                // Read the link first: a re-park overwrites it.
                let next = self.rob.park_next(seq);
                debug_assert!(
                    self.rob.contains(seq) && !self.rob.issued(seq),
                    "parked entries are in flight and unissued"
                );
                let cold = self.rob.cold(seq);
                let unresolved = match cold.mode {
                    ExecMode::Validation {
                        vreg,
                        generation,
                        offset,
                    } => (!self.validation_ready(vreg, generation, offset)).then_some(vreg),
                    ExecMode::Scalar => self.first_unresolved_vec_source(&cold.src_vec),
                };
                match unresolved {
                    Some(vreg) => self.park_on_vreg(seq, vreg),
                    None => {
                        self.vec_promoted += 1;
                        self.insert_ready(seq);
                    }
                }
                seq = next;
            }
        }
    }

    /// Inserts an entry into the ready set.
    fn insert_ready(&mut self, seq: u64) {
        self.ready_all.insert(ready_key(seq, self.rob.queue(seq)));
    }

    fn decode_context(r: &Retired) -> DecodeContext {
        let class = r.inst.op.class();
        match class {
            OpClass::Load => DecodeContext::load(
                r.pc,
                r.inst.dst.expect("loads have destinations"),
                r.mem.expect("loads access memory").addr,
                r.mem.expect("loads access memory").width,
            ),
            c if c.is_vectorizable() => DecodeContext::arith(
                r.pc,
                class,
                r.inst
                    .dst
                    .expect("vectorizable arithmetic has a destination"),
                [
                    r.inst.src1.map(|reg| (reg, r.src1_value)),
                    r.inst.src2.map(|reg| (reg, r.src2_value)),
                ],
            ),
            _ => DecodeContext::other(r.pc, class, r.inst.dst),
        }
    }

    // ---------------------------------------------------------------- issue

    fn sources_ready(&self, seq: u64) -> bool {
        let cold = self.rob.cold(seq);
        for producer in cold.src_scalar.into_iter().flatten() {
            if self.rob.contains(producer) && !self.rob.completed(producer, self.cycle) {
                return false;
            }
        }
        self.first_unresolved_vec_source(&cold.src_vec).is_none()
    }

    /// The vector half of [`Self::sources_ready`]: the register of the first
    /// vector source element that is not resolved yet — neither ready nor
    /// poisoned, in a register not re-allocated since — if any.  Each of
    /// those conditions is monotonic over an entry's lifetime.
    fn first_unresolved_vec_source(
        &self,
        src_vec: &[Option<(VregId, u64, usize)>; 2],
    ) -> Option<VregId> {
        let engine = self.dv.as_ref()?.engine();
        src_vec
            .iter()
            .flatten()
            .find(|&&(vreg, generation, offset)| !engine.element_resolved(vreg, generation, offset))
            .map(|&(vreg, _, _)| vreg)
    }

    fn validation_ready(&self, vreg: VregId, generation: u64, offset: usize) -> bool {
        self.dv
            .as_ref()
            .expect("validations exist only with the DV unit")
            .engine()
            .element_resolved(vreg, generation, offset)
    }

    fn issue(&mut self) {
        match self.model {
            Model::Fast => self.issue_wakeup(),
            Model::Reference => self.issue_naive(),
        }
    }

    // ----------------------------------------------------- wakeup scheduler

    /// Schedules the wakeup of `seq`'s dependents at its completion cycle.
    fn push_completion(&mut self, seq: u64) {
        if self.rob.cold(seq).wakes_dependents() {
            self.completions
                .push(Reverse((self.rob.complete_cycle(seq), seq)));
        }
    }

    /// Detaches `seq`'s waiter list and wakes each linked operand through
    /// [`Self::wake_dependent`].  A dependent reading `seq` through both
    /// operands is on the list twice and is woken twice.
    fn wake_waiters_of(&mut self, seq: u64) {
        let mut node = self.rob.take_waiters(seq);
        while node != NO_WAITER {
            let next = self.rob.next_waiter(node);
            self.wake_dependent(waiter_seq(node));
            node = next;
        }
    }

    /// Fires every completion event due this cycle, decrementing dependents'
    /// pending counts and promoting entries whose operands are now all ready.
    fn drain_completions(&mut self) {
        while let Some(&Reverse((when, _))) = self.completions.peek() {
            if when > self.cycle {
                break;
            }
            let Reverse((_, producer)) = self.completions.pop().expect("peeked");
            if !self.rob.contains(producer) {
                continue; // committed; its waiters were woken at commit
            }
            self.wake_waiters_of(producer);
        }
    }

    /// Decrements the pending count of `dep`; once its operands are all
    /// available it enters the ready set, or parks on the register of a
    /// vector element it still needs.
    fn wake_dependent(&mut self, dep: u64) {
        if !self.rob.contains(dep) || self.rob.issued(dep) {
            return;
        }
        let pending = self.rob.pending_scalar(dep).saturating_sub(1);
        self.rob.set_pending_scalar(dep, pending);
        if pending > 0 {
            return;
        }
        if self.rob.has_vec_wait(dep) {
            let src_vec = self.rob.cold(dep).src_vec;
            if let Some(vreg) = self.first_unresolved_vec_source(&src_vec) {
                self.park_on_vreg(dep, vreg);
                return;
            }
        }
        self.insert_ready(dep);
    }

    fn issue_wakeup(&mut self) {
        self.drain_completions();
        self.drain_vector_wakeups();

        // Walk the ready set — one sorted vector already merged in program
        // order — lazily: the scan stops as soon as the issue width is
        // exhausted (exactly like the reference scan), and a group whose
        // functional units are all busy is masked for the rest of the cycle —
        // every later entry of that group would fail the same structural
        // hazard, so skipping it is behaviour preserving.  Failed attempts
        // with per-entry outcomes (loads: ports, MSHRs, disambiguation) are
        // never masked, the walk just moves past them.  Validations and
        // vector-waiting entries are parked until their element resolves
        // ([`Self::drain_vector_wakeups`]), so every validation in the set
        // issues.  When the current element is removed (it issued),
        // the next one shifts into its position and the cursor stays put;
        // wide-bus peers are removed at later positions only (they are
        // younger), so the cursor stays valid.
        let mut pos = 0usize;
        let mut masked: u16 = 0;
        // Cycle-attribution flags, folded into `cycle_flags` at the end of
        // the walk (only when the ledger is recording).  Plain register ops
        // in the loop; the masking semantics are untouched.
        let mut hazard_flags: u8 = 0;
        let mut issued = 0;
        while issued < self.cfg.issue_width {
            let Some(key) = self.ready_all.get(pos) else {
                break;
            };
            let queue = key_group(key);
            if masked & (1 << queue) != 0 {
                // The group's structural hazard was already detected this
                // cycle; the packed key answers without a ROB lookup.
                pos += 1;
                continue;
            }
            let seq = key_seq(key);
            if !self.rob.contains(seq) {
                pos += 1;
                continue;
            }
            if self.rob.issued(seq) {
                // Served as a wide-bus peer earlier this cycle; it stays in
                // the set only until the peer loop removes it.
                pos += 1;
                continue;
            }
            match queue {
                Q_VALIDATION => {
                    // Validations complete on their own once the element is
                    // resolved (only then do they enter the ready set); they
                    // do not consume issue bandwidth, functional units or
                    // cache ports.
                    debug_assert!(
                        matches!(self.rob.cold(seq).mode, ExecMode::Validation { vreg, generation, offset }
                            if self.validation_ready(vreg, generation, offset)),
                        "only resolved validations are in the ready set"
                    );
                    self.rob.set_issued(seq, true);
                    self.rob.set_complete_cycle(seq, self.cycle + 1);
                    self.ready_all.remove_at(pos);
                    self.trace_issue(seq);
                }
                Q_STORE => {
                    // Stores only compute their address at issue; memory is
                    // updated at commit.
                    self.rob.set_issued(seq, true);
                    self.rob.set_store_addr_known(seq, true);
                    self.rob.set_complete_cycle(seq, self.cycle + 1);
                    self.ready_all.remove_at(pos);
                    self.trace_issue(seq);
                    issued += 1;
                }
                Q_LOAD => {
                    match self.try_issue_load_wakeup(seq, pos) {
                        LoadAttempt::Issued => issued += 1,
                        LoadAttempt::Retry => pos += 1,
                        // An older store's address is unknown.  The walk is in
                        // program order, so that store is also older than every
                        // later ready load: they would all fail the same
                        // disambiguation check, and no store can issue later in
                        // this walk (stores issue in program order too, so a
                        // still-unknown store is not ready this cycle).
                        LoadAttempt::BlockedOnUnknownStore => {
                            masked |= 1 << Q_LOAD;
                            hazard_flags |= FLAG_UNKNOWN_STORE;
                        }
                    }
                }
                _ => {
                    let class = self.rob.cold(seq).class;
                    if let Some(latency) = self.fus.try_issue(class) {
                        if class.is_arith() {
                            self.stats.scalar_arith_executed += 1;
                        }
                        self.rob.set_issued(seq, true);
                        self.rob.set_complete_cycle(seq, self.cycle + latency);
                        self.ready_all.remove_at(pos);
                        self.push_completion(seq);
                        self.trace_issue(seq);
                        issued += 1;
                    } else {
                        // Structural hazard: every unit of this group is busy
                        // for the rest of the cycle.
                        masked |= 1 << queue;
                        hazard_flags |= FLAG_STRUCTURAL;
                    }
                }
            }
        }
        if self.ledger.is_some() {
            self.cycle_flags = hazard_flags;
        }
    }

    /// Whether every store older than `load_seq` has a known address, and, if
    /// one of them overlaps the load, the youngest such store for forwarding.
    ///
    /// This is the pipeline's one load/store rule: a load waits until every
    /// older store's address is known, then forwards from the youngest older
    /// store it overlaps.  The fast model answers it with one forward walk
    /// over the in-flight store queue (program order, oldest first), which
    /// dispatch fills and commit drains; [`Self::older_store_state_naive`]
    /// is the reference model's walk over the ROB prefix.
    fn older_store_state(&self, load_seq: u64) -> (bool, Option<u64>) {
        let (laddr, lwidth) = (self.rob.addr(load_seq), self.rob.width(load_seq));
        let mut forward = None;
        for &store_seq in self.store_queue.iter().take_while(|&&s| s < load_seq) {
            if !self.rob.store_addr_known(store_seq) {
                return (false, None);
            }
            let (saddr, swidth) = (self.rob.addr(store_seq), self.rob.width(store_seq));
            if saddr < laddr + lwidth && laddr < saddr + swidth {
                forward = Some(store_seq);
            }
        }
        (true, forward)
    }

    /// Attempts to issue one ready scalar-mode load this cycle.
    ///
    /// [`LoadAttempt::BlockedOnUnknownStore`] singles out the one failure the
    /// issue walk can generalise: an older store's address is still unknown,
    /// which dooms every younger ready load to the same verdict.  `pos` is
    /// the load's position in the ready set (the walk's cursor).
    fn try_issue_load_wakeup(&mut self, seq: u64, pos: usize) -> LoadAttempt {
        debug_assert_eq!(self.ready_all.get(pos), Some(ready_key(seq, Q_LOAD)));
        let (addrs_known, forward) = self.older_store_state(seq);
        if !addrs_known {
            return LoadAttempt::BlockedOnUnknownStore;
        }
        if let Some(store_seq) = forward {
            // Store-to-load forwarding: the data comes from the LSQ.
            let store_done =
                self.rob.contains(store_seq) && self.rob.completed(store_seq, self.cycle);
            if store_done {
                self.rob.set_issued(seq, true);
                self.rob.set_complete_cycle(seq, self.cycle + 1);
                self.ready_all.remove_at(pos);
                self.push_completion(seq);
                self.trace_issue(seq);
                self.stats.store_forwards += 1;
                return LoadAttempt::Issued;
            }
            return LoadAttempt::Retry;
        }
        let addr = self.rob.addr(seq);
        let Some(done) = self
            .mem
            .access_through(&mut self.ports, addr, false, self.cycle)
        else {
            return LoadAttempt::Retry;
        };
        self.rob.set_issued(seq, true);
        self.rob.set_complete_cycle(seq, done);
        self.ready_all.remove_at(pos);
        self.push_completion(seq);
        self.trace_issue(seq);
        self.stats.load_accesses += 1;
        self.stats.memory_accesses += 1;

        // §3.7: on a wide bus every pending load to the same line is served by
        // this single access.  Candidates are exactly the ready scalar-mode
        // loads: unissued loads whose sources are available.
        let mut words_used = 1;
        if self.ports.kind() == PortKind::Wide {
            let line = self.mem.line_addr(addr);
            let mut served = std::mem::take(&mut self.peer_scratch);
            served.clear();
            for &key in &self.ready_all {
                if served.len() + 1 >= self.cfg.wide_loads_per_access {
                    break;
                }
                if key_group(key) != Q_LOAD {
                    continue;
                }
                let peer = key_seq(key);
                if !self.rob.contains(peer) || self.rob.issued(peer) {
                    continue;
                }
                if self.mem.line_addr(self.rob.addr(peer)) != line {
                    continue;
                }
                let (known, fwd) = self.older_store_state(peer);
                if !known || fwd.is_some() {
                    continue;
                }
                served.push(peer);
            }
            for &peer in &served {
                self.rob.set_issued(peer, true);
                self.rob.set_complete_cycle(peer, done);
                self.ready_all.remove(ready_key(peer, Q_LOAD));
                self.push_completion(peer);
                self.trace_issue(peer);
                self.stats.loads_served_by_peer += 1;
            }
            words_used += served.len();
            self.peer_scratch = served;
            self.wide_stats
                .record(words_used.min(self.cfg.line_words()));
        }
        LoadAttempt::Issued
    }

    /// Rebuilds the wakeup state from the ROB after a squash re-opened
    /// already-issued entries (rare: §3.6 store conflicts only).
    fn rebuild_scheduler(&mut self) {
        if self.model != Model::Fast {
            return;
        }
        self.ready_all.clear();
        self.vec_waiters.fill(NO_WAITER);
        self.completions.clear();
        for seq in self.rob.seqs() {
            let _ = self.rob.take_waiters(seq);
            if self.rob.issued(seq)
                && self.rob.complete_cycle(seq) > self.cycle
                && self.rob.cold(seq).wakes_dependents()
            {
                self.completions
                    .push(Reverse((self.rob.complete_cycle(seq), seq)));
            }
        }
        self.classify_group(self.rob.head());
    }

    // ------------------------------------------------------ naive scheduler

    /// Reference model: the original per-cycle scan over the whole window.
    fn issue_naive(&mut self) {
        let mut issued = 0;
        let mut seq = self.rob.head();
        while seq < self.rob.tail() && issued < self.cfg.issue_width {
            if self.rob.issued(seq) {
                seq += 1;
                continue;
            }
            // Validations complete on their own once the element is ready; they
            // do not consume issue bandwidth, functional units or cache ports.
            if let ExecMode::Validation {
                vreg,
                generation,
                offset,
            } = self.rob.cold(seq).mode
            {
                if self.validation_ready(vreg, generation, offset) {
                    self.rob.set_issued(seq, true);
                    self.rob.set_complete_cycle(seq, self.cycle + 1);
                    self.trace_issue(seq);
                }
                seq += 1;
                continue;
            }
            if !self.sources_ready(seq) {
                seq += 1;
                continue;
            }
            let class = self.rob.cold(seq).class;
            if class == OpClass::Store {
                // Stores only compute their address at issue; memory is updated at commit.
                self.rob.set_issued(seq, true);
                self.rob.set_store_addr_known(seq, true);
                self.rob.set_complete_cycle(seq, self.cycle + 1);
                self.trace_issue(seq);
                issued += 1;
            } else if class == OpClass::Load {
                if self.try_issue_load_naive(seq) {
                    issued += 1;
                }
            } else {
                if let Some(latency) = self.fus.try_issue(class) {
                    if class.is_arith() {
                        self.stats.scalar_arith_executed += 1;
                    }
                    self.rob.set_issued(seq, true);
                    self.rob.set_complete_cycle(seq, self.cycle + latency);
                    self.trace_issue(seq);
                    issued += 1;
                }
            }
            seq += 1;
        }
    }

    /// The reference model's answer to [`Self::older_store_state`]: a reverse
    /// walk over the whole ROB prefix.
    fn older_store_state_naive(&self, load_seq: u64) -> (bool, Option<u64>) {
        let (laddr, lwidth) = (self.rob.addr(load_seq), self.rob.width(load_seq));
        let mut forward = None;
        for store_seq in (self.rob.head()..load_seq).rev() {
            if self.rob.cold(store_seq).class != OpClass::Store {
                continue;
            }
            if !self.rob.store_addr_known(store_seq) {
                return (false, None);
            }
            let (saddr, swidth) = (self.rob.addr(store_seq), self.rob.width(store_seq));
            let overlap = saddr < laddr + lwidth && laddr < saddr + swidth;
            if overlap && forward.is_none() {
                forward = Some(store_seq);
            }
        }
        (true, forward)
    }

    fn try_issue_load_naive(&mut self, seq: u64) -> bool {
        let (addrs_known, forward) = self.older_store_state_naive(seq);
        if !addrs_known {
            return false;
        }
        if let Some(store_seq) = forward {
            // Store-to-load forwarding: the data comes from the LSQ.
            if self.rob.completed(store_seq, self.cycle) {
                self.rob.set_issued(seq, true);
                self.rob.set_complete_cycle(seq, self.cycle + 1);
                self.trace_issue(seq);
                self.stats.store_forwards += 1;
                return true;
            }
            return false;
        }
        let addr = self.rob.addr(seq);
        let Some(done) = self
            .mem
            .access_through(&mut self.ports, addr, false, self.cycle)
        else {
            return false;
        };
        self.rob.set_issued(seq, true);
        self.rob.set_complete_cycle(seq, done);
        self.trace_issue(seq);
        self.stats.load_accesses += 1;
        self.stats.memory_accesses += 1;

        // §3.7: on a wide bus every pending load to the same line is served by
        // this single access.
        let mut words_used = 1;
        if self.ports.kind() == PortKind::Wide {
            let line = self.mem.line_addr(addr);
            let mut served = std::mem::take(&mut self.peer_scratch);
            served.clear();
            for peer in self.rob.seqs() {
                if served.len() + 1 >= self.cfg.wide_loads_per_access {
                    break;
                }
                if peer == seq || self.rob.issued(peer) {
                    continue;
                }
                let cold = self.rob.cold(peer);
                if cold.class != OpClass::Load || !matches!(cold.mode, ExecMode::Scalar) {
                    continue;
                }
                if self.mem.line_addr(self.rob.addr(peer)) != line {
                    continue;
                }
                if !self.sources_ready(peer) {
                    continue;
                }
                let (known, fwd) = self.older_store_state_naive(peer);
                if !known || fwd.is_some() {
                    continue;
                }
                served.push(peer);
            }
            for &peer in &served {
                self.rob.set_issued(peer, true);
                self.rob.set_complete_cycle(peer, done);
                self.trace_issue(peer);
                self.stats.loads_served_by_peer += 1;
            }
            words_used += served.len();
            self.peer_scratch = served;
            self.wide_stats
                .record(words_used.min(self.cfg.line_words()));
        }
        true
    }

    // --------------------------------------------------------------- vector

    fn step_vector(&mut self) {
        if let Some(dv) = self.dv.as_mut() {
            dv.step(self.cycle, &mut self.mem, &mut self.ports);
        }
    }

    // --------------------------------------------------------------- commit

    /// Commits up to `commit_width` completed entries from the ROB head, in
    /// program order.  A store goes through [`Self::commit_store_at_head`]
    /// (port, §3.6 coherence check); every other entry retires in place
    /// through [`Self::retire_head`].
    fn commit(&mut self) {
        let mut committed = 0;
        let mut stores = 0;
        while committed < self.cfg.commit_width && !self.rob.is_empty() {
            let head = self.rob.head();
            if !self.rob.completed(head, self.cycle) {
                break;
            }
            if self.rob.queue(head) == Q_STORE {
                if !self.commit_store_at_head(&mut stores) {
                    break;
                }
            } else {
                self.retire_head();
            }
            committed += 1;
        }
    }

    /// Commits a completed store at the ROB head: its L1-D access through a
    /// port ([`DataMemory::access_through`]), the §3.6 coherence check (and
    /// squash), then [`Self::retire_head`].
    /// Returns `false` when the store cannot commit this cycle.
    fn commit_store_at_head(&mut self, stores: &mut usize) -> bool {
        let head = self.rob.head();
        let store_limit = if self.cfg.vectorization_enabled() {
            self.cfg.store_commit_limit
        } else {
            self.cfg.commit_width
        };
        if *stores >= store_limit {
            return false;
        }
        let (addr, width) = (self.rob.addr(head), self.rob.width(head));
        if self
            .mem
            .access_through(&mut self.ports, addr, true, self.cycle)
            .is_none()
        {
            return false;
        }
        self.stats.memory_accesses += 1;
        *stores += 1;
        let mut squash = false;
        if let Some(dv) = self.dv.as_mut() {
            squash = dv.engine_mut().commit_store(addr, width).squash;
        }
        if squash {
            self.squash_younger_than_front();
        }
        let popped = self.store_queue.pop_front();
        debug_assert_eq!(popped, Some(head), "stores commit in order");
        self.stats.committed_stores += 1;
        self.retire_head();
        true
    }

    /// Retires the completed ROB head in place: wakes its dependents, applies
    /// its engine and rename side effects, counts it, and advances the head.
    /// The entry's fields are read through [`Rob::cold`], never moved out.
    fn retire_head(&mut self) {
        let seq = self.rob.head();
        // The completion event for this entry may be due this cycle but only
        // fires during issue; waking the dependents now (still before the
        // issue walk) is equivalent.  Under `Model::Reference` no waiter list
        // is ever built, so this finds nothing.
        self.wake_waiters_of(seq);
        let cold = self.rob.cold(seq);
        let r = &cold.retired;
        let dst = r.inst.dst;
        self.stats.committed += 1;
        if r.inst.is_load() {
            self.stats.committed_loads += 1;
        }
        if r.inst.is_control() {
            self.stats.committed_control += 1;
        }
        match cold.mode {
            ExecMode::Validation {
                vreg,
                generation,
                offset,
            } => {
                self.stats.committed_validations += 1;
                self.stats.committed_vector_mode += 1;
                if let Some(dv) = self.dv.as_mut() {
                    dv.commit_validation(vreg, generation, offset, dst.filter(|d| !d.is_zero()));
                }
            }
            ExecMode::Scalar => {
                if let (Some(dv), Some(dst)) = (self.dv.as_mut(), dst) {
                    if !dst.is_zero() && !r.inst.is_control() {
                        dv.engine_mut().commit_scalar_write(dst);
                    }
                }
            }
        }
        if r.inst.is_control() {
            if let Some(dv) = self.dv.as_mut() {
                dv.engine_mut().commit_control(r.pc, r.taken, r.next_pc);
            }
        }
        // Release the rename mapping if this instruction still owns it.
        if let Some(dst) = dst {
            if self.map_table[dst.flat_index()] == SrcMapping::Rob(seq) {
                self.map_table[dst.flat_index()] = SrcMapping::Ready;
            }
        }
        if r.inst.is_mem() {
            self.lsq_occupancy -= 1;
        }
        self.rob.advance_head();
        self.last_commit_cycle = self.cycle;
    }

    // -------------------------------------------------------- macro-stepping

    /// Clock jump: when every pipeline stage is provably inert until the next
    /// pending event, advance the clock straight to that event instead of
    /// ticking through the idle window cycle by cycle.
    ///
    /// The proof obligations, checked in order:
    ///
    /// * no active vector instance (instances touch the data cache and the
    ///   vector FUs every cycle);
    /// * nothing issuable: after draining the engine's touched journal
    ///   ([`Self::drain_vector_wakeups`]), every entry waiting on a vector
    ///   element is parked on an unresolved register, so the ready set must
    ///   hold no live entry (non-validation entries retry with side effects
    ///   — port grants, MSHR probes, FU acquires — every cycle, and a
    ///   validation in the set issues next cycle);
    /// * dispatch cannot make progress (empty fetch queue, full ROB/LSQ, or
    ///   the §3.2 scalar-operand block — the blocked cycles are bulk-charged);
    /// * fetch cannot make progress before its wake cycle
    ///   ([`Self::fetch_wake_cycle`]).
    ///
    /// Everything those stages read is frozen over the window except state
    /// driven by the wakeup sources collected below (completion heap, ROB
    /// head completion, vector element-ready events, MSHR fills, the front
    /// end's ready cycle), so jumping to the earliest of them is exact: the
    /// skipped cycles would have mutated nothing but the bulk-charged
    /// per-cycle statistics.  With no pending event the jump is declined and
    /// the loop ticks on, preserving the no-progress assertion's ability to
    /// catch genuine deadlocks.
    fn try_macro_step(&mut self, max_insts: u64) {
        if self.stats.committed >= max_insts || self.finished() {
            return;
        }
        if self.dv.as_ref().is_some_and(|v| v.active_instances() > 0) {
            return;
        }
        // Promote now what the next walk would promote anyway: the drain is
        // idempotent, and nothing between here and that walk reads the
        // ready set except a squash, which rebuilds it from scratch.
        self.drain_vector_wakeups();
        for &key in &self.ready_all {
            let seq = key_seq(key);
            if self.rob.contains(seq) && !self.rob.issued(seq) {
                return; // issues or retries (with side effects) next cycle
            }
            // Otherwise no longer in flight, or a wide-bus peer leftover:
            // inert.
        }
        // Dispatch: the inputs of every break condition are frozen over the
        // window — fetch is inert, commit retires nothing (the ROB head's
        // completion is a wakeup source below), nothing issues, and a
        // producer completing in-window is a wakeup source too.  A §3.2
        // scalar-operand block charges one decode-blocked cycle per skipped
        // cycle, exactly like the per-cycle path.
        let mut charge_decode_block = false;
        if let Some(front) = self.fetch_queue.front() {
            if self.rob.len() < self.cfg.rob_size
                && !(front.inst.is_mem() && self.lsq_occupancy >= self.cfg.lsq_size)
            {
                if self.cfg.block_on_scalar_operand && self.would_block_on_scalar(front) {
                    charge_decode_block = true;
                } else {
                    return; // dispatch progresses next cycle
                }
            }
        }

        // The machine is idle: find the earliest pending wakeup source.
        let mut bound = u64::MAX;
        if let Some(&Reverse((when, _))) = self.completions.peek() {
            bound = bound.min(when);
        }
        if !self.rob.is_empty() {
            let head = self.rob.head();
            if self.rob.issued(head) {
                bound = bound.min(self.rob.complete_cycle(head));
            }
        }
        if let Some(when) = self.dv.as_ref().and_then(VectorDatapath::next_event_cycle) {
            bound = bound.min(when);
        }
        if let Some(when) = self.mem.next_miss_done_cycle(self.cycle) {
            bound = bound.min(when);
        }
        if let Some(when) = self.fetch_wake_cycle() {
            bound = bound.min(when);
        }
        if bound == u64::MAX || bound <= self.cycle + 1 {
            return; // no pending event, or the next cycle is the event
        }

        // Jump to the cycle before the event: the loop's increment lands on
        // it and the event fires through the normal per-cycle machinery.
        let skipped = bound - self.cycle - 1;
        self.ports.add_idle_cycles(skipped);
        if charge_decode_block {
            self.stats.decode_blocked_cycles += skipped;
        }
        self.macro_jumps += 1;
        self.macro_skipped_cycles += skipped;
        if let Some(ledger) = self.ledger.as_deref_mut() {
            // The whole window is provably idle; the per-cycle path would
            // have classified each of these cycles individually (so the two
            // models split buckets differently), but the bucket-sum
            // invariant holds in both.
            ledger.record_many(CycleBucket::MacroStepJumped, skipped);
        }
        self.cycle = bound - 1;
    }

    /// The next cycle at which [`Self::fetch`] could mutate state, assuming
    /// the rest of the pipeline is frozen.  `None` means fetch is inert until
    /// some other event (dispatch progress, an issue) unfreezes it.
    fn fetch_wake_cycle(&self) -> Option<u64> {
        if self.emulator_done {
            return None;
        }
        if let Some(seq) = self.fetch_blocked_on {
            if self.fetch_queue.iter().any(|f| f.seq == seq) {
                return None; // the branch has not even dispatched
            }
            if self.rob.contains(seq) {
                // An issued branch resolves when fetch first observes its
                // completion; an unissued one is frozen with the scheduler.
                return self
                    .rob
                    .issued(seq)
                    .then(|| self.fetch_ready_cycle.max(self.rob.complete_cycle(seq)));
            }
            // Already committed: fetch clears the block (and may fetch) as
            // soon as the ready cycle arrives.
            return Some(self.fetch_ready_cycle.max(self.cycle + 1));
        }
        if self.fetch_queue.len() >= fetch_queue_capacity(&self.cfg) {
            return None; // full queue: frozen until dispatch drains it
        }
        Some(self.fetch_ready_cycle.max(self.cycle + 1))
    }

    /// §3.6: a store hit the address range of a vector register.  Every younger
    /// in-flight instruction re-executes and the front end pays a redirect.
    fn squash_younger_than_front(&mut self) {
        self.squash_events += 1;
        for seq in self.rob.seqs().skip(1) {
            let keep = self.rob.queue(seq) == Q_STORE && self.rob.issued(seq);
            if !keep {
                self.rob.set_issued(seq, false);
                self.rob.set_store_addr_known(seq, false);
                self.rob.set_complete_cycle(seq, 0);
                self.squash_rearmed += 1;
            }
        }
        self.fetch_ready_cycle = self
            .fetch_ready_cycle
            .max(self.cycle + self.cfg.redirect_penalty);
        self.rebuild_scheduler();
    }

    // -------------------------------------------------------------- helpers

    fn finalize(&mut self) {
        if let Some(dv) = self.dv.as_mut() {
            dv.finalize(&mut self.wide_stats);
            self.stats.dv = Some(*dv.engine().stats());
            self.stats.element_usage = Some(*dv.engine().vrf().usage());
            // Speculative vector-load line accesses are real L1 traffic and
            // count towards the paper's "number of memory requests".
            self.stats.vector_line_accesses = dv.line_accesses();
            self.stats.memory_accesses += dv.line_accesses();
        }
        self.stats.cycles = self.cycle;
        self.stats.ports = self.ports.stats();
        self.stats.l1d = self.mem.l1d_stats();
        self.stats.l1i = self.mem.l1i_stats();
        self.stats.wide_bus =
            (self.ports.kind() == PortKind::Wide).then(|| self.wide_stats.clone());
    }
}

/// Convenience: run `program` on a processor with configuration `cfg` for at
/// most `max_insts` committed instructions.
///
/// This is what the examples, the experiment harness and most tests call.
pub fn simulate(cfg: &UarchConfig, program: &Program, max_insts: u64) -> RunStats {
    Processor::new(cfg, program).run(max_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_isa::{ArchReg, Asm};

    fn x(n: u8) -> ArchReg {
        ArchReg::int(n)
    }

    /// A simple strided-sum loop over `n` 64-bit elements.
    fn strided_sum(n: u64) -> Program {
        let mut a = Asm::new();
        let data: Vec<u64> = (0..n).collect();
        let buf = a.data_u64(&data);
        let (p, s, v, c) = (x(1), x(2), x(3), x(4));
        a.li(p, buf as i64);
        a.li(s, 0);
        a.li(c, n as i64);
        a.label("loop");
        a.ld(v, p, 0);
        a.add(s, s, v);
        a.addi(p, p, 8);
        a.addi(c, c, -1);
        a.bne(c, ArchReg::ZERO, "loop");
        a.halt();
        a.finish()
    }

    /// A pointer-chasing loop (stride is irregular, so vectorization of the
    /// chased load should not happen).
    fn pointer_chase(n: usize) -> Program {
        let mut a = Asm::new();
        // Build a scrambled singly-linked list.  The assembler lays the first
        // 8-byte-aligned data allocation at DATA_BASE, so the node addresses
        // can be computed up front.
        let base = sdv_isa::program::DATA_BASE;
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..n {
            order.swap(i, (i * 7 + 3) % n);
        }
        let mut nodes = vec![0u64; n];
        for w in 0..n - 1 {
            nodes[order[w]] = base + (order[w + 1] * 8) as u64;
        }
        nodes[order[n - 1]] = 0;
        let bytes: Vec<u8> = nodes.iter().flat_map(|v| v.to_le_bytes()).collect();
        let placed = a.data_bytes(&bytes, 8);
        assert_eq!(placed, base, "list nodes start at DATA_BASE");
        let (p, c) = (x(1), x(2));
        a.li(p, (base + (order[0] * 8) as u64) as i64);
        a.li(c, n as i64);
        a.label("chase");
        a.ld(p, p, 0);
        a.addi(c, c, -1);
        a.bne(p, ArchReg::ZERO, "chase");
        a.halt();
        a.finish()
    }

    #[test]
    fn baseline_and_dv_produce_identical_architectural_results() {
        let program = strided_sum(200);
        let expected: u64 = (0..200).sum();
        for vect in [false, true] {
            let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(vect);
            let mut proc = Processor::new(&cfg, &program);
            let stats = proc.run(100_000);
            assert!(stats.committed > 0);
            assert_eq!(proc.emulator().int_reg(x(2)), expected, "vect={vect}");
        }
    }

    #[test]
    fn dynamic_vectorization_reduces_memory_accesses() {
        let program = strided_sum(2_000);
        let base_cfg = UarchConfig::four_way(1, PortKind::Wide);
        let dv_cfg = base_cfg.clone().with_vectorization(true);
        let base = simulate(&base_cfg, &program, 1_000_000);
        let dv = simulate(&dv_cfg, &program, 1_000_000);
        assert_eq!(
            base.committed, dv.committed,
            "same dynamic instruction count"
        );
        assert!(
            dv.committed_validations > 0,
            "loads and adds were vectorized"
        );
        assert!(
            dv.memory_accesses < base.memory_accesses,
            "wide vector loads batch memory accesses: dv={} base={}",
            dv.memory_accesses,
            base.memory_accesses
        );
        assert!(
            dv.scalar_arith_executed < base.scalar_arith_executed,
            "vectorized arithmetic leaves the scalar units: dv={} base={}",
            dv.scalar_arith_executed,
            base.scalar_arith_executed
        );
    }

    /// A loop reading four independent strided streams per iteration: the
    /// memory ports are the bottleneck, which is exactly where dynamic
    /// vectorization pays off.
    fn four_stream_sum(iters: u64) -> Program {
        let mut a = Asm::new();
        let data: Vec<u64> = (0..iters).collect();
        let bufs: Vec<u64> = (0..4).map(|_| a.data_u64(&data)).collect();
        let counters = x(16);
        a.li(counters, iters as i64);
        for (i, &buf) in bufs.iter().enumerate() {
            a.li(x(1 + i as u8), buf as i64); // pointer
            a.li(x(5 + i as u8), 0); // accumulator
        }
        a.label("loop");
        for i in 0..4u8 {
            a.ld(x(9 + i), x(1 + i), 0);
        }
        for i in 0..4u8 {
            a.add(x(5 + i), x(5 + i), x(9 + i));
        }
        for i in 0..4u8 {
            a.addi(x(1 + i), x(1 + i), 8);
        }
        a.addi(counters, counters, -1);
        a.bne(counters, ArchReg::ZERO, "loop");
        a.halt();
        a.finish()
    }

    #[test]
    fn dv_ipc_is_at_least_on_par_on_a_simple_strided_loop() {
        // A single dependent stream is not memory-bound, so DV should be
        // roughly neutral here (the clear wins appear under port pressure).
        let program = strided_sum(2_000);
        let base = simulate(
            &UarchConfig::four_way(1, PortKind::Wide),
            &program,
            1_000_000,
        );
        let dv = simulate(
            &UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
            &program,
            1_000_000,
        );
        assert!(
            dv.ipc() > base.ipc() * 0.9,
            "dv ipc {} should be on par with baseline ipc {}",
            dv.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn dynamic_vectorization_improves_ipc_under_port_pressure() {
        let program = four_stream_sum(2_000);
        let base = simulate(
            &UarchConfig::four_way(1, PortKind::Wide),
            &program,
            1_000_000,
        );
        let dv = simulate(
            &UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
            &program,
            1_000_000,
        );
        assert!(
            dv.ipc() > base.ipc(),
            "dv ipc {} should beat baseline ipc {} when the single port is saturated",
            dv.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn wide_bus_beats_single_scalar_bus() {
        // Two independent loads from the same line per iteration: a wide bus
        // serves both with one access.
        let mut a = Asm::new();
        let data: Vec<u64> = (0..4_000).collect();
        let buf = a.data_u64(&data);
        let (p, s, v1, v2, c) = (x(1), x(2), x(3), x(4), x(5));
        a.li(p, buf as i64);
        a.li(s, 0);
        a.li(c, 2_000);
        a.label("loop");
        a.ld(v1, p, 0);
        a.ld(v2, p, 8);
        a.add(s, s, v1);
        a.add(s, s, v2);
        a.addi(p, p, 16);
        a.addi(c, c, -1);
        a.bne(c, ArchReg::ZERO, "loop");
        a.halt();
        let program = a.finish();
        let scalar = simulate(
            &UarchConfig::four_way(1, PortKind::Scalar),
            &program,
            1_000_000,
        );
        let wide = simulate(
            &UarchConfig::four_way(1, PortKind::Wide),
            &program,
            1_000_000,
        );
        assert!(wide.ipc() >= scalar.ipc());
        assert!(
            wide.loads_served_by_peer > 0,
            "the wide bus should batch loads"
        );
        assert!(wide.memory_accesses < scalar.memory_accesses);
    }

    #[test]
    fn pointer_chasing_is_not_vectorized() {
        let program = pointer_chase(256);
        let dv = simulate(
            &UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
            &program,
            1_000_000,
        );
        // The chased load has an irregular stride; only a negligible number of
        // validations (from spurious short regular runs) may appear.
        let dv_stats = dv.dv.expect("dv stats present");
        assert!(dv.committed > 0);
        assert!(
            dv_stats.load_validations < dv.committed_loads / 4,
            "pointer chasing must remain mostly scalar ({} validations / {} loads)",
            dv_stats.load_validations,
            dv.committed_loads
        );
    }

    #[test]
    fn eight_way_is_at_least_as_fast_as_four_way() {
        let program = strided_sum(1_000);
        let four = simulate(
            &UarchConfig::four_way(4, PortKind::Wide),
            &program,
            1_000_000,
        );
        let eight = simulate(
            &UarchConfig::eight_way(4, PortKind::Wide),
            &program,
            1_000_000,
        );
        assert!(eight.ipc() >= four.ipc() * 0.99);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let program = strided_sum(500);
        let cfg = UarchConfig::four_way(2, PortKind::Wide).with_vectorization(true);
        let s = simulate(&cfg, &program, 1_000_000);
        assert!(s.committed_validations <= s.committed_vector_mode);
        assert!(s.committed_vector_mode <= s.committed);
        assert!(s.committed_loads + s.committed_stores + s.committed_control <= s.committed);
        assert!(s.ipc() > 0.0);
        assert!(s.port_occupancy() <= 1.0);
        let usage = s.element_usage.expect("element usage with dv");
        assert!(usage.registers_released > 0);
        let wide = s.wide_bus.expect("wide bus stats with wide ports");
        assert!(wide.total() > 0);
    }

    /// A loop that stores into the array it is also reading with a stride:
    /// each store writes the *next* element, which the vector load may have
    /// prefetched, so the §3.6 checks fire and squash.  Returns the program
    /// and the array's base address.
    fn store_squash_loop() -> (Program, u64) {
        let mut a = Asm::new();
        let buf = a.data_u64(&vec![1u64; 128]);
        let (p, v, c) = (x(1), x(2), x(3));
        a.li(p, buf as i64);
        a.li(c, 127);
        a.label("loop");
        a.ld(v, p, 0);
        a.addi(v, v, 1);
        a.sd(v, p, 8);
        a.addi(p, p, 8);
        a.addi(c, c, -1);
        a.bne(c, ArchReg::ZERO, "loop");
        a.halt();
        (a.finish(), buf)
    }

    #[test]
    fn store_heavy_code_respects_coherence() {
        // The §3.6 checks must fire without corrupting architectural state.
        let (program, buf) = store_squash_loop();
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        let mut proc = Processor::new(&cfg, &program);
        let stats = proc.run(1_000_000);
        let dv = stats.dv.expect("dv stats");
        assert!(dv.stores_checked > 0);
        // The final element should have been incremented 127 times (1 + 127).
        assert_eq!(proc.emulator().memory().read_u64(buf + 127 * 8), 128);
    }

    #[test]
    fn squash_counters_match_store_conflicts_under_both_models() {
        // §3.6: every store conflict squashes once, and the squash re-arms
        // the younger in-flight work; the commit path drives both counters.
        let (program, _) = store_squash_loop();
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        let counters = [Model::Fast, Model::Reference].map(|model| {
            let mut proc = Processor::new(&cfg, &program);
            proc.set_model(model);
            let stats = proc.run(1_000_000);
            let mut registry = MetricsRegistry::new();
            proc.obs_metrics(&mut registry);
            let events = registry.counter("pipeline.squash.events").unwrap();
            let rearmed = registry.counter("pipeline.squash.rearmed_entries").unwrap();
            let conflicts = stats.dv.expect("dv stats").store_conflicts;
            assert_eq!(events, conflicts, "{model:?}: one squash per conflict");
            assert!(conflicts > 0, "{model:?}: the loop must conflict");
            assert!(rearmed > 0, "{model:?}: squashes re-arm younger work");
            (events, rearmed)
        });
        assert_eq!(counters[0], counters[1], "fast and reference squash alike");
    }

    #[test]
    fn every_l1_miss_of_either_side_reaches_the_one_l2() {
        // Table 1's L2 is unified: L1-I misses, L1-D misses and L1-D dirty
        // writebacks are all accesses of the same cache.
        let (program, _) = store_squash_loop();
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        let mut proc = Processor::new(&cfg, &program);
        let stats = proc.run(1_000_000);
        let mut registry = MetricsRegistry::new();
        proc.obs_metrics(&mut registry);
        let l2 = |name: &str| registry.counter(&format!("cache.l2.{name}")).unwrap();
        assert!(stats.l1i.misses > 0 && stats.l1d.misses > 0);
        assert_eq!(
            l2("accesses"),
            stats.l1i.misses + stats.l1d.misses + stats.l1d.writebacks
        );
        assert_eq!(l2("accesses"), l2("hits") + l2("misses"));
    }

    #[test]
    fn ideal_mode_never_blocks_decode() {
        let program = strided_sum(500);
        let mut cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        cfg.block_on_scalar_operand = false;
        let ideal = simulate(&cfg, &program, 1_000_000);
        assert_eq!(ideal.decode_blocked_cycles, 0);
        cfg.block_on_scalar_operand = true;
        let real = simulate(&cfg, &program, 1_000_000);
        assert!(real.ipc() <= ideal.ipc() * 1.001);
    }

    /// Runs `program` under both models with the issue trace enabled and
    /// asserts identical traces and statistics, and that the reference never
    /// jumps; returns the fast model's macro-step telemetry so callers can
    /// additionally assert the clock-jump fast path fired.
    fn assert_models_agree(program: &Program, cfg: &UarchConfig, max_insts: u64) -> (u64, u64) {
        let mut fast = Processor::new(cfg, program);
        assert_eq!(fast.model(), Model::Fast, "default model");
        fast.record_issue_trace(true);
        let fast_stats = fast.run(max_insts);
        let fast_trace = fast.take_issue_trace();

        let mut reference = Processor::new(cfg, program);
        reference.set_model(Model::Reference);
        reference.record_issue_trace(true);
        let reference_stats = reference.run(max_insts);
        let reference_trace = reference.take_issue_trace();

        assert_eq!(
            reference.macro_step_telemetry(),
            (0, 0),
            "the reference never jumps"
        );
        assert_eq!(fast_trace, reference_trace, "issue sequences must match");
        assert_eq!(fast_stats, reference_stats, "statistics must be identical");
        fast.macro_step_telemetry()
    }

    /// [`assert_models_agree`] on the 4-way machine with a scalar or a wide
    /// port and DV on or off; returns the fast model's total clock jumps.
    fn assert_models_agree_on_four_way(program: &Program, max_insts: u64) -> u64 {
        let mut jumps = 0;
        for vect in [false, true] {
            for kind in [PortKind::Scalar, PortKind::Wide] {
                let cfg = UarchConfig::four_way(1, kind).with_vectorization(vect);
                jumps += assert_models_agree(program, &cfg, max_insts).0;
            }
        }
        jumps
    }

    // The kernel checks split the fast-vs-reference comparison by the kernel
    // that stresses each fast-path mechanism hardest; together they cover
    // every kernel on every 4-way configuration.

    #[test]
    fn wakeup_matches_naive_scan_on_kernels() {
        // A strided sum parks DV validations on vector registers, which the
        // wakeup scheduler must release exactly when the full scan would.
        assert_models_agree_on_four_way(&strided_sum(300), 100_000);
    }

    #[test]
    fn busy_paths_agree_on_kernels() {
        // Four independent streams fill whole dispatch groups and retire
        // full commit widths: group classification and the wakeups at
        // commit are exercised on every cycle.
        assert_models_agree_on_four_way(&four_stream_sum(100), 100_000);
    }

    #[test]
    fn macro_step_matches_per_cycle_on_kernels() {
        // A pointer chase freezes the pipeline between dependent loads.
        let jumps = assert_models_agree_on_four_way(&pointer_chase(64), 100_000);
        assert!(jumps > 0, "the clock-jump fast path must actually fire");
    }

    /// A loop that stores its counter to a scratch slot and reloads it while
    /// four older independent array loads per iteration are still in flight,
    /// so the store is behind them in the ROB and the reload must forward.
    fn store_reload_loop(n: u64) -> Program {
        let mut a = Asm::new();
        let data: Vec<u64> = (0..4 * n).collect();
        let buf = a.data_u64(&data);
        let slot = a.data_u64(&[0]);
        let (p, q, s, c, t) = (x(1), x(2), x(3), x(4), x(5));
        let streams = [x(6), x(7), x(8), x(9)];
        a.li(p, buf as i64);
        a.li(q, slot as i64);
        a.li(s, 0);
        a.li(c, n as i64);
        a.label("loop");
        for (k, &v) in streams.iter().enumerate() {
            a.ld(v, p, 8 * k as i64);
        }
        a.sd(c, q, 0);
        a.ld(t, q, 0);
        a.add(s, s, t);
        for &v in &streams {
            a.add(s, s, v);
        }
        a.addi(p, p, 32);
        a.addi(c, c, -1);
        a.bne(c, ArchReg::ZERO, "loop");
        a.halt();
        a.finish()
    }

    #[test]
    fn store_forwarding_under_a_busy_port_agrees_on_kernels() {
        // More ready loads per iteration than one port serves, plus a reload
        // of a just-stored slot: the forwarding path must fire, and it must
        // fire on the same cycles under both models.
        let program = store_reload_loop(400);
        assert_models_agree_on_four_way(&program, 100_000);
        for kind in [PortKind::Scalar, PortKind::Wide] {
            let cfg = UarchConfig::four_way(1, kind);
            let stats = simulate(&cfg, &program, 100_000);
            assert!(stats.store_forwards > 0, "{kind:?}: no load forwarded");
        }
    }

    /// [`store_reload_loop`] with partial and line-crossing overlaps: each
    /// iteration stores a doubleword to slot A and a word to A+4, reloads a
    /// halfword at A+6 (overlapping both stores, so it must forward from the
    /// younger word store) and a byte at A+1 (overlapping only the
    /// doubleword), then stores an unaligned doubleword at B+60 of a 64-byte
    /// aligned buffer, crossing a line boundary, and reloads a word at B+64.
    /// The word store's data is the last stream load, so it completes after
    /// the doubleword store: forwarding from the wrong one moves the reload's
    /// issue cycle.
    fn partial_overlap_loop(n: u64) -> Program {
        let mut a = Asm::new();
        let data: Vec<u64> = (0..4 * n).collect();
        let buf = a.data_u64(&data);
        let slot = a.data_u64(&[0]);
        let line = a.data_bytes(&[0; 128], 64);
        let (p, q, r, s, c) = (x(1), x(2), x(3), x(4), x(5));
        let reloads = [x(10), x(11), x(12)];
        let streams = [x(6), x(7), x(8), x(9)];
        a.li(p, buf as i64);
        a.li(q, slot as i64);
        a.li(r, line as i64);
        a.li(s, 0);
        a.li(c, n as i64);
        a.label("loop");
        for (k, &v) in streams.iter().enumerate() {
            a.ld(v, p, 8 * k as i64);
        }
        a.sd(c, q, 0);
        a.sw(streams[3], q, 4);
        a.lhu(reloads[0], q, 6);
        a.lbu(reloads[1], q, 1);
        a.sd(c, r, 60);
        a.lwu(reloads[2], r, 64);
        for &v in reloads.iter().chain(&streams) {
            a.add(s, s, v);
        }
        a.addi(p, p, 32);
        a.addi(c, c, -1);
        a.bne(c, ArchReg::ZERO, "loop");
        a.halt();
        a.finish()
    }

    #[test]
    fn partial_overlap_forwarding_agrees_on_kernels() {
        // The disambiguation walk must pick the youngest overlapping store,
        // count partial overlaps as overlaps, and see a store that crosses a
        // line boundary from a load in the next line.
        let program = partial_overlap_loop(400);
        assert_models_agree_on_four_way(&program, 100_000);
        for kind in [PortKind::Scalar, PortKind::Wide] {
            let cfg = UarchConfig::four_way(1, kind);
            let stats = simulate(&cfg, &program, 100_000);
            assert!(stats.store_forwards > 0, "{kind:?}: no load forwarded");
        }
    }

    /// [`assert_models_agree`] on the store-coherence loop, after checking
    /// that `cfg` really drives §3.6 store conflicts (and so squashes and
    /// scheduler rebuilds).
    fn assert_models_agree_under_store_squashes(cfg: &UarchConfig) {
        let (program, _) = store_squash_loop();
        let dv = simulate(cfg, &program, 1_000_000).dv.expect("dv stats");
        assert!(dv.store_conflicts > 0, "the loop must squash");
        assert_models_agree(&program, cfg, 1_000_000);
    }

    #[test]
    fn wakeup_matches_naive_scan_under_store_squashes() {
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
        assert_models_agree_under_store_squashes(&cfg);
    }

    #[test]
    fn busy_paths_agree_under_store_squashes() {
        let cfg = UarchConfig::four_way(1, PortKind::Scalar).with_vectorization(true);
        assert_models_agree_under_store_squashes(&cfg);
    }

    #[test]
    fn macro_step_matches_per_cycle_under_store_squashes() {
        // The 8-way window holds more squashed work to rebuild.
        let cfg = UarchConfig::eight_way(1, PortKind::Wide).with_vectorization(true);
        assert_models_agree_under_store_squashes(&cfg);
    }

    #[test]
    fn macro_step_jumps_over_a_pointer_chase() {
        // A serial pointer chase is the canonical frozen-pipeline workload:
        // every load misses or waits on the previous one, so the window
        // between completions is provably idle and the clock must jump.
        let program = pointer_chase(256);
        let cfg = UarchConfig::four_way(1, PortKind::Scalar);
        let mut proc = Processor::new(&cfg, &program);
        let stats = proc.run(1_000_000);
        let (jumps, skipped) = proc.macro_step_telemetry();
        assert!(jumps > 0, "a pointer chase must trigger clock jumps");
        assert!(skipped > 0);
        assert!(
            skipped < stats.cycles,
            "skipped cycles are a strict subset of simulated cycles"
        );
    }
}
