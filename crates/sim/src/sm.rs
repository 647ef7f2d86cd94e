//! The streaming multiprocessor: per-cycle issue, operand collection,
//! execution, and writeback — with the G-Scalar mechanisms folded in.

use gscalar_compress::regmeta::MetaConfig;
use gscalar_compress::{bdi, bytewise, Encoding, RegFileMeta};
use gscalar_hostprof as hostprof;
use gscalar_isa::{AluOp, Dim3, FuncUnit, Instr, InstrKind, Kernel, Operand, Reg, Space};
use gscalar_profile::{EligClass, Profiler};
use gscalar_trace::{ModeKind, TraceEvent, Tracer, UnitKind};

use crate::config::{ArchConfig, GpuConfig};
use crate::exec;
use crate::memory::{GlobalMemory, SharedMemory};
use crate::memsys::MemSystem;
use crate::pipeline::Pipe;
use crate::regfile::{OcEntry, OperandCollectors, ReadReq, ReadSet};
use crate::scheduler::{Scheduler, Stall, StallScan, Verdict};
use crate::scoreboard::{Hazards, Scoreboard, PENDING};
use crate::stats::{ScalarClass, SchedStats, Stats};
use crate::warp::Warp;

/// How an instruction is executed on its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All lanes driven (inactive lanes gated but slots dispatched).
    Vector,
    /// One lane active; one dispatch cycle (Section 4.1).
    Scalar,
    /// One lane per 16-lane chunk (Section 4.3).
    Half,
}

impl ExecMode {
    fn trace_kind(self) -> ModeKind {
        match self {
            ExecMode::Vector => ModeKind::Vector,
            ExecMode::Scalar => ModeKind::Scalar,
            ExecMode::Half => ModeKind::Half,
        }
    }
}

/// Trace-vocabulary view of a functional unit.
fn unit_kind(unit: FuncUnit) -> UnitKind {
    match unit {
        FuncUnit::Alu => UnitKind::Alu,
        FuncUnit::Sfu => UnitKind::Sfu,
        FuncUnit::Mem => UnitKind::Mem,
        FuncUnit::Control => UnitKind::Control,
    }
}

/// Trace-vocabulary encoding tag for compressor decisions — the shared
/// Figure 8 bucket index, so the tag can never drift from the
/// `EncodingHistogram` categories.
fn encoding_tag(enc: Encoding) -> u8 {
    enc.bucket() as u8
}

/// Profiler-vocabulary view of a [`ScalarClass`].
fn elig_class(class: ScalarClass) -> EligClass {
    match class {
        ScalarClass::Vector => EligClass::Vector,
        ScalarClass::Alu => EligClass::Alu,
        ScalarClass::Sfu => EligClass::Sfu,
        ScalarClass::Mem => EligClass::Mem,
        ScalarClass::Half => EligClass::Half,
        ScalarClass::Divergent => EligClass::Divergent,
    }
}

/// Forwards SIMT path-end events (paths popped by the last stack
/// operation) to the profiler's per-branch reconvergence stats.
#[inline]
fn drain_path_events(profiler: &mut Profiler, simt: &crate::simt::SimtStack) {
    if profiler.is_on() {
        for &(origin, rejoined) in simt.path_events() {
            profiler.record_path_end(origin, rejoined);
        }
    }
}

/// An instruction in flight between issue and writeback.
#[derive(Debug, Clone)]
struct Inflight {
    warp: usize,
    instr: Instr,
    /// PC the instruction was fetched from (trace labeling).
    pc: usize,
    mask: u64,
    mode: ExecMode,
    unit: FuncUnit,
    /// Bank of the destination register (for writeback port pressure).
    wb_bank: Option<usize>,
    /// Destination write touches only the BVR (scalar write in a
    /// compressed register file).
    wb_bvr_only: bool,
    /// Unique coalesced line addresses (global memory instructions).
    mem_lines: Vec<u64>,
    /// Shared-memory access.
    shared: bool,
    /// Store (no register writeback).
    store: bool,
    /// Extra result latency (decompress-move injection, int division).
    extra_latency: u64,
}

/// State of one resident CTA.
#[derive(Debug)]
struct CtaState {
    warps_total: usize,
    warps_done: usize,
    at_barrier: usize,
    shared: SharedMemory,
}

/// A streaming multiprocessor.
pub struct Sm {
    id: usize,
    cfg: GpuConfig,
    arch: ArchConfig,
    warps: Vec<Option<Warp>>,
    scoreboards: Vec<Scoreboard>,
    /// Per-PC scoreboard hazards of the kernel, built at the first CTA
    /// launch.
    hazards: Vec<Hazards>,
    schedulers: Vec<Scheduler>,
    oc: OperandCollectors<Inflight>,
    alu_pipes: Vec<Pipe<Inflight>>,
    sfu_pipe: Pipe<Inflight>,
    lsu_pipe: Pipe<Inflight>,
    regmeta: RegFileMeta,
    ctas: Vec<Option<CtaState>>,
    num_regs_per_warp: usize,
    /// Latest scheduled scoreboard release (for idle skipping).
    last_release: u64,
    /// Per-scheduler verdict of the most recent stall, used to
    /// attribute idle-skip jumps (see [`Sm::charge_idle_skip`]) and
    /// replayed while the SM is frozen. A skip or a freeze only follows
    /// a cycle in which every scheduler stalled, so the entry is always
    /// fresh when it is read.
    last_stall: Vec<Stall>,
    /// While `Some(wake)`, the SM is frozen: the last cycle issued
    /// nothing, collected no operands and wrote nothing back, so every
    /// cycle before `wake` (the next pipe completion or scoreboard
    /// release) repeats `last_stall` exactly and is replayed from it.
    /// Cleared by the only outside event that can change a verdict: a
    /// CTA launch.
    frozen_until: Option<u64>,
    /// Writeback scratch: instructions drained from the pipes this
    /// cycle. Reused every cycle so the hot path never allocates.
    finished: Vec<Inflight>,
    /// Writeback scratch: data-port banks consumed by writebacks.
    write_banks: Vec<usize>,
    /// Execute scratch: the destination register's lane values while an
    /// instruction executes (replaces a per-instruction `Vec` clone).
    exec_vals: Vec<u32>,
    /// Recycled coalesced-line buffers: an instruction's `mem_lines`
    /// vector returns here at writeback and is handed back out at the
    /// next issue.
    line_pool: Vec<Vec<u64>>,
    /// Statistics local to this SM.
    pub stats: Stats,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("resident_warps", &self.resident_warps())
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM for one kernel execution.
    #[must_use]
    pub fn new(id: usize, cfg: &GpuConfig, arch: &ArchConfig, num_regs_per_warp: usize) -> Self {
        let max_warps = cfg.warps_per_sm();
        let per_sched = |s: usize| -> Vec<usize> {
            (0..max_warps).filter(|w| w % cfg.schedulers == s).collect()
        };
        Sm {
            id,
            cfg: cfg.clone(),
            arch: arch.clone(),
            warps: (0..max_warps).map(|_| None).collect(),
            scoreboards: (0..max_warps)
                .map(|_| Scoreboard::new(num_regs_per_warp))
                .collect(),
            hazards: Vec::new(),
            schedulers: (0..cfg.schedulers)
                .map(|s| Scheduler::new(cfg.sched, per_sched(s)))
                .collect(),
            oc: OperandCollectors::new(cfg.operand_collectors, cfg.rf_banks),
            alu_pipes: (0..cfg.alu_pipes)
                .map(|_| Pipe::new(cfg.simt_width))
                .collect(),
            sfu_pipe: Pipe::new(cfg.sfu_width),
            lsu_pipe: Pipe::new(cfg.simt_width),
            regmeta: RegFileMeta::new(
                cfg.vector_regs_per_sm(),
                MetaConfig::g_scalar(cfg.warp_size),
            ),
            ctas: (0..cfg.ctas_per_sm).map(|_| None).collect(),
            num_regs_per_warp: num_regs_per_warp.max(1),
            last_release: 0,
            last_stall: vec![Stall::DRAINED; cfg.schedulers],
            frozen_until: None,
            finished: Vec::new(),
            write_banks: Vec::new(),
            exec_vals: Vec::new(),
            line_pool: Vec::new(),
            stats: Stats {
                sched: vec![SchedStats::default(); cfg.schedulers],
                ..Stats::default()
            },
        }
    }

    /// Number of resident (running) warps.
    #[must_use]
    pub fn resident_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.is_some()).count()
    }

    /// Whether all resident work has finished and the pipelines drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.resident_warps() == 0
            && !self.oc.any_pending()
            && self.alu_pipes.iter().all(|p| p.in_flight() == 0)
            && self.sfu_pipe.in_flight() == 0
            && self.lsu_pipe.in_flight() == 0
    }

    /// Whether a CTA of `warps_needed` warps and `shared_bytes` shared
    /// memory fits right now.
    #[must_use]
    pub fn can_accept_cta(&self, warps_needed: usize, shared_bytes: u32) -> bool {
        if !self.ctas.iter().any(|c| c.is_none()) {
            return false;
        }
        let free_warps = self.warps.iter().filter(|w| w.is_none()).count();
        if free_warps < warps_needed {
            return false;
        }
        // Register budget: every warp slot uses a fixed window.
        let needed_regs = (self.resident_warps() + warps_needed) * self.num_regs_per_warp;
        if needed_regs > self.cfg.vector_regs_per_sm() {
            return false;
        }
        let used_shared: u32 = self
            .ctas
            .iter()
            .flatten()
            .map(|c| c.shared.len() as u32)
            .sum();
        used_shared + shared_bytes <= self.cfg.shared_mem_per_sm
    }

    /// Launches a CTA. `cta` is its grid coordinate, `launch` the
    /// launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit; call
    /// [`Sm::can_accept_cta`] first.
    pub fn launch_cta(&mut self, kernel: &Kernel, cta: Dim3, grid: Dim3, block: Dim3) {
        let threads = (block.count()).max(1) as usize;
        let warps_needed = threads.div_ceil(self.cfg.warp_size);
        assert!(
            self.can_accept_cta(warps_needed, kernel.shared_mem_bytes()),
            "CTA does not fit on SM {}",
            self.id
        );
        let slot = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("checked by can_accept_cta");
        if self.hazards.is_empty() {
            self.hazards = kernel.instrs().iter().map(Hazards::of).collect();
        }
        self.frozen_until = None;
        self.ctas[slot] = Some(CtaState {
            warps_total: warps_needed,
            warps_done: 0,
            at_barrier: 0,
            shared: SharedMemory::new(kernel.shared_mem_bytes()),
        });
        let mut remaining = threads;
        let mut tid_base = 0u32;
        for _ in 0..warps_needed {
            let in_warp = remaining.min(self.cfg.warp_size);
            let w = self
                .warps
                .iter()
                .position(|w| w.is_none())
                .expect("checked by can_accept_cta");
            self.warps[w] = Some(Warp::new(
                w,
                slot,
                self.cfg.warp_size,
                in_warp,
                kernel.num_regs() as usize,
                tid_base,
                cta,
                block,
                grid,
            ));
            self.scoreboards[w].clear();
            remaining -= in_warp;
            tid_base += in_warp as u32;
        }
    }

    /// Physical vector-register index of `(warp, reg)`.
    fn phys_reg(&self, warp: usize, reg: Reg) -> usize {
        warp * self.num_regs_per_warp + reg.index() as usize
    }

    fn bank_of(&self, phys: usize) -> usize {
        phys % self.cfg.rf_banks
    }

    /// Runs one SM cycle against the shared global memory and memory
    /// system. Returns the number of CTAs that completed this cycle (the
    /// GPU replenishes them).
    pub fn cycle(
        &mut self,
        now: u64,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        memsys: &mut MemSystem,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        if let Some(wake) = self.frozen_until {
            if now < wake {
                self.replay_stall(now, kernel, tracer, profiler);
                return 0;
            }
            self.frozen_until = None;
        }
        // 1. Writeback. Both scratch vectors live on the SM and are
        // reused cycle after cycle: the writeback path allocates
        // nothing.
        let wb_phase = hostprof::phase(hostprof::Phase::Writeback);
        let mut finished = std::mem::take(&mut self.finished);
        for p in &mut self.alu_pipes {
            p.drain_finished_into(now, &mut finished);
        }
        self.sfu_pipe.drain_finished_into(now, &mut finished);
        self.lsu_pipe.drain_finished_into(now, &mut finished);
        let mut write_banks = std::mem::take(&mut self.write_banks);
        write_banks.clear();
        let wrote_back = !finished.is_empty();
        for f in finished.drain(..) {
            if let (Some(b), false) = (f.wb_bank, f.wb_bvr_only) {
                write_banks.push(b);
            }
            let release = now + self.arch.extra_latency;
            self.scoreboards[f.warp].release_at(&f.instr, release);
            self.last_release = self.last_release.max(release);
            // Recycle the coalesced-line buffer for the next issue.
            let mut lines = f.mem_lines;
            if lines.capacity() > 0 {
                lines.clear();
                self.line_pool.push(lines);
            }
        }
        self.finished = finished;
        drop(wb_phase);

        // 2. Operand collection.
        let oc_phase = hostprof::phase(hostprof::Phase::OperandCollect);
        let collecting = self.oc.any_pending();
        let arb = self.oc.arbitrate(&write_banks);
        self.write_banks = write_banks;
        self.stats.pipe.bank_conflict_cycles += arb.data_conflicts;
        self.stats.pipe.scalar_bank_serializations += arb.scalar_serializations;
        self.stats.pipe.bvr_conflict_cycles += arb.bvr_conflicts;
        let rf_conflict = arb.any_conflict();
        drop(oc_phase);

        // 3. Dispatch ready instructions to pipelines, gated by each
        // pipe's dispatch port (structural backpressure: entries that
        // find no port stay in their operand collector).
        let dispatch_phase = hostprof::phase(hostprof::Phase::Dispatch);
        let mut alu_free = self
            .alu_pipes
            .iter()
            .filter(|p| p.can_dispatch(now))
            .count();
        let mut sfu_free = usize::from(self.sfu_pipe.can_dispatch(now));
        let mut lsu_free = usize::from(self.lsu_pipe.can_dispatch(now));
        let ready = self.oc.take_ready_when(|inst| {
            let slot = match inst.unit {
                FuncUnit::Alu => &mut alu_free,
                FuncUnit::Sfu => &mut sfu_free,
                FuncUnit::Mem => &mut lsu_free,
                FuncUnit::Control => return true,
            };
            if *slot > 0 {
                *slot -= 1;
                true
            } else {
                false
            }
        });
        for inst in ready {
            self.dispatch(inst, now, memsys, tracer, profiler);
        }
        drop(dispatch_phase);

        // 4. Issue from each scheduler.
        let issued_before = self.stats.pipe.issued;
        let mut completed_ctas = 0;
        for s in 0..self.schedulers.len() {
            completed_ctas += self.issue_one(s, now, kernel, gmem, rf_conflict, tracer, profiler);
        }
        if !wrote_back
            && !collecting
            && self.stats.pipe.issued == issued_before
            && !self.oc.any_pending()
        {
            self.frozen_until = Some(self.wake());
        }
        completed_ctas
    }

    /// When a frozen SM's verdicts can next change: the earliest pipe
    /// completion (a writeback) or known scoreboard release.
    fn wake(&self) -> u64 {
        let release = self.last_stall.iter().map(|st| st.wake).min();
        self.next_event()
            .into_iter()
            .chain(release)
            .min()
            .unwrap_or(PENDING)
    }

    /// Runs one cycle of a frozen SM: exactly the effects the full cycle
    /// would have — an empty arbitration and every scheduler charging
    /// its cached stall — without recomputing any verdict.
    fn replay_stall(
        &mut self,
        now: u64,
        kernel: &Kernel,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        let _sched_phase = hostprof::phase(hostprof::Phase::Scheduler);
        self.oc.tick_idle();
        if cfg!(debug_assertions) {
            self.assert_frozen_verdicts(now, kernel);
        }
        for s in 0..self.schedulers.len() {
            self.charge_stall(s, self.last_stall[s], now, tracer, profiler);
        }
    }

    /// Debug-build cross-check of the replay invariant: recomputing
    /// every scheduler's verdict and the wake cycle read-only at `now`
    /// must reproduce the frozen cache, so every debug test run is also
    /// a polled-vs-replayed differential.
    fn assert_frozen_verdicts(&self, now: u64, kernel: &Kernel) {
        // A frozen SM's collectors are empty, so a collector is free.
        let oc_free = self.oc.free_slots() > 0;
        for (s, sched) in self.schedulers.iter().enumerate() {
            let mut scan = StallScan::new();
            for &w in sched.warps() {
                let v = warp_verdict(
                    self.warps[w].as_ref(),
                    &self.scoreboards[w],
                    &self.hazards,
                    kernel,
                    now,
                    oc_free,
                );
                assert!(!scan.note(w, v), "frozen SM {} can issue warp {w}", self.id);
            }
            // Empty collectors lose no arbitration: no bank conflict.
            assert_eq!(scan.stall(false), self.last_stall[s], "sched {s} at {now}");
        }
        assert_eq!(Some(self.wake()), self.frozen_until, "wake at {now}");
    }

    /// Earliest future event on this SM (pipe completion or scoreboard
    /// release), for idle-cycle skipping.
    #[must_use]
    pub fn next_event(&self) -> Option<u64> {
        let mut t = self
            .alu_pipes
            .iter()
            .filter_map(Pipe::next_completion)
            .min();
        for c in [
            self.sfu_pipe.next_completion(),
            self.lsu_pipe.next_completion(),
        ] {
            t = match (t, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        t
    }

    /// The latest scheduled scoreboard release time.
    #[must_use]
    pub fn last_release(&self) -> u64 {
        self.last_release
    }

    /// Whether any operand collector is occupied (issue progress is
    /// possible without new events).
    #[must_use]
    pub fn collectors_pending(&self) -> bool {
        self.oc.any_pending()
    }

    /// Charges `skipped` cycles jumped over by the GPU loop's idle-skip
    /// fast path to each scheduler's most recent stall reason, keeping
    /// the per-scheduler ledger exact:
    /// `issued + stalls.total() + skipped.total() == cycles`.
    ///
    /// The skipped slots land in [`SchedStats::skipped`], *not* in
    /// `PipeStats::stalls`, so the cycle-by-cycle invariant
    /// `stalls.total() == scheduler_idle_cycles` is preserved.
    pub fn charge_idle_skip(&mut self, skipped: u64) {
        if skipped == 0 {
            return;
        }
        for (sc, stall) in self.stats.sched.iter_mut().zip(self.last_stall.iter()) {
            sc.skipped.add_n(stall.reason, skipped);
        }
    }

    // ---- issue ---------------------------------------------------------

    /// Attempts one issue from scheduler `s`. Returns completed CTAs.
    #[allow(clippy::too_many_arguments)]
    fn issue_one(
        &mut self,
        s: usize,
        now: u64,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        rf_conflict: bool,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        let oc_free = self.oc.free_slots() > 0;
        let (warps, scoreboards, hazards) = (&self.warps, &self.scoreboards, &self.hazards);
        // Warp pick and stall classification are the scheduler's host
        // cost; the issued path hands off to Execute. One pass does
        // both: the readiness closure folds each verdict into the scan.
        let sched_phase = hostprof::phase(hostprof::Phase::Scheduler);
        let mut scan = StallScan::new();
        let picked = self.schedulers[s].pick(|w| {
            let v = warp_verdict(
                warps[w].as_ref(),
                &scoreboards[w],
                hazards,
                kernel,
                now,
                oc_free,
            );
            scan.note(w, v)
        });
        let Some(w) = picked else {
            self.charge_stall(s, scan.stall(rf_conflict), now, tracer, profiler);
            return 0;
        };
        drop(sched_phase);
        self.stats.pipe.issued += 1;
        self.stats.sched[s].issued += 1;
        let _exec_phase = hostprof::phase(hostprof::Phase::Execute);
        self.execute_instruction(w, s, now, kernel, gmem, tracer, profiler)
    }

    /// Charges scheduler `s`'s idle slot at `now` to `stall`.
    fn charge_stall(
        &mut self,
        s: usize,
        stall: Stall,
        now: u64,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        let Stall {
            reason, culprit, ..
        } = stall;
        self.stats.pipe.scheduler_idle_cycles += 1;
        self.stats.pipe.stalls.add(reason);
        self.stats.sched[s].stalls.add(reason);
        self.last_stall[s] = stall;
        if profiler.is_on() {
            // Charge the idle cycle to the instruction at the head of
            // the culprit warp; drained cycles have no culprit and land
            // in the profile's unattributed pool.
            let pc = culprit
                .and_then(|cw| self.warps[cw as usize].as_ref())
                .map(|warp| warp.simt.pc());
            profiler.record_stall(pc, reason);
        }
        let sm = self.id as u32;
        tracer.emit_with(now, || TraceEvent::Stall {
            sm,
            sched: s as u32,
            warp: culprit,
            reason,
        });
    }

    /// Issues (and functionally executes) the instruction at warp `w`'s
    /// PC, picked by scheduler `s`. Returns completed CTAs.
    #[allow(clippy::too_many_arguments)]
    fn execute_instruction(
        &mut self,
        w: usize,
        s: usize,
        now: u64,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        let pc = self.warps[w]
            .as_ref()
            .expect("picked warp exists")
            .simt
            .pc();
        let instr = *kernel.instr(pc);
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        let path_mask = warp.simt.active();
        // Guard predication narrows the executing mask.
        let guard_mask = if instr.guard.is_always() {
            u64::MAX
        } else {
            let p = warp.pred(instr.guard.pred);
            if instr.guard.negate {
                !p
            } else {
                p
            }
        };
        let mask = path_mask & guard_mask;
        let divergent = mask != warp.thread_mask;

        let lanes = mask.count_ones();
        self.stats.instr.warp_instrs += 1;
        self.stats.instr.thread_instrs += u64::from(lanes);
        if divergent {
            self.stats.instr.divergent_instrs += 1;
        }
        profiler.record_issue(pc, lanes, divergent);
        match instr.func_unit() {
            FuncUnit::Alu => self.stats.instr.alu_instrs += 1,
            FuncUnit::Sfu => self.stats.instr.sfu_instrs += 1,
            FuncUnit::Mem => self.stats.instr.mem_instrs += 1,
            FuncUnit::Control => self.stats.instr.ctrl_instrs += 1,
        }

        let sm_id = self.id as u32;
        tracer.emit_with(now, || TraceEvent::Issue {
            sm: sm_id,
            sched: s as u32,
            warp: w as u32,
            pc: pc as u32,
            unit: unit_kind(instr.func_unit()),
            // The vector/scalar decision for non-control instructions
            // is refined by a later ExecSpan event.
            mode: ModeKind::Vector,
            mask,
        });

        // Control flow resolves at issue. The SIMT-stack arms below all
        // return, so the guard covers exactly the control-flow work
        // (`None` on the fall-through path for other units).
        let simt_phase = matches!(
            instr.kind,
            InstrKind::Bra { .. } | InstrKind::Exit | InstrKind::Bar | InstrKind::Nop
        )
        .then(|| hostprof::phase(hostprof::Phase::Simt));
        match instr.kind {
            InstrKind::Bra { target } => {
                let reconv = kernel.reconvergence_pc(pc);
                // What-if idealization: uniform branches. When any lane
                // takes the branch the whole active path follows it, so
                // the SIMT stack never splits. This changes functional
                // execution (see `IdealConfig::uniform_branches`); loops
                // still terminate because their exit condition is
                // "no lane takes the back-edge", which forced-uniform
                // execution reaches once every lane's trip count drains.
                let bra_mask = if self.cfg.ideal.uniform_branches && mask != 0 {
                    path_mask
                } else {
                    mask
                };
                let depth_before = warp.simt.depth();
                let diverged = warp.simt.branch(bra_mask, target, pc + 1, reconv);
                profiler.record_branch(pc, diverged, lanes, (path_mask & !bra_mask).count_ones());
                drain_path_events(profiler, &warp.simt);
                if tracer.is_on() && !warp.simt.is_done() {
                    let depth = warp.simt.depth() as u32;
                    let next_pc = warp.simt.pc() as u32;
                    if diverged {
                        let taken = bra_mask;
                        let not_taken = path_mask & !bra_mask;
                        tracer.emit_with(now, || TraceEvent::SimtPush {
                            sm: sm_id,
                            warp: w as u32,
                            pc: pc as u32,
                            taken,
                            not_taken,
                            depth,
                        });
                    } else if (depth as usize) < depth_before {
                        tracer.emit_with(now, || TraceEvent::SimtPop {
                            sm: sm_id,
                            warp: w as u32,
                            pc: next_pc,
                            depth,
                        });
                    }
                }
                return 0;
            }
            InstrKind::Exit => {
                let depth_before = warp.simt.depth();
                warp.simt.exit();
                drain_path_events(profiler, &warp.simt);
                if tracer.is_on() && !warp.simt.is_done() {
                    let depth = warp.simt.depth() as u32;
                    let next_pc = warp.simt.pc() as u32;
                    if (depth as usize) < depth_before {
                        tracer.emit_with(now, || TraceEvent::SimtPop {
                            sm: sm_id,
                            warp: w as u32,
                            pc: next_pc,
                            depth,
                        });
                    }
                }
                if warp.is_done() {
                    return self.retire_warp(w);
                }
                return 0;
            }
            InstrKind::Bar => {
                warp.simt.advance(pc + 1);
                drain_path_events(profiler, &warp.simt);
                warp.at_barrier = true;
                let slot = warp.cta_slot;
                let cta = self.ctas[slot].as_mut().expect("warp's CTA is resident");
                cta.at_barrier += 1;
                if cta.at_barrier >= cta.warps_total - cta.warps_done {
                    cta.at_barrier = 0;
                    for other in self.warps.iter_mut().flatten() {
                        if other.cta_slot == slot {
                            other.at_barrier = false;
                        }
                    }
                }
                return 0;
            }
            InstrKind::Nop => {
                warp.simt.advance(pc + 1);
                drain_path_events(profiler, &warp.simt);
                return 0;
            }
            _ => {}
        }
        drop(simt_phase);

        if mask == 0 {
            // Fully predicated-off: consumes the issue slot only.
            let warp = self.warps[w].as_mut().expect("picked warp exists");
            warp.simt.advance(pc + 1);
            drain_path_events(profiler, &warp.simt);
            return 0;
        }

        // ---- operand gathering + classification ----
        // Register reads run the compression machinery (regmeta, the
        // byte-wise/BDI comparison chains): Compressor host time.
        let compress_phase = hostprof::phase(hostprof::Phase::Compressor);
        let ws = self.cfg.warp_size;
        let src_regs = instr.src_regs();
        let mut all_scalar = !matches!(instr.kind, InstrKind::S2R { .. });
        let mut all_chunk_scalar = all_scalar;
        let mut reads = ReadSet::new();
        for &r in &src_regs {
            let phys = self.phys_reg(w, r);
            let info = self.regmeta.read(phys, mask);
            let d_stored = self.regmeta.meta(phys).d;
            // Figure 8 histogram + scheme-independent energy accounting.
            self.record_rf_read(w, r, &info, divergent, d_stored);
            if !info.scalar {
                all_scalar = false;
            }
            let chunk_ok = if d_stored {
                false
            } else if info.chunk_scalar.is_empty() {
                info.scalar
            } else {
                info.chunk_scalar.iter().all(|&c| c)
            };
            if !chunk_ok {
                all_chunk_scalar = false;
            }
            // Port selection for the timing model.
            reads.push(self.read_port_for(phys, info.scalar, d_stored));
        }
        if let InstrKind::S2R { sreg, .. } = instr.kind {
            if Warp::sreg_uniform(sreg) {
                all_scalar = true;
                all_chunk_scalar = true;
            }
        }
        drop(compress_phase);

        let unit = instr.func_unit();
        let class = if divergent {
            // `ReadInfo::scalar` already encodes Section 4.2's rule: a
            // D-stored source is scalar only when its recorded mask
            // matches this instruction's mask.
            if all_scalar {
                ScalarClass::Divergent
            } else {
                ScalarClass::Vector
            }
        } else if all_scalar {
            match unit {
                FuncUnit::Alu => ScalarClass::Alu,
                FuncUnit::Sfu => ScalarClass::Sfu,
                FuncUnit::Mem => ScalarClass::Mem,
                FuncUnit::Control => ScalarClass::Vector,
            }
        } else if all_chunk_scalar {
            ScalarClass::Half
        } else {
            ScalarClass::Vector
        };
        self.stats.instr.record_class(class);
        profiler.record_class(pc, elig_class(class));

        let mode = match class {
            ScalarClass::Alu if self.arch.scalar_alu => ExecMode::Scalar,
            ScalarClass::Sfu if self.arch.scalar_sfu => ExecMode::Scalar,
            ScalarClass::Mem if self.arch.scalar_mem => ExecMode::Scalar,
            ScalarClass::Half if self.arch.scalar_half => ExecMode::Half,
            ScalarClass::Divergent if self.arch.scalar_divergent => ExecMode::Scalar,
            _ => ExecMode::Vector,
        };
        match mode {
            ExecMode::Scalar => self.stats.instr.executed_scalar += 1,
            ExecMode::Half => self.stats.instr.executed_half += 1,
            ExecMode::Vector => {}
        }

        // ---- functional execution ----
        // Scratch buffers borrowed off the SM so this per-instruction
        // path allocates nothing: `vals` holds the destination's lane
        // values, `mem_lines` the coalesced line addresses (recycled
        // through `line_pool` at writeback).
        let mut vals = std::mem::take(&mut self.exec_vals);
        let mut mem_lines = self.line_pool.pop().unwrap_or_default();
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        let resolve = |warp: &Warp, op: Operand, lane: usize| -> u32 {
            match op {
                Operand::Reg(r) if r.is_zero() => 0,
                Operand::Reg(r) => warp.reg(r.index())[lane],
                Operand::Imm(v) => v,
            }
        };
        let mut result: Option<Reg> = None;
        let mut shared_access = false;
        let mut store = false;
        let mut extra_latency = 0u64;
        match instr.kind {
            InstrKind::Alu { op, dst, a, b, c } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for (lane, v) in vals.iter_mut().enumerate() {
                    if mask & (1 << lane) != 0 {
                        *v = exec::eval_alu(
                            op,
                            resolve(warp, a, lane),
                            resolve(warp, b, lane),
                            resolve(warp, c, lane),
                        );
                    }
                }
                if op == AluOp::IDiv {
                    extra_latency = self.cfg.lat.int_div - self.cfg.lat.int_alu;
                }
                result = Some(dst);
            }
            InstrKind::Sfu { op, dst, a } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for (lane, v) in vals.iter_mut().enumerate() {
                    if mask & (1 << lane) != 0 {
                        *v = exec::eval_sfu(op, resolve(warp, a, lane));
                    }
                }
                result = Some(dst);
            }
            InstrKind::Mov { dst, src } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for (lane, v) in vals.iter_mut().enumerate() {
                    if mask & (1 << lane) != 0 {
                        *v = resolve(warp, src, lane);
                    }
                }
                result = Some(dst);
            }
            InstrKind::S2R { dst, sreg } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for (lane, v) in vals.iter_mut().enumerate() {
                    if mask & (1 << lane) != 0 {
                        *v = warp.sreg_value(sreg, lane, ws);
                    }
                }
                result = Some(dst);
            }
            InstrKind::SetP {
                cmp,
                float,
                dst,
                a,
                b,
            } => {
                let mut bits = 0u64;
                for lane in 0..ws {
                    if mask & (1 << lane) != 0
                        && exec::eval_cmp(
                            cmp,
                            float,
                            resolve(warp, a, lane),
                            resolve(warp, b, lane),
                        )
                    {
                        bits |= 1 << lane;
                    }
                }
                warp.write_pred(dst, bits, mask);
            }
            InstrKind::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                let slot = warp.cta_slot;
                match space {
                    Space::Global => {
                        for (lane, v) in vals.iter_mut().enumerate() {
                            if mask & (1 << lane) != 0 {
                                let a = lane_addr(warp, addr, offset, lane);
                                *v = gmem.read_u32(a);
                                push_line(&mut mem_lines, a, self.cfg.line_bytes as u64);
                            }
                        }
                    }
                    Space::Shared => {
                        shared_access = true;
                        let shared = &self.ctas[slot].as_ref().expect("CTA resident").shared;
                        for (lane, v) in vals.iter_mut().enumerate() {
                            if mask & (1 << lane) != 0 {
                                let a = lane_addr(warp, addr, offset, lane) as u32;
                                *v = shared.read_u32(a);
                            }
                        }
                    }
                }
                result = Some(dst);
            }
            InstrKind::St {
                space,
                src,
                addr,
                offset,
            } => {
                store = true;
                let slot = warp.cta_slot;
                match space {
                    Space::Global => {
                        for lane in 0..ws {
                            if mask & (1 << lane) != 0 {
                                let a = lane_addr(warp, addr, offset, lane);
                                gmem.write_u32(a, warp.reg(src.index())[lane]);
                                push_line(&mut mem_lines, a, self.cfg.line_bytes as u64);
                            }
                        }
                    }
                    Space::Shared => {
                        shared_access = true;
                        // Reads come from the warp, writes go to the
                        // CTA's shared memory — disjoint SM fields, so
                        // no intermediate (addr, value) buffer is
                        // needed.
                        let warp = self.warps[w].as_ref().expect("picked warp exists");
                        let shared = &mut self.ctas[slot].as_mut().expect("CTA resident").shared;
                        for lane in 0..ws {
                            if mask & (1 << lane) != 0 {
                                let a = lane_addr(warp, addr, offset, lane) as u32;
                                shared.write_u32(a, warp.reg(src.index())[lane]);
                            }
                        }
                    }
                }
            }
            InstrKind::Bra { .. } | InstrKind::Bar | InstrKind::Exit | InstrKind::Nop => {
                unreachable!("control handled above")
            }
        }

        // Commit the register result functionally and through the
        // compression metadata.
        let commit_phase = hostprof::phase(hostprof::Phase::Compressor);
        let mut wb_bank = None;
        let mut wb_bvr_only = false;
        if let Some(dst) = result {
            if !dst.is_zero() {
                let warp_mut = self.warps[w].as_mut().expect("picked warp exists");
                warp_mut.write_reg(dst.index(), &vals, mask);
                // `vals` started as the destination's full contents and
                // only active lanes were overwritten, so after the
                // masked write it *is* the register's post-write state —
                // no second snapshot needed.
                let phys = self.phys_reg(w, dst);
                let winfo = self.regmeta.write(phys, &vals, mask);
                wb_bank = Some(self.bank_of(phys));
                wb_bvr_only = winfo.stored == Encoding::Scalar && !winfo.divergent;
                let warp_size = self.cfg.warp_size;
                tracer.emit_with(now, || TraceEvent::CompressWrite {
                    sm: sm_id,
                    warp: w as u32,
                    reg: u32::from(dst.index()),
                    encoding: encoding_tag(winfo.enc),
                    bytes: winfo.enc.compressed_bytes(warp_size) as u32,
                    uniform: winfo.enc.is_scalar(),
                });
                if winfo.decompress_move {
                    // Section 3.3: the compiler-assisted variant elides
                    // the move when the destination's previous value is
                    // provably dead.
                    let assisted =
                        self.arch.compiler_assisted_moves && !kernel.value_live_after(pc, dst);
                    tracer.emit_with(now, || TraceEvent::Decompress {
                        sm: sm_id,
                        warp: w as u32,
                        pc: pc as u32,
                        assisted,
                    });
                    if assisted {
                        self.stats.instr.decompress_moves_elided += 1;
                    } else {
                        self.stats.instr.decompress_moves += 1;
                        // The injected move reads+writes the full register.
                        let total = self.cfg.arrays_per_bank() as u64;
                        self.stats.rf.ours_arrays += 2 * total;
                        self.stats.rf.ours_bvr += 2;
                        extra_latency += 2;
                    }
                }
                self.record_rf_write(&winfo, &vals, mask, divergent);
                profiler.record_write(
                    pc,
                    encoding_tag(winfo.enc),
                    (self.cfg.warp_size * 4) as u64,
                    winfo.enc.compressed_bytes(self.cfg.warp_size) as u64,
                    divergent,
                );
            }
        }
        drop(commit_phase);
        // Hand the value scratch back for the next instruction.
        self.exec_vals = vals;

        // Advance the PC past this instruction.
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        warp.simt.advance(pc + 1);
        drain_path_events(profiler, &warp.simt);
        self.scoreboards[w].reserve(&instr);

        // Exec-unit energy accounting.
        self.account_exec(&instr, mask, mode);

        // Queue into an operand collector.
        self.stats.pipe.oc_allocs += 1;
        self.oc.insert(OcEntry {
            payload: Inflight {
                warp: w,
                instr,
                pc,
                mask,
                mode,
                unit,
                wb_bank,
                wb_bvr_only,
                mem_lines,
                shared: shared_access,
                store,
                extra_latency,
            },
            reads,
        });
        0
    }

    fn read_port_for(&self, phys: usize, scalar: bool, d_stored: bool) -> ReadReq {
        let bank = self.bank_of(phys);
        if scalar && !d_stored {
            if self.arch.dedicated_scalar_rf {
                return ReadReq::scalar_rf();
            }
            if self.arch.compression {
                return ReadReq::bvr(bank);
            }
        }
        ReadReq::data(bank)
    }

    fn record_rf_read(
        &mut self,
        w: usize,
        r: Reg,
        info: &gscalar_compress::ReadInfo,
        divergent_access: bool,
        d_stored: bool,
    ) {
        let total = self.cfg.arrays_per_bank() as u64;
        let s = &mut self.stats.rf;
        s.reads += 1;
        s.baseline_arrays += total;
        s.ours_arrays += info.arrays_read as u64;
        s.ours_bvr += u64::from(info.bvr_read);
        s.xbar_bytes_baseline += (self.cfg.warp_size * 4) as u64;
        s.xbar_bytes_ours += (info.arrays_read * 16) as u64 + u64::from(info.bvr_read) * 4;
        if info.arrays_read < self.cfg.arrays_per_bank() {
            s.decompressor_ops += 1;
        }
        if info.scalar && !d_stored {
            s.scalar_rf_small += 1;
        } else {
            s.scalar_rf_arrays += total;
        }
        // BDI (W-C) comparison: compress the current contents.
        let warp = self.warps[w].as_ref().expect("reading warp exists");
        let vals = warp.reg(r.index());
        let bdi_res = bdi::compress(vals);
        s.bdi_arrays += bdi_res.arrays_active(16) as u64;
        // Figure 8 classification.
        if divergent_access {
            s.histogram.record_divergent();
        } else {
            let enc = bytewise::encode(vals, crate::full_mask(self.cfg.warp_size));
            s.histogram.record(enc);
        }
    }

    fn record_rf_write(
        &mut self,
        winfo: &gscalar_compress::WriteInfo,
        vals: &[u32],
        mask: u64,
        divergent: bool,
    ) {
        let total = self.cfg.arrays_per_bank() as u64;
        let s = &mut self.stats.rf;
        s.writes += 1;
        s.baseline_arrays += if divergent {
            self.regmeta.baseline_arrays_for_mask(mask) as u64
        } else {
            total
        };
        s.ours_arrays += winfo.arrays_written as u64;
        s.ours_bvr += u64::from(winfo.bvr_written);
        s.compressor_ops += 1;
        s.xbar_bytes_baseline += (self.cfg.warp_size * 4) as u64;
        s.xbar_bytes_ours += (winfo.arrays_written * 16) as u64 + 4;
        if winfo.enc.is_scalar() && !divergent {
            s.scalar_rf_small += 1;
        } else if divergent {
            s.scalar_rf_arrays += self.regmeta.baseline_arrays_for_mask(mask) as u64;
        } else {
            s.scalar_rf_arrays += total;
        }
        let bdi_res = bdi::compress(vals);
        s.bdi_arrays += bdi_res.arrays_active(16) as u64;
        if divergent {
            s.histogram.record_divergent();
        } else {
            s.histogram.record(winfo.enc);
            s.raw_bytes += (self.cfg.warp_size * 4) as u64;
            s.ours_bytes += winfo.enc.compressed_bytes(self.cfg.warp_size) as u64;
            s.bdi_bytes += bdi_res.bytes as u64;
        }
    }

    fn account_exec(&mut self, instr: &Instr, mask: u64, mode: ExecMode) {
        let active = mask.count_ones() as u64;
        let lanes_driven = match mode {
            ExecMode::Vector => active,
            ExecMode::Scalar => 1,
            ExecMode::Half => (self.cfg.warp_size / gscalar_compress::CHUNK_LANES) as u64,
        };
        let saved = active.saturating_sub(lanes_driven);
        let e = &mut self.stats.exec;
        match instr.kind {
            InstrKind::Sfu { .. } => {
                e.sfu_lane_ops += lanes_driven;
                e.sfu_lane_ops_saved += saved;
            }
            InstrKind::Alu { op, .. } if op.is_float() => {
                e.fp_lane_ops += lanes_driven;
                e.fp_lane_ops_saved += saved;
            }
            _ => {
                e.int_lane_ops += lanes_driven;
                e.int_lane_ops_saved += saved;
            }
        }
    }

    // ---- dispatch ------------------------------------------------------

    fn dispatch(
        &mut self,
        inst: Inflight,
        now: u64,
        memsys: &mut MemSystem,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        let threads = self.cfg.warp_size;
        let sm_id = self.id as u32;
        let span = |inst: &Inflight, end: u64| TraceEvent::ExecSpan {
            sm: sm_id,
            warp: inst.warp as u32,
            pc: inst.pc as u32,
            unit: unit_kind(inst.unit),
            mode: inst.mode.trace_kind(),
            end,
        };
        // The paper's design clock-gates lanes during scalar execution
        // but dispatches over the normal number of cycles; the optional
        // fast-dispatch mode models the Section 6 one-cycle opportunity.
        let fast = self.arch.scalar_fast_dispatch && inst.mode != ExecMode::Vector;
        match inst.unit {
            FuncUnit::Alu => {
                let occupancy = if fast {
                    1
                } else {
                    self.alu_pipes[0].occupancy(threads)
                };
                let latency = self.alu_latency(&inst.instr) + inst.extra_latency;
                profiler.record_latency(inst.pc, occupancy.max(1) + latency);
                tracer.emit_with(now, || span(&inst, now + occupancy.max(1) + latency));
                let pipe = self
                    .alu_pipes
                    .iter_mut()
                    .find(|p| p.can_dispatch(now))
                    .expect("dispatch gated on a free ALU port");
                pipe.dispatch(now, occupancy, latency, inst);
            }
            FuncUnit::Sfu => {
                let occupancy = if fast {
                    1
                } else {
                    self.sfu_pipe.occupancy(threads)
                };
                // What-if idealization: a zero-latency SFU still occupies
                // its dispatch port but completes in a single cycle.
                let latency = if self.cfg.ideal.zero_latency_sfu {
                    1
                } else {
                    self.cfg.lat.sfu + inst.extra_latency
                };
                profiler.record_latency(inst.pc, occupancy.max(1) + latency);
                tracer.emit_with(now, || span(&inst, now + occupancy.max(1) + latency));
                self.sfu_pipe.dispatch(now, occupancy, latency, inst);
            }
            FuncUnit::Mem => {
                // The LSU only processes active lanes (divergent memory
                // accesses dispatch in fewer beats).
                let occupancy = if fast {
                    1
                } else {
                    self.lsu_pipe
                        .occupancy((inst.mask.count_ones() as usize).max(1))
                };
                self.lsu_pipe.reserve_dispatch(now, occupancy);
                let mut finish = now + occupancy + self.cfg.lat.l1_hit;
                if inst.shared {
                    finish = now + occupancy + self.cfg.lat.shared_mem;
                    self.stats.mem.shared_accesses += 1;
                } else {
                    if inst.mem_lines.len() == 1 {
                        self.stats.mem.fully_coalesced += 1;
                    }
                    let _mem_phase = hostprof::phase(hostprof::Phase::Memsys);
                    for &line in &inst.mem_lines {
                        let t = memsys.access_traced(
                            self.id,
                            line,
                            inst.store,
                            now,
                            &mut self.stats.mem,
                            tracer,
                        );
                        finish = finish.max(t);
                    }
                }
                profiler.record_latency(inst.pc, finish.saturating_sub(now));
                tracer.emit_with(now, || span(&inst, finish));
                self.lsu_pipe.complete_at(finish, inst);
            }
            FuncUnit::Control => unreachable!("control never reaches dispatch"),
        }
    }

    fn alu_latency(&self, instr: &Instr) -> u64 {
        match instr.kind {
            InstrKind::Alu { op, .. } => match op {
                AluOp::IMul | AluOp::IMad => self.cfg.lat.int_mul,
                op if op.is_float() => self.cfg.lat.fp_alu,
                _ => self.cfg.lat.int_alu,
            },
            _ => self.cfg.lat.int_alu,
        }
    }

    /// Retires a finished warp; returns completed CTAs (0 or 1).
    fn retire_warp(&mut self, w: usize) -> usize {
        let slot = self.warps[w]
            .as_ref()
            .expect("retiring warp exists")
            .cta_slot;
        self.warps[w] = None;
        // The scheduler must forget a retired warp: its GTO greedy
        // pointer would otherwise give the next warp launched into this
        // slot priority over older siblings (and charge stalls to the
        // dead warp's stale head PC while the slot is empty).
        self.schedulers[w % self.cfg.schedulers].retire(w);
        let cta = self.ctas[slot].as_mut().expect("warp's CTA resident");
        cta.warps_done += 1;
        // A warp exiting may release a barrier its siblings wait on.
        if cta.at_barrier > 0 && cta.at_barrier >= cta.warps_total - cta.warps_done {
            cta.at_barrier = 0;
            for other in self.warps.iter_mut().flatten() {
                if other.cta_slot == slot {
                    other.at_barrier = false;
                }
            }
        }
        if cta.warps_done == cta.warps_total {
            self.ctas[slot] = None;
            return 1;
        }
        0
    }
}

/// One warp's readiness: the per-warp check behind every scheduler pick
/// and stall classification.
fn warp_verdict(
    warp: Option<&Warp>,
    scoreboard: &Scoreboard,
    hazards: &[Hazards],
    kernel: &Kernel,
    now: u64,
    oc_free: bool,
) -> Verdict {
    let Some(warp) = warp.filter(|w| !w.is_done()) else {
        return Verdict::Empty;
    };
    if warp.at_barrier {
        return Verdict::Barrier;
    }
    let pc = warp.simt.pc();
    if let Some(b) = scoreboard.blocking_until(&hazards[pc], now) {
        return Verdict::Blocked(b);
    }
    // Non-control instructions need a collector slot.
    if oc_free || kernel.instr(pc).func_unit() == FuncUnit::Control {
        Verdict::Ready
    } else {
        Verdict::NoCollector
    }
}

/// Computes a lane's effective byte address.
fn lane_addr(warp: &Warp, addr: Reg, offset: i32, lane: usize) -> u64 {
    let base = if addr.is_zero() {
        0
    } else {
        warp.reg(addr.index())[lane]
    };
    (u64::from(base)).wrapping_add(offset as i64 as u64)
}

/// Adds the cache line of `addr` to `lines` if not yet present.
fn push_line(lines: &mut Vec<u64>, addr: u64, line_bytes: u64) {
    let line = addr / line_bytes * line_bytes;
    if !lines.contains(&line) {
        lines.push(line);
    }
}

impl Warp {
    /// Fills `out` with `dst`'s current lane values, or zeros for RZ
    /// (whose writes are discarded but must not index the register
    /// array). Reuses the caller's buffer — the per-instruction hot
    /// path must not allocate.
    fn fill_reg_or_zero(&self, dst: Reg, out: &mut Vec<u32>) {
        out.clear();
        if dst.is_zero() {
            out.resize(self.reg(0).len().max(1), 0);
        } else {
            out.extend_from_slice(self.reg(dst.index()));
        }
    }
}
