//! The CPI-stack accounting identity, end to end: for every run — full
//! suite and randomized divergent/looping kernels alike — each
//! (SM, scheduler) ledger charges exactly one slot per cycle, so the
//! analyzer's stacks reconcile to `cycles × ledgers` at kernel, per-SM
//! and per-scheduler granularity.

use gscalar::analyze::CpiStack;
use gscalar::core::Arch;
use gscalar::isa::{CmpOp, Kernel, KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::{Gpu, GpuConfig, Probes, Profiler, RunOutput, Stats};
use gscalar::trace::{EventBuf, StallReason, Tracer};
use gscalar::workloads::{suite, Scale};
use proptest::prelude::*;

/// A multi-SM configuration so idle-skip bulk charging and the per-SM
/// merge participate.
fn multi_sm_config() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    cfg
}

/// Runs the kernel and returns (merged, per-SM) statistics.
fn run_with_per_sm(
    kernel: &Kernel,
    launch: LaunchConfig,
    init: &GlobalMemory,
) -> (Stats, Vec<Stats>) {
    let mut gpu = Gpu::new(multi_sm_config(), Arch::Baseline.config());
    let run = gpu.run_with(kernel, launch, &mut init.clone(), &mut Probes::default());
    let RunOutput { stats, per_sm } = run.expect("no budget set");
    (stats, per_sm)
}

/// Asserts the accounting identity at every granularity.
fn assert_reconciles(merged: &Stats, per_sm: &[Stats], num_sms: usize, what: &str) {
    let kernel = CpiStack::kernel(merged, num_sms);
    assert!(kernel.cycles > 0, "{what}: run simulated nothing");
    kernel
        .reconcile()
        .unwrap_or_else(|e| panic!("{what}: kernel stack: {e}"));
    // Per-SM and per-scheduler views split exactly the same slots.
    let mut sm_total = 0;
    for (i, sm) in per_sm.iter().enumerate() {
        let st = CpiStack::sm(sm, merged.cycles);
        st.reconcile()
            .unwrap_or_else(|e| panic!("{what}: sm{i} stack: {e}"));
        sm_total += st.total_slots();
        for (s, sc) in sm.sched.iter().enumerate() {
            CpiStack::scheduler(sc, merged.cycles, 1)
                .reconcile()
                .unwrap_or_else(|e| panic!("{what}: sm{i}/sched{s} stack: {e}"));
        }
    }
    assert_eq!(
        sm_total,
        kernel.total_slots(),
        "{what}: per-SM stacks must partition the kernel stack"
    );
}

#[test]
fn suite_stacks_reconcile_at_test_scale() {
    for w in suite(Scale::Test) {
        let (merged, per_sm) = run_with_per_sm(&w.kernel, w.launch, &w.memory);
        assert_reconciles(&merged, &per_sm, 4, &w.abbr);
    }
}

#[test]
fn suite_stacks_reconcile_on_the_full_chip_config() {
    // The gtx480 config (15 SMs, GTO) on a couple of benchmarks: the
    // same identity must hold where the bottleneck binary runs.
    let cfg = GpuConfig::gtx480();
    for w in suite(Scale::Test).into_iter().take(2) {
        let mut gpu = Gpu::new(cfg.clone(), Arch::Baseline.config());
        let mut mem = w.memory.clone();
        let run = gpu.run_with(&w.kernel, w.launch, &mut mem, &mut Probes::default());
        let RunOutput { stats, per_sm } = run.expect("no budget set");
        assert_reconciles(&stats, &per_sm, cfg.num_sms, &w.abbr);
    }
}

/// One randomly chosen kernel body step (divergence, loops, memory).
#[derive(Debug, Clone)]
enum Step {
    AddImm(u32),
    XorTid,
    Load,
    Store,
    Diverge(u32),
    Loop(u32),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u32..1000).prop_map(Step::AddImm),
        Just(Step::XorTid),
        Just(Step::Load),
        Just(Step::Store),
        (1u32..31).prop_map(Step::Diverge),
        (2u32..5).prop_map(Step::Loop),
    ]
}

/// Builds a kernel with tid-disjoint global accesses mixing ALU work,
/// loads, stores, divergence, and loops according to `steps`.
fn build_kernel(steps: &[Step]) -> Kernel {
    let base = 0x10_0000u32;
    let mut b = KernelBuilder::new("rand");
    let tid = b.s2r(SReg::TidX);
    let ctaid = b.s2r(SReg::CtaIdX);
    let ntid = b.s2r(SReg::NTidX);
    let gid = b.imad(ctaid.into(), ntid.into(), tid.into());
    let off = b.shl(gid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(base));
    let acc = b.mov(Operand::Imm(1));
    for step in steps {
        match step {
            Step::AddImm(k) => {
                let t = b.iadd(acc.into(), Operand::Imm(*k));
                b.mov_to(acc, t.into());
            }
            Step::XorTid => {
                let t = b.xor(acc.into(), tid.into());
                b.mov_to(acc, t.into());
            }
            Step::Load => {
                let v = b.ld_global(addr, 0);
                let t = b.iadd(acc.into(), v.into());
                b.mov_to(acc, t.into());
            }
            Step::Store => {
                b.st_global(addr, acc, 0);
            }
            Step::Diverge(k) => {
                let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(*k));
                b.if_else(
                    p.into(),
                    |b| {
                        let t = b.iadd(acc.into(), Operand::Imm(7));
                        b.mov_to(acc, t.into());
                    },
                    |b| {
                        let t = b.xor(acc.into(), Operand::Imm(3));
                        b.mov_to(acc, t.into());
                    },
                );
            }
            Step::Loop(n) => {
                let i = b.mov(Operand::Imm(0));
                b.while_loop(
                    |b| b.isetp(CmpOp::Lt, i.into(), Operand::Imm(*n)).into(),
                    |b| {
                        let t = b.iadd(acc.into(), i.into());
                        b.mov_to(acc, t.into());
                        let t2 = b.iadd(i.into(), Operand::Imm(1));
                        b.mov_to(i, t2.into());
                    },
                );
            }
        }
    }
    b.st_global(addr, acc, 0);
    b.exit();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_reconcile_serial_and_parallel(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        ctas in 1u32..7,
        warps in 1u32..3,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let mut init = GlobalMemory::new();
        for t in 0..u64::from(ctas * warps * 32) {
            init.write_u32(0x10_0000 + t * 4, (t * 17 + 3) as u32);
        }
        let (merged, per_sm) = run_with_per_sm(&kernel, launch, &init);
        assert_reconciles(&merged, &per_sm, 4, "random kernel");
    }
}

/// One step of a memory-bound random kernel: loads consumed right
/// away, so warps sit on long-latency misses and whole SMs spend
/// stretches with nothing to issue — the cycles an SM replays from its
/// cached stall verdicts instead of re-polling every warp.
#[derive(Debug, Clone)]
enum MemStep {
    /// A load `stride` words apart per thread (1 coalesces; wider
    /// strides spread one warp's access over many lines), used at once.
    LoadUse(u32),
    /// Two independent loads 4 KiB apart, then one use of both.
    LoadPair(u32),
    AddImm(u32),
    Store,
    Barrier,
}

fn mem_step_strategy() -> impl Strategy<Value = MemStep> {
    prop_oneof![
        prop_oneof![Just(1u32), Just(8), Just(33)].prop_map(MemStep::LoadUse),
        prop_oneof![Just(1u32), Just(16)].prop_map(MemStep::LoadPair),
        (1u32..1000).prop_map(MemStep::AddImm),
        Just(MemStep::Store),
        Just(MemStep::Barrier),
    ]
}

fn build_mem_kernel(steps: &[MemStep]) -> Kernel {
    let base = 0x10_0000u32;
    let out = 0x80_0000u32;
    let mut b = KernelBuilder::new("rand_mem");
    let tid = b.s2r(SReg::TidX);
    let ctaid = b.s2r(SReg::CtaIdX);
    let ntid = b.s2r(SReg::NTidX);
    let gid = b.imad(ctaid.into(), ntid.into(), tid.into());
    let off = b.shl(gid.into(), Operand::Imm(2));
    let out_addr = b.iadd(off.into(), Operand::Imm(out));
    // Every kernel waits on memory at least once: the accumulator
    // starts as a load and the final store consumes it.
    let first = b.iadd(off.into(), Operand::Imm(base));
    let acc = b.ld_global(first, 0);
    for step in steps {
        match step {
            MemStep::LoadUse(stride) | MemStep::LoadPair(stride) => {
                let scaled = b.imul(off.into(), Operand::Imm(*stride));
                let addr = b.iadd(scaled.into(), Operand::Imm(base));
                let v = b.ld_global(addr, 0);
                let v = if matches!(step, MemStep::LoadPair(_)) {
                    let w = b.ld_global(addr, 4096);
                    b.xor(v.into(), w.into())
                } else {
                    v
                };
                let t = b.iadd(acc.into(), v.into());
                b.mov_to(acc, t.into());
            }
            MemStep::AddImm(k) => {
                let t = b.iadd(acc.into(), Operand::Imm(*k));
                b.mov_to(acc, t.into());
            }
            MemStep::Store => b.st_global(out_addr, acc, 0),
            MemStep::Barrier => b.bar(),
        }
    }
    b.st_global(out_addr, acc, 0);
    b.exit();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn memory_bound_random_kernels_keep_the_ledger_exact(
        steps in proptest::collection::vec(mem_step_strategy(), 1..8),
        ctas in 1u32..9,
        warps in 1u32..4,
    ) {
        let kernel = build_mem_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let mut init = GlobalMemory::new();
        for t in 0..u64::from(ctas * warps * 32) * 33 + 1024 {
            init.write_u32(0x10_0000 + t * 4, (t * 7 + 1) as u32);
        }
        for arch in [Arch::Baseline, Arch::GScalar] {
            let run = |observed: bool| {
                let mut gpu = Gpu::new(multi_sm_config(), arch.config());
                let mut buf = EventBuf::new(1 << 16);
                let mut probes = Probes::default();
                if observed {
                    probes.tracer = Tracer::new(&mut buf);
                    probes.profiler = Profiler::for_kernel(0, kernel.name(), kernel.len());
                }
                let run = gpu.run_with(&kernel, launch, &mut init.clone(), &mut probes);
                run.expect("no budget set")
            };
            let plain = run(false);
            let stats = &plain.stats;
            prop_assert!(stats.pipe.stalls.get(StallReason::MemPending) > 0);
            prop_assert_eq!(stats.pipe.stalls.total(), stats.pipe.scheduler_idle_cycles);
            for sm in &plain.per_sm {
                prop_assert_eq!(sm.pipe.stalls.total(), sm.pipe.scheduler_idle_cycles);
                for sc in &sm.sched {
                    prop_assert_eq!(
                        sc.issued + sc.stalls.total() + sc.skipped.total(),
                        stats.cycles
                    );
                }
            }
            let observed = run(true);
            prop_assert_eq!(&observed.stats, stats);
            prop_assert_eq!(&observed.per_sm, &plain.per_sm);
        }
    }
}
