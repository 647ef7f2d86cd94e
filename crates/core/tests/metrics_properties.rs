//! Property tests for the instrumented run path: on randomly generated
//! structured kernels, the interval power timeline must integrate to
//! exactly the one-shot energy total, and the stall taxonomy must stay
//! exhaustive (per-reason cycles sum to the scheduler idle count).

use gscalar_core::{Arch, Probes, Runner, Workload};
use gscalar_isa::{CmpOp, KernelBuilder, LaunchConfig, Operand, Pred, Reg, SReg};
use gscalar_power::PowerTimeline;
use gscalar_profile::Profiler;
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::{GpuConfig, MetricsObserver};
use proptest::prelude::*;

/// A random structured statement (a slimmed-down version of the
/// differential-fuzz generator in `gscalar-sim`): enough variety to hit
/// ALU, SFU, memory, and divergent control flow.
#[derive(Debug, Clone)]
enum Stmt {
    AddImm(u32),
    MulTid,
    SfuRound,
    IfTidLt(u32, Vec<Stmt>),
    StoreLoad,
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (1u32..100).prop_map(Stmt::AddImm),
        Just(Stmt::MulTid),
        Just(Stmt::SfuRound),
        Just(Stmt::StoreLoad),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (1u32..100).prop_map(Stmt::AddImm),
            Just(Stmt::MulTid),
            Just(Stmt::StoreLoad),
            ((1u32..64), proptest::collection::vec(inner, 1..3))
                .prop_map(|(n, b)| Stmt::IfTidLt(n, b)),
        ]
    })
}

struct Ctx {
    x: Reg,
    tid: Reg,
    scratch: Reg,
    p: Pred,
}

fn emit(b: &mut KernelBuilder, c: &Ctx, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::AddImm(v) => b.iadd_to(c.x, c.x.into(), Operand::Imm(*v)),
            Stmt::MulTid => {
                b.alu_to(
                    gscalar_isa::AluOp::IMad,
                    c.x,
                    c.x.into(),
                    Operand::Imm(3),
                    c.tid.into(),
                );
            }
            Stmt::SfuRound => {
                b.alu_to(
                    gscalar_isa::AluOp::And,
                    c.scratch,
                    c.x.into(),
                    Operand::Imm(0xFF),
                    Reg::RZ.into(),
                );
                b.alu_to(
                    gscalar_isa::AluOp::I2F,
                    c.scratch,
                    c.scratch.into(),
                    Reg::RZ.into(),
                    Reg::RZ.into(),
                );
                b.sfu_to(gscalar_isa::SfuOp::Sqrt, c.scratch, c.scratch.into());
                b.alu_to(
                    gscalar_isa::AluOp::F2I,
                    c.scratch,
                    c.scratch.into(),
                    Reg::RZ.into(),
                    Reg::RZ.into(),
                );
                b.iadd_to(c.x, c.x.into(), c.scratch.into());
            }
            Stmt::IfTidLt(n, body) => {
                b.isetp_to(c.p, CmpOp::Lt, c.tid.into(), Operand::Imm(*n));
                b.if_then(c.p.into(), |b| emit(b, c, body));
            }
            Stmt::StoreLoad => {
                let off = b.shl(c.tid.into(), Operand::Imm(2));
                let addr = b.iadd(off.into(), Operand::Imm(0x20_0000));
                b.st_global(addr, c.x, 0);
                b.ld_global_to(c.x, addr, 0);
            }
        }
    }
}

fn build_workload(prog: &[Stmt]) -> Workload {
    let mut b = KernelBuilder::new("metrics-fuzz");
    let tid = b.s2r(SReg::TidX);
    let x = b.mov(Operand::Imm(1));
    let scratch = b.mov(Operand::Imm(0));
    let p = b.pred();
    let ctx = Ctx { x, tid, scratch, p };
    emit(&mut b, &ctx, prog);
    let off = b.shl(tid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(0x30_0000));
    b.st_global(addr, x, 0);
    b.exit();
    Workload::new(
        "metrics-fuzz",
        "MF",
        b.build().expect("fuzz kernel builds"),
        LaunchConfig::linear(2, 64),
        GlobalMemory::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn timeline_integrates_to_one_shot_energy_and_stalls_stay_exhaustive(
        prog in proptest::collection::vec(stmt(), 1..5),
        arch_pick in 0usize..3,
        interval_pick in 0usize..3,
    ) {
        let w = build_workload(&prog);
        let arch = [Arch::Baseline, Arch::AluScalar, Arch::GScalar][arch_pick];
        let sample_interval = [0u64, 7, 64][interval_pick];
        let runner = Runner::new(GpuConfig::test_small());
        let mut metrics = MetricsObserver::new();
        let mut timeline = PowerTimeline::new(
            runner.config(),
            arch.rf_scheme(),
            arch.has_codec(),
            runner.energy().clone(),
        );
        let mut probes = Probes {
            observers: vec![&mut metrics, &mut timeline],
            interval: sample_interval,
            ..Probes::default()
        };
        let report = runner.run_with(&w, arch, &mut probes).expect("no budget set");
        drop(probes);
        let stats = &report.stats;

        // Invariant 1: the interval timeline re-integrates (sum of
        // interval power × interval duration) to the one-shot total.
        let integrated = timeline.integrated_energy_pj();
        let one_shot = gscalar_power::total_energy_pj(
            stats,
            runner.config(),
            arch.rf_scheme(),
            arch.has_codec(),
            runner.energy(),
        );
        let rel = (integrated - one_shot).abs() / one_shot.max(1e-12);
        prop_assert!(
            rel < 1e-6,
            "timeline {integrated} pJ vs one-shot {one_shot} pJ (rel {rel:.3e}, \
             arch {arch:?}, interval {sample_interval})"
        );

        // Invariant 2: exactly one stall reason is charged per idle
        // scheduler-cycle, with metrics observation enabled.
        prop_assert_eq!(stats.pipe.stalls.total(), stats.pipe.scheduler_idle_cycles);

        // The registry saw the same run: its exported cycle counter
        // matches the merged statistics.
        let flat = metrics.registry().flatten();
        let cycles = flat
            .iter()
            .find(|(p, _)| p == "gpu/cycles")
            .expect("gpu/cycles exported")
            .1;
        prop_assert_eq!(cycles, stats.cycles as f64);
    }

    #[test]
    fn per_pc_profile_reconciles_with_aggregate_stats(
        prog in proptest::collection::vec(stmt(), 1..5),
        arch_pick in 0usize..3,
    ) {
        use gscalar_profile::EligClass;

        let w = build_workload(&prog);
        let arch = [Arch::Baseline, Arch::AluScalar, Arch::GScalar][arch_pick];
        let runner = Runner::new(GpuConfig::test_small());
        let mut probes = Probes {
            profiler: Profiler::for_kernel(0, w.kernel.name(), w.kernel.len()),
            ..Probes::default()
        };
        let report = runner.run_with(&w, arch, &mut probes).expect("no budget set");
        let stats = &report.stats;
        let prof = &probes.profiler.into_profile().expect("profiler on");

        // Profiling must not perturb the simulation.
        let plain = runner.run(&w, arch);
        prop_assert_eq!(&plain.stats, stats);

        // Issue slots: every issued warp-instruction is attributed to
        // exactly one PC; every idle scheduler-cycle is charged to the
        // losing warp's PC or recorded as unattributed.
        prop_assert_eq!(prof.total_issues(), stats.pipe.issued);
        prop_assert_eq!(
            prof.total_stall_cycles(),
            stats.pipe.scheduler_idle_cycles
        );

        // Lane-level totals.
        let recs = prof.records();
        let lanes: u64 = recs.iter().map(|r| r.active_lanes).sum();
        prop_assert_eq!(lanes, stats.instr.thread_instrs);
        let divergent: u64 = recs.iter().map(|r| r.divergent_issues).sum();
        prop_assert_eq!(divergent, stats.instr.divergent_instrs);

        // Scalar-eligibility classes: per-PC class counts sum to the
        // aggregate eligible_* counters.
        let class_sum = |c: EligClass| -> u64 {
            recs.iter().map(|r| r.class_count(c)).sum()
        };
        prop_assert_eq!(class_sum(EligClass::Alu), stats.instr.eligible_alu);
        prop_assert_eq!(class_sum(EligClass::Sfu), stats.instr.eligible_sfu);
        prop_assert_eq!(class_sum(EligClass::Mem), stats.instr.eligible_mem);
        prop_assert_eq!(class_sum(EligClass::Half), stats.instr.eligible_half);
        prop_assert_eq!(
            class_sum(EligClass::Divergent),
            stats.instr.eligible_divergent
        );

        // Register-write compressor outcomes: per-PC byte totals match
        // the aggregate register-file accounting (divergent writes are
        // excluded from both, by the same rule).
        let raw: u64 = recs.iter().map(|r| r.raw_bytes).sum();
        prop_assert_eq!(raw, stats.rf.raw_bytes);
        let compressed: u64 = recs.iter().map(|r| r.compressed_bytes).sum();
        prop_assert_eq!(compressed, stats.rf.ours_bytes);
        let writes: u64 = recs
            .iter()
            .map(|r| (0..gscalar_profile::ENCODING_SLOTS)
                .map(|t| r.enc_count(t))
                .sum::<u64>() + r.enc_divergent)
            .sum();
        prop_assert_eq!(writes, stats.rf.writes);
    }
}
