//! Observer neutrality: attaching probes to `Gpu::run_with` — tracer,
//! profiler, interval observers, live telemetry, host-side profiling,
//! a budget past the end — must never change what the run computes:
//! same `Stats`, same final memory image, same trace event sequence,
//! same per-PC profile.
//!
//! Exercised three ways: over the benchmark suite at test scale, over
//! randomized kernels (ALU mixes, loads/stores, divergence, loops)
//! generated by proptest, and over a table of probe combinations.
//!
//! The file keeps its historical name from when it also compared a
//! second, multi-threaded engine against the serial loop; with one
//! simulation loop left, only the neutrality checks remain.

use gscalar::core::{Arch, Probes, Runner, Workload};
use gscalar::isa::{CmpOp, Kernel, KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar::metrics::MetricsRegistry;
use gscalar::power::PowerTimeline;
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::{ArchConfig, Gpu, GpuConfig, MetricsObserver, Profiler, Stats};
use gscalar::trace::{EventBuf, Record, TraceEvent, Tracer};
use gscalar::workloads::{suite, Scale};
use proptest::prelude::*;

fn gscalar_arch() -> ArchConfig {
    Arch::GScalar.config()
}

/// A small multi-SM configuration, so per-SM snapshots, CTA refills and
/// the whole-chip idle skip all participate.
fn multi_sm_config() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    cfg
}

struct Instrumented {
    stats: Stats,
    mem: GlobalMemory,
    trace: Vec<Record>,
    profile: Option<gscalar::sim::KernelProfile>,
}

/// Runs `kernel` fully instrumented (tracing and profiling at once).
fn run_instrumented(kernel: &Kernel, launch: LaunchConfig, init: &GlobalMemory) -> Instrumented {
    let mut gpu = Gpu::new(multi_sm_config(), gscalar_arch());
    let mut mem = init.clone();
    let mut buf = EventBuf::new(1 << 20);
    let mut probes = Probes {
        tracer: Tracer::new(&mut buf),
        profiler: Profiler::for_kernel(0, kernel.name(), kernel.len()),
        ..Probes::default()
    };
    let run = gpu.run_with(kernel, launch, &mut mem, &mut probes);
    let profile = std::mem::take(&mut probes.profiler).into_profile();
    drop(probes);
    Instrumented {
        stats: run.expect("no budget set").stats,
        mem,
        trace: buf.records().into_iter().cloned().collect(),
        profile,
    }
}

fn assert_identical(base: &Instrumented, probed: &Instrumented, what: &str) {
    assert_eq!(base.stats, probed.stats, "{what}: stats diverge");
    assert!(
        probed.mem.content_eq(&base.mem),
        "{what}: memory diverges at {:?}",
        probed.mem.first_difference(&base.mem)
    );
    assert_eq!(
        base.trace.len(),
        probed.trace.len(),
        "{what}: trace length diverges"
    );
    for (i, (s, p)) in base.trace.iter().zip(&probed.trace).enumerate() {
        assert_eq!(s, p, "{what}: trace record {i} diverges");
    }
    assert_eq!(base.profile, probed.profile, "{what}: profile diverges");
}

/// Serializes the tests that install the process-wide live-telemetry
/// handle (tests in this binary run concurrently, and `Runner` attaches
/// whatever handle is installed).
static LIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn suite_outputs_are_identical_with_hostprof_enabled() {
    // Host-side profiling only reads clocks and writes its own
    // accumulators; enabling it must leave every simulated artifact
    // byte-identical.
    for w in suite(Scale::Test).into_iter().take(4) {
        gscalar::hostprof::set_enabled(false);
        let baseline = run_instrumented(&w.kernel, w.launch, &w.memory);
        gscalar::hostprof::set_enabled(true);
        let on = run_instrumented(&w.kernel, w.launch, &w.memory);
        gscalar::hostprof::set_enabled(false);
        assert_identical(&baseline, &on, &format!("{}: hostprof on", w.abbr));
    }
}

/// Runs `w` through the core `Runner` — the layer where live telemetry
/// attaches — traced, optionally with a deterministic in-memory live
/// stream installed. Returns the stream's lines when live was on.
fn run_via_runner(w: &Workload, live: bool) -> (Stats, Vec<Record>, Option<Vec<String>>) {
    let handle = live.then(|| {
        let h = gscalar::live::LiveHandle::memory(gscalar::live::StreamConfig {
            deterministic: true,
            snapshot_interval: 32,
            ..gscalar::live::StreamConfig::default()
        });
        gscalar::live::install(h.clone());
        h
    });
    let runner = Runner::new(multi_sm_config());
    let mut buf = EventBuf::new(1 << 20);
    let mut probes = Probes {
        tracer: Tracer::new(&mut buf),
        interval: 64,
        ..Probes::default()
    };
    let report = runner.run_with(w, Arch::GScalar, &mut probes);
    drop(probes);
    let report = report.expect("no budget set");
    let lines = handle.map(|h| {
        gscalar::live::uninstall();
        h.close();
        h.collected().expect("memory sink")
    });
    (
        report.stats,
        buf.records().into_iter().cloned().collect(),
        lines,
    )
}

#[test]
fn suite_outputs_are_identical_with_live_telemetry() {
    // Live telemetry observes cumulative stats at sample boundaries and
    // streams them out of band; attaching it must leave stats and trace
    // byte-identical — and the deterministic stream itself must be the
    // same on every repeat.
    let _guard = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    for w in suite(Scale::Test).into_iter().take(4) {
        let (base_stats, base_trace, _) = run_via_runner(&w, false);
        let mut first_lines = None;
        for repeat in 0..2 {
            let (stats, trace, lines) = run_via_runner(&w, true);
            assert_eq!(base_stats, stats, "{}: live on: stats", w.abbr);
            assert_eq!(
                base_trace.len(),
                trace.len(),
                "{}: live on: trace length",
                w.abbr
            );
            for (i, (s, p)) in base_trace.iter().zip(&trace).enumerate() {
                assert_eq!(s, p, "{}: live on: record {i}", w.abbr);
            }
            let lines = lines.unwrap();
            assert!(
                lines.iter().any(|l| l.contains("\"type\":\"snapshot\"")),
                "{}: no snapshot in stream",
                w.abbr
            );
            assert!(
                lines.iter().any(|l| l.contains("\"type\":\"run_end\"")),
                "{}: no run_end in stream",
                w.abbr
            );
            match &first_lines {
                None => first_lines = Some(lines),
                Some(first) => assert_eq!(
                    first, &lines,
                    "{}: deterministic stream differs on repeat {repeat}",
                    w.abbr
                ),
            }
        }
    }
}

/// Runs `w` with the probes selected by the six bits of `combo`
/// (tracer, profiler, metrics + power observers, live stream, 16-cycle
/// interval, budget past the end), checking each probe's own
/// invariants against the plain run.
fn run_probed(w: &Workload, combo: u32, plain: &gscalar::core::RunReport) {
    let on = |bit: u32| combo & (1 << bit) != 0;
    let what = format!("probes {combo:06b}");
    let runner = Runner::new(multi_sm_config());
    let arch = Arch::GScalar;
    let live = on(3).then(|| {
        let h = gscalar::live::LiveHandle::memory(gscalar::live::StreamConfig {
            deterministic: true,
            snapshot_interval: 8,
            ..gscalar::live::StreamConfig::default()
        });
        gscalar::live::install(h.clone());
        h
    });
    let mut buf = EventBuf::new(1 << 20);
    let mut metrics = MetricsObserver::new();
    let mut timeline = PowerTimeline::new(
        runner.config(),
        arch.rf_scheme(),
        arch.has_codec(),
        runner.energy().clone(),
    );
    let mut probes = Probes {
        interval: if on(4) { 16 } else { 0 },
        budget: if on(5) { plain.stats.cycles + 1 } else { 0 },
        ..Probes::default()
    };
    if on(0) {
        probes.tracer = Tracer::new(&mut buf);
    }
    if on(1) {
        probes.profiler = Profiler::for_kernel(0, w.kernel.name(), w.kernel.len());
    }
    if on(2) {
        probes.observers = vec![&mut metrics, &mut timeline];
    }
    let report = runner.run_with(w, arch, &mut probes);
    let profile = std::mem::take(&mut probes.profiler).into_profile();
    drop(probes);
    let lines = live.map(|h| {
        gscalar::live::uninstall();
        h.close();
        h.collected().expect("memory sink")
    });
    let report = report.unwrap_or_else(|e| panic!("{what}: within budget, got {e}"));

    // No probe perturbs the simulation or its power.
    assert_eq!(report.stats, plain.stats, "{what}: stats");
    assert_eq!(report.power, plain.power, "{what}: power");
    assert!(report.power.total_w() > 0.0, "{what}: power");
    let stats = &report.stats;
    let trace = buf.into_records();
    if on(0) {
        assert!(!trace.is_empty(), "{what}: empty trace");
    }
    let snapshots = trace
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::Snapshot { .. }))
        .count();
    assert_eq!(
        snapshots > 0,
        on(0) && on(4),
        "{what}: trace snapshots follow the clock"
    );
    if let Some(prof) = &profile {
        // Per-PC totals reconcile exactly with the aggregate counters.
        assert_eq!(prof.total_issues(), stats.pipe.issued, "{what}: issues");
        assert_eq!(
            prof.total_stall_cycles(),
            stats.pipe.scheduler_idle_cycles,
            "{what}: stalls"
        );
        let pcs: Vec<usize> = prof.executed_pcs().collect();
        assert!(!pcs.is_empty(), "{what}: no executed PCs");
        assert!(
            pcs.iter().all(|&pc| pc < w.kernel.len()),
            "{what}: PC range"
        );
        // The manifest view carries both, schema-stamped.
        let mut reg = MetricsRegistry::new();
        stats.export(&mut reg.scope("gpu"));
        prof.export(&mut reg.scope("profile"));
        assert_eq!(reg.counter("gpu/cycles"), Some(stats.cycles));
        assert_eq!(
            reg.counter("profile/k00/schema"),
            Some(gscalar_profile::PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(reg.counter("profile/k00/issues"), Some(stats.pipe.issued));
    }
    if on(2) {
        assert_eq!(metrics.registry().counter("gpu/cycles"), Some(stats.cycles));
        // The timeline integrates to the one-shot total energy.
        let total = gscalar::power::total_energy_pj(
            stats,
            runner.config(),
            arch.rf_scheme(),
            arch.has_codec(),
            runner.energy(),
        );
        let integrated = timeline.integrated_energy_pj();
        assert!((integrated - total).abs() <= 1e-6 * total, "{what}: energy");
        let mut reg = MetricsRegistry::new();
        timeline.export(&mut reg.scope("power"));
        assert!(
            reg.series("power/register-file").is_some(),
            "{what}: power series"
        );
    }
    if let Some(lines) = &lines {
        assert!(lines.iter().any(|l| l.contains("\"type\":\"run_start\"")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"run_end\"")));
        // Live snapshots need a clock tick: the interval's, or its own
        // cadence's when no other probe would see a tick. (The budget
        // clock, past the end of this short run, never ticks.)
        let alone = !on(0) && !on(2) && !on(5);
        assert_eq!(
            lines.iter().any(|l| l.contains("\"type\":\"snapshot\"")),
            on(4) || alone,
            "{what}: live snapshots"
        );
    }
}

#[test]
fn probe_combinations_never_perturb_the_run() {
    let _guard = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    let steps = [Step::Load, Step::Diverge(9), Step::Loop(3), Step::Store];
    let launch = LaunchConfig::linear(6, 64);
    let mut init = GlobalMemory::new();
    for t in 0..6 * 64 {
        init.write_u32(0x10_0000 + t * 4, (t * 17 + 3) as u32);
    }
    let w = Workload::new("probes", "PR", build_kernel(&steps), launch, init);
    let plain = Runner::new(multi_sm_config()).run(&w, Arch::GScalar);
    for combo in 0..64 {
        run_probed(&w, combo, &plain);
    }
    // A budget inside the run ends it at the first clock boundary at or
    // past the budget, before the run would have finished.
    for w in suite(Scale::Test).into_iter().take(4) {
        let full = Gpu::new(multi_sm_config(), gscalar_arch())
            .run(&w.kernel, w.launch, &mut w.memory.clone())
            .cycles;
        let mut probes = Probes {
            budget: full / 2,
            ..Probes::default()
        };
        let err = Gpu::new(multi_sm_config(), gscalar_arch())
            .run_with(&w.kernel, w.launch, &mut w.memory.clone(), &mut probes)
            .expect_err("budget must trip mid-run");
        assert_eq!(err.budget, full / 2, "{}", w.abbr);
        assert!(
            err.cycles >= full / 2 && err.cycles < full,
            "{}: abort at {} of {full}",
            w.abbr,
            err.cycles
        );
    }
}

/// One randomly chosen kernel body step.
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

/// Builds a kernel whose global accesses are tid-disjoint (4-byte
/// aligned, one word per thread), mixing ALU work, loads, stores,
/// divergence, and loops according to `steps`.
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
    fn hostprof_enabled_perturbs_nothing(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        ctas in 1u32..5,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, 32);
        let mut init = GlobalMemory::new();
        for t in 0..u64::from(ctas * 32) {
            init.write_u32(0x10_0000 + t * 4, (t * 17 + 3) as u32);
        }
        gscalar::hostprof::set_enabled(false);
        let baseline = run_instrumented(&kernel, launch, &init);
        gscalar::hostprof::set_enabled(true);
        let on = run_instrumented(&kernel, launch, &init);
        gscalar::hostprof::set_enabled(false);
        assert_identical(&baseline, &on, "hostprof on");
    }

    #[test]
    fn live_telemetry_perturbs_nothing(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        ctas in 1u32..5,
    ) {
        let kernel = build_kernel(&steps);
        let launch = LaunchConfig::linear(ctas, 32);
        let mut init = GlobalMemory::new();
        for t in 0..u64::from(ctas * 32) {
            init.write_u32(0x10_0000 + t * 4, (t * 17 + 3) as u32);
        }
        let w = Workload::new("rand", "RAND", kernel, launch, init);
        let _guard = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        let (base_stats, base_trace, _) = run_via_runner(&w, false);
        let (stats, trace, lines) = run_via_runner(&w, true);
        prop_assert_eq!(&base_stats, &stats, "live on: stats");
        prop_assert_eq!(base_trace.len(), trace.len(), "live on: trace length");
        for (i, (s, p)) in base_trace.iter().zip(&trace).enumerate() {
            prop_assert_eq!(s, p, "live on: record {}", i);
        }
        // Tiny kernels may finish before the first snapshot boundary,
        // but the run lifecycle always streams.
        let lines = lines.unwrap();
        prop_assert!(lines.iter().any(|l| l.contains("\"type\":\"run_start\"")));
        prop_assert!(lines.iter().any(|l| l.contains("\"type\":\"run_end\"")));
    }
}
