//! Criterion benchmarks for simulator throughput: warp instructions
//! simulated per second on representative kernels, per architecture.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gscalar_core::{Arch, Runner};
use gscalar_sim::GpuConfig;
use gscalar_workloads::{by_abbr, Scale};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    let runner = Runner::new(GpuConfig::test_small());
    for abbr in ["BP", "LBM", "MM"] {
        let w = by_abbr(abbr, Scale::Test).expect("known benchmark");
        // Measure throughput in warp instructions.
        let instrs = runner.run(&w, Arch::Baseline).stats.instr.warp_instrs;
        g.throughput(Throughput::Elements(instrs));
        for arch in [Arch::Baseline, Arch::GScalar] {
            g.bench_function(format!("{abbr}/{}", arch.label()), |b| {
                b.iter(|| black_box(runner.run(&w, arch).stats.cycles))
            });
        }
    }
    g.finish();
}

/// Serial engine vs the epoch-barrier parallel engine on the full
/// 15-SM configuration (1 SM, as in `test_small`, would collapse the
/// parallel path back to serial). Same workload, byte-identical
/// results — the interesting number is the wall-clock ratio.
fn bench_parallel_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_engine");
    g.sample_size(10);
    let w = by_abbr("MM", Scale::Test).expect("known benchmark");
    for threads in [1usize, 2, 4] {
        let mut cfg = GpuConfig::gtx480();
        cfg.exec_threads = threads;
        let runner = Runner::new(cfg);
        g.bench_function(format!("MM/threads={threads}"), |b| {
            b.iter(|| black_box(runner.run(&w, Arch::GScalar).stats.cycles))
        });
    }
    g.finish();
}

fn bench_simt_stack(c: &mut Criterion) {
    use gscalar_sim::simt::SimtStack;
    c.bench_function("simt_stack/diverge_reconverge", |b| {
        b.iter(|| {
            let mut s = SimtStack::new(0, u64::MAX);
            for i in 0..16 {
                s.branch(0x5555_5555_5555_5555 << (i % 2), 10, 1, Some(20));
                s.advance(20);
                s.advance(20);
            }
            s.exit();
            black_box(s.is_done())
        })
    });
}

/// The scheduler's per-cycle readiness work in isolation: one fused
/// pick-and-classify pass over a scheduler's 24 warps, all waiting on
/// loads (the pass a stalled, unfrozen SM pays per scheduler per
/// cycle), and the single scoreboard check each warp costs within it.
fn bench_scheduler(c: &mut Criterion) {
    use gscalar_isa::{AluOp, Instr, InstrKind, Reg, Space};
    use gscalar_sim::scheduler::{SchedPolicy, Scheduler, StallScan, Verdict};
    use gscalar_sim::scoreboard::{Hazards, Scoreboard};

    let load = Instr::always(InstrKind::Ld {
        space: Space::Global,
        dst: Reg::new(1),
        addr: Reg::new(2),
        offset: 0,
    });
    let consumer = Instr::always(InstrKind::Alu {
        op: AluOp::IAdd,
        dst: Reg::new(3),
        a: Reg::new(1).into(),
        b: Reg::new(4).into(),
        c: Reg::RZ.into(),
    });
    let hz = Hazards::of(&consumer);
    let warps = 24;
    let scoreboards: Vec<Scoreboard> = (0..warps)
        .map(|w| {
            let mut sb = Scoreboard::new(8);
            sb.reserve(&load);
            // Half the loads have written back with a release cycle.
            if w % 2 == 0 {
                sb.release_at(&load, 1000 + w as u64);
            }
            sb
        })
        .collect();
    let mut sched = Scheduler::new(SchedPolicy::Gto, (0..warps).collect());
    c.bench_function("scheduler/fused_pick_24_mem_blocked", |b| {
        b.iter(|| {
            let mut scan = StallScan::new();
            let picked = sched.pick(|w| {
                let v = scoreboards[w]
                    .blocking_until(&hz, black_box(10))
                    .map_or(Verdict::Ready, Verdict::Blocked);
                scan.note(w, v)
            });
            black_box((picked, scan.stall(false)))
        })
    });
    c.bench_function("scheduler/blocking_until", |b| {
        b.iter(|| black_box(scoreboards[1].blocking_until(black_box(&hz), black_box(10))))
    });
}

criterion_group!(
    benches,
    bench_kernels,
    bench_parallel_engine,
    bench_simt_stack,
    bench_scheduler
);
criterion_main!(benches);
