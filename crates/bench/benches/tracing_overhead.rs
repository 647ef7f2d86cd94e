//! Tracing- and metrics-overhead benchmark: the disabled-tracer and
//! disabled-observer paths must cost almost nothing (target ≤2% vs the
//! untraced run loop), and the enabled paths' costs are reported for
//! reference.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gscalar_core::{Arch, Probes, Runner};
use gscalar_power::PowerTimeline;
use gscalar_profile::Profiler;
use gscalar_sim::{GpuConfig, MetricsObserver};
use gscalar_trace::{EventBuf, Tracer};
use gscalar_workloads::{by_abbr, Scale};
use std::hint::black_box;

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing");
    g.sample_size(20);
    let runner = Runner::new(GpuConfig::test_small());
    let w = by_abbr("BP", Scale::Test).expect("known benchmark");
    let instrs = runner.run(&w, Arch::GScalar).stats.instr.warp_instrs;
    g.throughput(Throughput::Elements(instrs));

    // Baseline: the plain run loop (internally an off-tracer).
    g.bench_function("off/run", |b| {
        b.iter(|| black_box(runner.run(&w, Arch::GScalar).stats.cycles))
    });

    // Every probe off through the one entry point: tracer off,
    // profiler off, no observer, no clock — measures the untaken
    // branches alone.
    g.bench_function("off/run_with", |b| {
        b.iter(|| {
            let report = runner.run_with(&w, Arch::GScalar, &mut Probes::default());
            black_box(report.expect("no budget set").stats.cycles)
        })
    });

    // Enabled: ring-buffered sink plus interval snapshots.
    g.bench_function("on/event_buf", |b| {
        b.iter(|| {
            let mut buf = EventBuf::new(1 << 16);
            let mut probes = Probes {
                tracer: Tracer::new(&mut buf),
                interval: 64,
                ..Probes::default()
            };
            let report = runner.run_with(&w, Arch::GScalar, &mut probes);
            drop(probes);
            black_box((report.expect("no budget set").stats.cycles, buf.len()))
        })
    });

    // Metrics-on: registry observer with 64-cycle interval series.
    g.bench_function("metrics-on/run_with", |b| {
        b.iter(|| {
            let mut obs = MetricsObserver::new();
            let mut probes = Probes {
                observers: vec![&mut obs],
                interval: 64,
                ..Probes::default()
            };
            let report = runner.run_with(&w, Arch::GScalar, &mut probes);
            drop(probes);
            let cycles = report.expect("no budget set").stats.cycles;
            black_box((cycles, obs.into_registry().flatten().len()))
        })
    });

    // Profiler-on: full per-PC attribution (issues, stalls, classes,
    // latencies, compressor outcomes, branch paths).
    g.bench_function("profile-on/run_with", |b| {
        b.iter(|| {
            let mut probes = Probes {
                profiler: Profiler::for_kernel(0, w.kernel.name(), w.kernel.len()),
                ..Probes::default()
            };
            let report = runner.run_with(&w, Arch::GScalar, &mut probes);
            let profile = probes.profiler.into_profile().expect("profiler on");
            black_box((
                report.expect("no budget set").stats.cycles,
                profile.total_issues(),
            ))
        })
    });

    // Full instrumentation: registry plus interval power timeline.
    g.bench_function("metered/run_with", |b| {
        b.iter(|| {
            let mut obs = MetricsObserver::new();
            let mut timeline = PowerTimeline::new(
                runner.config(),
                Arch::GScalar.rf_scheme(),
                Arch::GScalar.has_codec(),
                runner.energy().clone(),
            );
            let mut probes = Probes {
                observers: vec![&mut obs, &mut timeline],
                interval: 64,
                ..Probes::default()
            };
            let report = runner.run_with(&w, Arch::GScalar, &mut probes);
            drop(probes);
            let cycles = report.expect("no budget set").stats.cycles;
            black_box((cycles, timeline.intervals().len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
