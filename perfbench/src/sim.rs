//! The `sim-full` and `sim-full-2t` workloads: the full-scale Table 2
//! mix, one simulation at a time, on the serial or the parallel engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gscalar_core::rng::Rng;
use gscalar_core::{Arch, RunReport, Runner, Workload};
use gscalar_hostprof::{self as hostprof, Counter, Phase};
use gscalar_power::chip_power;
use gscalar_sim::{GpuConfig, Stats};
use gscalar_workloads::{suite, Scale};

use crate::pins::{self, Pins};
use crate::spans::Spans;
use crate::{median, peak_rss_mb, probes, serve, Args, Outcome, PAPER_RF_RATIO, SETUP_REPEATS};

/// Blocks of serve traffic the researcher client sends after the timed
/// loop, so the serve metrics exist on this workload too. Twelve misses
/// keep the serve tail among the misses.
const SERVE_BLOCKS: usize = 12;

/// One kernel's `Runner::run`.
pub struct KernelRun {
    pub abbr: String,
    pub report: RunReport,
    pub secs: f64,
}

/// One pass over a suite in some order.
pub struct Pass {
    pub wall_s: f64,
    pub cycles: u64,
    /// In run order.
    pub runs: Vec<KernelRun>,
}

/// The modelled GPU (Table 1) with `threads` simulation threads.
pub fn config(threads: usize) -> GpuConfig {
    GpuConfig {
        exec_threads: threads,
        ..GpuConfig::gtx480()
    }
}

/// Builds the suite `SETUP_REPEATS` times; returns the last build and
/// the median build time.
pub fn build_suite(scale: Scale, spans: &Spans) -> (Vec<Workload>, f64) {
    let mut times = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (w, s) = spans.time("workloads.suite", 0, 0, |_| suite(scale));
        built = w;
        times.push(s);
    }
    (built, median(&times))
}

/// A seeded permutation of `0..n`.
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Runs every kernel once in `order` through `Runner::run`. With pins,
/// each result is checked against its pin; a panic is a failure either
/// way.
pub fn run_pass(
    runner: &Runner,
    suite: &[Workload],
    order: &[usize],
    pins: Option<&Pins>,
    spans: &Spans,
    out: &mut Outcome,
) -> Pass {
    let mut runs = Vec::new();
    let mut cycles = 0;
    let ((), wall_s) = spans.time("sim.pass", 0, 0, |pass| {
        for &i in order {
            let w = &suite[i];
            let name = format!("core.Runner::run.{}", w.abbr);
            let (report, secs) = spans.time(&name, pass, 0, |_| {
                catch_unwind(AssertUnwindSafe(|| runner.run(w, Arch::GScalar)))
            });
            let Ok(report) = report else {
                out.check(Err(format!("{}: simulation panicked", w.abbr)));
                continue;
            };
            out.check(pins.map_or(Ok(()), |p| p.check(&w.abbr, &report.stats)));
            cycles += report.stats.cycles;
            runs.push(KernelRun {
                abbr: w.abbr.clone(),
                report,
                secs,
            });
        }
    });
    Pass {
        wall_s,
        cycles,
        runs,
    }
}

/// `|mean over kernels of ours_ratio − 2.17| / 2.17`, the definition of
/// the fig12 AVG row.
pub fn rf_ratio_err(ratios: &[f64]) -> f64 {
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    (mean - PAPER_RF_RATIO).abs() / PAPER_RF_RATIO
}

pub fn run(args: &Args, threads: usize, spans: &Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pins = Pins::parse(pins::PINS)?;
    let (suite, build_s) = build_suite(Scale::Full, spans);
    out.set("setup_s", build_s);
    out.set("workloads.build_s", build_s);
    let runner = Runner::new(config(threads));
    let mut rng = Rng::seed_from_u64(args.seed);

    if args.trace {
        let order = shuffled(&mut rng, suite.len());
        let plain = run_pass(&runner, &suite, &order, Some(&pins), spans, &mut out);
        let (profiled, snap) = with_hostprof(|| {
            run_pass(
                &runner,
                &suite,
                &order,
                Some(&pins),
                &Spans::new(false),
                &mut out,
            )
        });
        sim_layer_metrics(&plain, &mut out);
        hostprof_metrics(
            plain.wall_s,
            profiled.wall_s,
            &snap,
            profiled.cycles,
            &mut out,
        );
        power_probe(&plain, &runner, spans, &mut out);
        probes::compressor(args.seed, &suite, spans, &mut out);
        probes::memsys(&suite, "MV", spans, &mut out);
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let order = shuffled(&mut rng, suite.len());
            passes.push(run_pass(
                &runner,
                &suite,
                &order,
                Some(&pins),
                spans,
                &mut out,
            ));
        }
        let rates: Vec<f64> = passes.iter().map(|p| p.cycles as f64 / p.wall_s).collect();
        out.set("sim_cycles_per_s", median(&rates));
        let ratios: Vec<f64> = passes[0]
            .runs
            .iter()
            .map(|r| r.report.stats.rf.ours_ratio())
            .collect();
        out.set("rf_ratio_err", rf_ratio_err(&ratios));
        out.notes.push(format!(
            "sim: {} passes of {} cycles, {threads} sim thread(s); cycles/s per pass: {rates:?}",
            passes.len(),
            passes[0].cycles
        ));
    }

    let bench = serve::ServeBench::start(spans)?;
    let session = bench.session(args.seed, serve::Limit::Blocks(SERVE_BLOCKS), spans);
    bench.report(&session, &mut out);
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Runs `f` with host profiling on; returns its result and the profile.
pub fn with_hostprof<R>(f: impl FnOnce() -> R) -> (R, hostprof::Snapshot) {
    hostprof::reset();
    hostprof::set_enabled(true);
    let r = f();
    let snap = hostprof::snapshot();
    hostprof::set_enabled(false);
    (r, snap)
}

/// Per-kernel timings and exact simulated counts of one pass.
pub fn sim_layer_metrics(pass: &Pass, out: &mut Outcome) {
    let mut run_s = 0.0;
    let (mut issued, mut stalled, mut skipped) = (0, 0, 0);
    let (mut warp_instrs, mut accesses, mut loads, mut l1_hits, mut merges) = (0, 0, 0, 0, 0);
    let (mut reads, mut writes, mut raw, mut ours, mut bdi) = (0, 0, 0, 0, 0);
    for run in &pass.runs {
        let s = &run.report.stats;
        run_s += run.secs;
        out.set(&format!("sim.kernel_s.{}", run.abbr), run.secs);
        for sched in &s.sched {
            issued += sched.issued;
            stalled += sched.stalls.total();
            skipped += sched.skipped.total();
        }
        warp_instrs += s.instr.warp_instrs;
        accesses += s.mem.global_accesses;
        loads += s.mem.l1_hits + s.mem.l1_misses + s.mem.l1_mshr_hits;
        l1_hits += s.mem.l1_hits;
        merges += s.mem.l1_mshr_hits;
        reads += s.rf.reads;
        writes += s.rf.writes;
        raw += s.rf.raw_bytes;
        ours += s.rf.ours_bytes;
        bdi += s.rf.bdi_bytes;
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("sim.run_s", run_s);
    out.set("sim.cycles", pass.cycles as f64);
    out.set("sim.warp_instrs", warp_instrs as f64);
    out.set("sim.slots.issued", issued as f64);
    out.set("sim.slots.stalled", stalled as f64);
    out.set("sim.slots.skipped", skipped as f64);
    out.set("sim.mem.accesses", accesses as f64);
    out.set("sim.mem.l1_hit_frac", frac(l1_hits, loads));
    out.set("sim.mem.mshr_merge_frac", frac(merges, loads));
    out.set("sim.rf.reads", reads as f64);
    out.set("sim.rf.writes", writes as f64);
    out.set("sim.rf.ratio", frac(raw, ours));
    out.set("sim.rf.bdi_ratio", frac(raw, bdi));
}

/// Host-profile metrics of a profiled stretch that simulated `cycles`
/// cycles, against the same work run plain in `plain_s`.
pub fn hostprof_metrics(
    plain_s: f64,
    profiled_s: f64,
    snap: &hostprof::Snapshot,
    cycles: u64,
    out: &mut Outcome,
) {
    for p in Phase::ALL {
        out.set(
            &format!("trace.phase.{}_s", p.name()),
            snap.phase(p).ns as f64 / 1e9,
        );
    }
    let cfg = GpuConfig::gtx480();
    let slots = cycles * (cfg.num_sms * cfg.schedulers) as u64;
    if slots > 0 {
        out.set(
            "trace.scheduler_ns_per_slot",
            snap.phase(Phase::Scheduler).ns as f64 / slots as f64,
        );
        out.set(
            "pool.epochs_per_cycle",
            snap.counter(Counter::PoolEpochs) as f64 / cycles as f64,
        );
    }
    out.set("pool.steals", snap.counter(Counter::PoolSteals) as f64);
    out.set("trace.overhead", profiled_s / plain_s);
    out.set("trace.coverage", snap.total_ns() as f64 / 1e9 / profiled_s);
}

/// Times `chip_power` on each kernel's statistics, from outside the
/// runner, and checks it reproduces the runner's power report.
pub fn power_probe(pass: &Pass, runner: &Runner, spans: &Spans, out: &mut Outcome) {
    const REPS: usize = 200;
    let arch = Arch::GScalar;
    let mut per_call = Vec::new();
    for run in &pass.runs {
        let call = || {
            chip_power(
                &run.report.stats,
                runner.config(),
                arch.rf_scheme(),
                arch.has_codec(),
                runner.energy(),
            )
        };
        let (report, secs) = spans.time("power.chip_power", 0, 0, |_| {
            for _ in 1..REPS {
                std::hint::black_box(call());
            }
            call()
        });
        per_call.push(secs / REPS as f64 * 1e6);
        out.check(if report == run.report.power {
            Ok(())
        } else {
            Err(format!(
                "{}: chip_power disagrees with Runner::run",
                run.abbr
            ))
        });
    }
    out.set("power.chip_power_us", median(&per_call));
}

/// Simulates the full-scale suite serially in Table 2 order and renders
/// a fresh pins file.
pub fn regenerate_pins() -> String {
    let runner = Runner::new(config(1));
    let runs: Vec<(String, Stats)> = suite(Scale::Full)
        .iter()
        .map(|w| (w.abbr.clone(), runner.run(w, Arch::GScalar).stats))
        .collect();
    pins::render(&runs)
}
