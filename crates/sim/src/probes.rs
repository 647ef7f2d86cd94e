//! Everything a run carries besides the machine: the event tracer, the
//! per-PC profiler, interval observers, live telemetry and a
//! simulated-cycle budget — bundled as [`Probes`] and driven by **one**
//! interval clock.
//!
//! # The clock
//!
//! A run's clock ticks at every multiple of its period (see
//! [`Probes::interval`]). After each clock advance the engine asks the
//! clock whether a boundary was crossed; idle-skip jumps may cross
//! several at once, and since every counter is cumulative one tick at
//! the latest boundary suffices. On a tick, in order:
//!
//! 1. the tracer (when on) records one [`TraceEvent::Snapshot`] per SM;
//! 2. the live observer, then every attached [`RunObserver`], receives
//!    the per-SM and merged cumulative statistics;
//! 3. the budget (when set) is checked: a boundary at or past it ends
//!    the run with [`BudgetExceeded`].
//!
//! Probes only read simulator state: attaching any of them never
//! changes the statistics or memory image a run produces.

use gscalar_hostprof as hostprof;
use gscalar_profile::Profiler;
use gscalar_trace::{TraceEvent, Tracer};

use crate::live::LiveObserver;
use crate::stats::Stats;

/// Receives interval samples and the final state of a simulation run.
///
/// Implementations feed metrics registries and power timelines without
/// the run loop knowing about either. Attached through
/// [`Probes::observers`], an observer gets [`sample`](RunObserver::sample)
/// at every clock tick and [`finish`](RunObserver::finish) exactly once
/// when the run completes (not when a budget ends it).
pub trait RunObserver {
    /// One interval sample: `stats` is the cumulative merged state of
    /// every SM with `stats.cycles` set to the boundary cycle.
    fn sample(&mut self, cycle: u64, stats: &Stats);

    /// Per-SM detail of one interval sample: called once per SM (in SM
    /// id order) immediately before the merged [`sample`] at the same
    /// boundary, with that SM's own cumulative statistics. The default
    /// does nothing, so observers that only need the merged view are
    /// unaffected.
    ///
    /// [`sample`]: RunObserver::sample
    fn sample_sm(&mut self, cycle: u64, sm: usize, stats: &Stats) {
        let _ = (cycle, sm, stats);
    }

    /// The run is complete: `merged` is the final aggregate (identical
    /// to the run's return value) and `per_sm` holds each SM's own
    /// statistics.
    fn finish(&mut self, cycle: u64, merged: &Stats, per_sm: &[Stats]) {
        let _ = (cycle, merged, per_sm);
    }
}

/// Clock period of a budgeted run that sets no interval of its own: the
/// budget is checked every this many cycles, or at the budget itself
/// when that is finer.
const BUDGET_CHECK_INTERVAL: u64 = 4096;

/// A simulation was ended because it crossed its simulated-cycle budget
/// (see [`Probes::budget`]).
///
/// The abort is *deterministic*: it triggers on simulated cycles, not
/// wall time, so a budgeted run fails identically on every machine and
/// thread count — the property the sweep engine's byte-identical
/// manifests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Simulated cycles when the budget tripped (the first clock
    /// boundary at or past the budget).
    pub cycles: u64,
    /// The budget that applied.
    pub budget: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle budget exceeded: {} simulated of {} allowed",
            self.cycles, self.budget
        )
    }
}

/// The probes attached to one run of [`Gpu::run_with`](crate::Gpu::run_with).
///
/// `Probes::default()` attaches nothing and costs nothing: no clock
/// ticks, every trace and profile point is one untaken branch.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_sim::{memory::GlobalMemory, ArchConfig, Gpu, GpuConfig, MetricsObserver, Probes};
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(7));
/// b.exit();
/// let kernel = b.build().unwrap();
///
/// let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
/// let mut mem = GlobalMemory::new();
/// let mut metrics = MetricsObserver::new();
/// let mut probes = Probes {
///     observers: vec![&mut metrics],
///     interval: 16,
///     ..Probes::default()
/// };
/// let run = gpu
///     .run_with(&kernel, LaunchConfig::linear(2, 64), &mut mem, &mut probes)
///     .expect("no budget set");
/// drop(probes);
/// assert_eq!(metrics.registry().counter("gpu/cycles"), Some(run.stats.cycles));
/// assert_eq!(run.per_sm.len(), 1);
/// ```
#[derive(Default)]
pub struct Probes<'a> {
    /// Cycle-level event tracing; also records per-SM
    /// [`TraceEvent::Snapshot`]s at every clock tick.
    pub tracer: Tracer<'a>,
    /// Per-static-instruction profiling (see `gscalar_profile`).
    pub profiler: Profiler,
    /// Interval observers, sampled at every clock tick in order.
    pub observers: Vec<&'a mut dyn RunObserver>,
    /// Clock period in cycles. 0 leaves the clock to the budget (every
    /// `budget.min(4096)` cycles) or, when nothing else would see a
    /// tick, to the live observer's own cadence.
    pub interval: u64,
    /// Simulated-cycle budget: the run ends with [`BudgetExceeded`] at
    /// the first clock boundary at or past it. 0 = unlimited.
    pub budget: u64,
    /// Live telemetry, sampled ahead of [`observers`](Probes::observers).
    /// It downsamples from the clock on its own cadence, so it never
    /// moves a tick another probe sees.
    pub live: Option<LiveObserver>,
}

impl std::fmt::Debug for Probes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probes")
            .field("tracer", &self.tracer)
            .field("profiler", &self.profiler.is_on())
            .field("observers", &self.observers.len())
            .field("interval", &self.interval)
            .field("budget", &self.budget)
            .field("live", &self.live.is_some())
            .finish()
    }
}

/// What a completed run gives back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Statistics merged across SMs, with `cycles` set to the run's
    /// elapsed cycles.
    pub stats: Stats,
    /// Each SM's own final statistics, in SM id order.
    pub per_sm: Vec<Stats>,
}

/// The run's interval clock: reports each newly crossed boundary once.
pub(crate) struct Clock {
    period: u64,
    last: u64,
}

impl Clock {
    /// The latest boundary at or before `now`, if the clock has not
    /// ticked there yet.
    #[inline]
    pub(crate) fn due(&mut self, now: u64) -> Option<u64> {
        let boundary = now.checked_div(self.period)? * self.period;
        (boundary > self.last).then(|| {
            self.last = boundary;
            boundary
        })
    }
}

impl Probes<'_> {
    /// A fresh clock for one run at this bundle's period.
    pub(crate) fn clock(&self) -> Clock {
        let period = if self.interval > 0 {
            self.interval
        } else if self.budget > 0 {
            self.budget.min(BUDGET_CHECK_INTERVAL)
        } else if self.tracer.is_on() || !self.observers.is_empty() {
            // Live telemetry never adds a tick another probe would see.
            0
        } else {
            self.live.as_ref().map_or(0, LiveObserver::cadence)
        };
        Clock { period, last: 0 }
    }

    /// One clock tick at `boundary` over each SM's cumulative `sms`
    /// statistics (in SM id order): snapshots, samples, budget check.
    pub(crate) fn tick<'s>(
        &mut self,
        boundary: u64,
        sms: impl Iterator<Item = &'s Stats>,
    ) -> Result<(), BudgetExceeded> {
        let _phase = hostprof::phase(hostprof::Phase::Snapshot);
        let observed = self.live.is_some() || !self.observers.is_empty();
        let mut merged = Stats::default();
        for (i, s) in sms.enumerate() {
            self.tracer.emit_with(boundary, || TraceEvent::Snapshot {
                sm: i as u32,
                issued: s.pipe.issued,
                scalar: s.instr.executed_scalar,
                rf_bytes_compressed: s.rf.ours_bytes,
                rf_bytes_uncompressed: s.rf.raw_bytes,
                rf_activations: s.rf.ours_arrays,
            });
            if observed {
                self.for_each_observer(|o| o.sample_sm(boundary, i, s));
                merged.merge(s);
            }
        }
        if observed {
            merged.cycles = boundary;
            self.for_each_observer(|o| o.sample(boundary, &merged));
        }
        if self.budget > 0 && boundary >= self.budget {
            return Err(BudgetExceeded {
                cycles: boundary,
                budget: self.budget,
            });
        }
        Ok(())
    }

    /// Ends a completed run: merges `per_sm`, stamps the elapsed
    /// `cycles` and hands the final state to every observer.
    pub(crate) fn finish(&mut self, cycles: u64, per_sm: Vec<Stats>) -> RunOutput {
        let mut stats = Stats::default();
        for s in &per_sm {
            stats.merge(s);
        }
        stats.cycles = cycles;
        self.for_each_observer(|o| o.finish(cycles, &stats, &per_sm));
        RunOutput { stats, per_sm }
    }

    fn for_each_observer(&mut self, mut f: impl FnMut(&mut dyn RunObserver)) {
        if let Some(live) = self.live.as_mut() {
            f(live);
        }
        for o in &mut self.observers {
            f(&mut **o);
        }
    }
}
