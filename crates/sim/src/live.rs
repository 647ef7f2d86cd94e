//! Bridges the simulator's [`Stats`] into a live telemetry stream.
//!
//! A [`LiveObserver`] rides in [`Probes::live`](crate::Probes::live)
//! and emits NDJSON [`LiveRecord`]s to a [`gscalar_live::LiveHandle`]
//! *while the run executes*: one `run_start`, periodic `snapshot`s
//! (cumulative IPC, per-SM IPC, stall mix, compression ratio, MSHR
//! occupancy, pool counters), and one `run_end`. The pool counters are
//! process-global host state whose values depend on thread scheduling,
//! so a deterministic stream reports them as zeros.
//!
//! Snapshots come from the run's one interval clock. The observer
//! keeps its own cadence ([`LiveHandle::snapshot_interval`]) by
//! downsampling: it emits at the first tick at least that many cycles
//! after its last snapshot, and sets the clock to its cadence only when
//! no other probe would see the ticks. Emission goes through the
//! handle's bounded non-blocking queue, so the run loop never waits on
//! I/O. The stream is advisory: what it carries may change with the
//! other probes attached, what the run computes never does.

use gscalar_hostprof as hostprof;
use gscalar_live::{LiveHandle, LiveRecord};

use crate::probes::RunObserver;
use crate::stats::Stats;

/// A [`RunObserver`] that streams interval snapshots to a live handle.
#[derive(Debug)]
pub struct LiveObserver {
    handle: LiveHandle,
    run: u64,
    interval: u64,
    last_emit: u64,
    per_sm_ipc: Vec<f64>,
}

impl LiveObserver {
    /// Announces a new run on `handle` (emitting `run_start`) and
    /// returns the observer to put in [`Probes::live`](crate::Probes::live).
    #[must_use]
    pub fn start(handle: LiveHandle, workload: &str, arch: &str, sms: usize) -> Self {
        let run = handle.next_run_id();
        handle.emit(&LiveRecord::RunStart {
            run,
            workload: workload.to_string(),
            arch: arch.to_string(),
            sms: sms as u64,
            t_s: handle.now_s(),
        });
        let interval = handle.snapshot_interval();
        LiveObserver {
            handle,
            run,
            interval,
            last_emit: 0,
            per_sm_ipc: Vec::new(),
        }
    }

    /// The observer's snapshot cadence in cycles.
    pub(crate) fn cadence(&self) -> u64 {
        self.interval
    }

    /// The stream-unique id of this run.
    #[must_use]
    pub fn run_id(&self) -> u64 {
        self.run
    }

    fn due(&self, cycle: u64) -> bool {
        cycle >= self.last_emit + self.interval
    }
}

impl RunObserver for LiveObserver {
    fn sample_sm(&mut self, cycle: u64, sm: usize, stats: &Stats) {
        if !self.due(cycle) {
            return;
        }
        if self.per_sm_ipc.len() <= sm {
            self.per_sm_ipc.resize(sm + 1, 0.0);
        }
        self.per_sm_ipc[sm] = if cycle == 0 {
            0.0
        } else {
            stats.instr.thread_instrs as f64 / cycle as f64
        };
    }

    fn sample(&mut self, cycle: u64, stats: &Stats) {
        if !self.due(cycle) {
            return;
        }
        self.last_emit = cycle;
        let scalar_rate = if stats.instr.warp_instrs == 0 {
            0.0
        } else {
            stats.instr.executed_scalar as f64 / stats.instr.warp_instrs as f64
        };
        let pool = if self.handle.deterministic() {
            (0, 0, 0)
        } else {
            let host = hostprof::snapshot();
            (
                host.counter(hostprof::Counter::PoolSteals),
                host.counter(hostprof::Counter::PoolFailedSteals),
                host.counter(hostprof::Counter::PoolEpochs),
            )
        };
        self.handle.emit(&LiveRecord::Snapshot {
            run: self.run,
            cycle,
            ipc: stats.ipc(),
            issued: stats.pipe.issued,
            warp_instrs: stats.instr.warp_instrs,
            scalar_rate,
            compression_ratio: stats.rf.ours_ratio(),
            mshr_mean: stats.mem.mshr_occupancy.mean(),
            mshr_max: stats.mem.mshr_occupancy.max().unwrap_or(0),
            per_sm_ipc: self.per_sm_ipc.clone(),
            stalls: stats
                .pipe
                .stalls
                .iter()
                .map(|(reason, count)| (reason.label().to_string(), count))
                .collect(),
            pool,
            t_s: self.handle.now_s(),
        });
    }

    fn finish(&mut self, cycle: u64, merged: &Stats, _per_sm: &[Stats]) {
        self.handle.emit(&LiveRecord::RunEnd {
            run: self.run,
            cycle,
            ipc: merged.ipc(),
            warp_instrs: merged.instr.warp_instrs,
            t_s: self.handle.now_s(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchConfig, GpuConfig};
    use crate::gpu::Gpu;
    use crate::memory::GlobalMemory;
    use crate::probes::Probes;
    use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
    use gscalar_live::StreamConfig;

    fn busy_kernel() -> gscalar_isa::Kernel {
        let mut b = KernelBuilder::new("busy");
        let tid = b.s2r(SReg::TidX);
        let mut cur = tid;
        for i in 0..64 {
            cur = b.iadd(cur.into(), Operand::Imm(i));
        }
        b.exit();
        b.build().unwrap()
    }

    fn run_with_observer() -> (Stats, Vec<String>) {
        let handle = LiveHandle::memory(StreamConfig {
            deterministic: true,
            snapshot_interval: 8,
            ..StreamConfig::default()
        });
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 4;
        let mut gpu = Gpu::new(cfg, ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let mut probes = Probes {
            live: Some(LiveObserver::start(handle.clone(), "busy", "base", 4)),
            ..Probes::default()
        };
        let stats = gpu
            .run_with(
                &busy_kernel(),
                LaunchConfig::linear(4, 64),
                &mut mem,
                &mut probes,
            )
            .unwrap()
            .stats;
        handle.close();
        (stats, handle.collected().unwrap())
    }

    #[test]
    fn emits_start_snapshots_and_end() {
        let (stats, lines) = run_with_observer();
        let records: Vec<LiveRecord> = lines
            .iter()
            .map(|l| LiveRecord::parse(l).expect("parses"))
            .collect();
        assert!(matches!(records[0], LiveRecord::RunStart { sms: 4, .. }));
        let snapshots: Vec<&LiveRecord> = records
            .iter()
            .filter(|r| matches!(r, LiveRecord::Snapshot { .. }))
            .collect();
        assert!(!snapshots.is_empty(), "no snapshots in {lines:?}");
        for s in &snapshots {
            let LiveRecord::Snapshot {
                cycle,
                per_sm_ipc,
                stalls,
                t_s,
                ..
            } = s
            else {
                unreachable!()
            };
            assert_eq!(cycle % 8, 0, "snapshot off the cadence grid");
            assert_eq!(per_sm_ipc.len(), 4);
            assert!(!stalls.is_empty());
            assert_eq!(*t_s, 0.0, "deterministic stream leaks wall clock");
        }
        match records.last().unwrap() {
            LiveRecord::StreamEnd { .. } => {}
            other => panic!("missing terminal record, got {other:?}"),
        }
        let end = records
            .iter()
            .find(|r| matches!(r, LiveRecord::RunEnd { .. }))
            .expect("run_end");
        if let LiveRecord::RunEnd {
            cycle, warp_instrs, ..
        } = end
        {
            assert_eq!(*cycle, stats.cycles);
            assert_eq!(*warp_instrs, stats.instr.warp_instrs);
        }
    }

    #[test]
    fn deterministic_stream_ignores_host_pool_counters() {
        // Pool counters are process-global: steals recorded by anything
        // else in the process must not reach a deterministic stream.
        hostprof::reset();
        let (_, quiet) = run_with_observer();
        hostprof::set_enabled(true);
        hostprof::counter_add(hostprof::Counter::PoolSteals, 3);
        hostprof::counter_add(hostprof::Counter::PoolFailedSteals, 5);
        hostprof::set_enabled(false);
        let (_, after_steals) = run_with_observer();
        hostprof::reset();
        assert!(quiet.iter().any(|l| l.contains("\"snapshot\"")));
        assert_eq!(quiet, after_steals);
    }

    #[test]
    fn downsamples_when_the_clock_ticks_finer() {
        // Clock period 2, observer cadence 8: snapshots land at least 8
        // apart even though the clock ticks every 2 cycles.
        let handle = LiveHandle::memory(StreamConfig {
            deterministic: true,
            snapshot_interval: 8,
            ..StreamConfig::default()
        });
        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let mut probes = Probes {
            live: Some(LiveObserver::start(handle.clone(), "busy", "base", 1)),
            interval: 2,
            ..Probes::default()
        };
        gpu.run_with(
            &busy_kernel(),
            LaunchConfig::linear(1, 32),
            &mut mem,
            &mut probes,
        )
        .unwrap();
        handle.close();
        let cycles: Vec<u64> = handle
            .collected()
            .unwrap()
            .iter()
            .filter_map(|line| match LiveRecord::parse(line).unwrap() {
                LiveRecord::Snapshot { cycle, .. } => Some(cycle),
                _ => None,
            })
            .collect();
        assert!(!cycles.is_empty());
        for pair in cycles.windows(2) {
            assert!(
                pair[1] >= pair[0] + 8,
                "snapshots closer than the observer cadence: {cycles:?}"
            );
        }
        for c in &cycles {
            assert_eq!(c % 2, 0, "snapshot off the clock grid");
        }
    }
}
