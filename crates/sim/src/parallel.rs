//! The in-process parallel execution engine: shards the per-cycle SM
//! loop of [`crate::Gpu::run`] across a small pool of persistent
//! worker threads while producing **byte-identical** results to the
//! serial engine at any thread count.
//!
//! # Determinism contract
//!
//! One simulated cycle is one *epoch*. Within an epoch every SM runs
//! [`Sm::cycle_port`] independently against
//!
//! - a read-only snapshot of global memory as of the epoch start,
//!   overlaid with the SM's *own* buffered stores (byte-granular, so
//!   within one SM even overlapping unaligned accesses behave exactly
//!   as under the serial engine), and
//! - a private [`EpochBuffer`] that defers every shared
//!   [`MemSystem`] request and a private trace sink / profiler fork.
//!
//! At the epoch barrier the coordinator thread applies the buffered
//! effects **in (cycle, sm-id, issue-order) order** — exactly the
//! order the serial engine's `for sm in &mut sms` loop would have
//! produced them. Because the serial SM only touches the shared
//! hierarchy at dispatch time and nothing later in its own cycle reads
//! the outcome, replaying the deferred requests at the barrier
//! reproduces every L1/L2/DRAM contention decision, every stat, every
//! trace event (deferred `Mem`/`ExecSpan` events are spliced back at
//! their recorded sink positions), and every profile counter bit for
//! bit.
//!
//! The one *modeling* relaxation: a store issued by SM *i* becomes
//! visible to loads of SM *j* (*j* ≠ *i*) only at the next cycle,
//! whereas the serial loop exposes it to SMs *j* > *i* within the same
//! cycle. Same-cycle cross-SM communication is already meaningless
//! under the simulator's memory timing model (a load completes tens of
//! cycles after issue), no benchmark relies on it, and the equivalence
//! suite compares engines on every benchmark and on randomized
//! kernels.

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, RwLock};

use gscalar_hostprof as hostprof;
use gscalar_isa::{Kernel, LaunchConfig};
use gscalar_profile::Profiler;
use gscalar_trace::{Record, TraceEvent, TraceSink, Tracer};

use crate::config::{ArchConfig, GpuConfig};
use crate::gpu::{cta_coord, WATCHDOG_CYCLES};
use crate::memory::GlobalMemory;
use crate::memsys::MemSystem;
use crate::probes::{BudgetExceeded, Probes, RunOutput};
use crate::sm::{EpochBuffer, MemPort, Sm};

/// A per-epoch trace sink local to one SM; its position is spliced
/// against [`crate::sm::PendingMem::trace_pos`] at the barrier.
#[derive(Default)]
struct EpochSink {
    events: Vec<Record>,
}

impl TraceSink for EpochSink {
    fn record(&mut self, now: u64, ev: TraceEvent) {
        self.events.push(Record { now, ev });
    }

    fn position(&self) -> u64 {
        self.events.len() as u64
    }
}

/// One SM plus its private epoch state. Workers lock exactly one slot
/// at a time; the coordinator only touches slots between epochs.
struct SmSlot {
    sm: Sm,
    buf: EpochBuffer,
    sink: EpochSink,
    profiler: Profiler,
    /// CTAs completed this epoch (consumed at the barrier).
    completed: u64,
    /// This SM's contribution to the cycle's activity flag.
    active: bool,
}

/// Parallel counterpart of the serial loop in [`crate::Gpu::run_with`];
/// entered when the resolved [`GpuConfig::exec_threads`] exceeds 1.
///
/// # Panics
///
/// Panics under the same conditions as the serial engine (unfittable
/// CTA, watchdog); panics from worker threads propagate to the caller.
pub(crate) fn run_parallel(
    cfg: &GpuConfig,
    arch: &ArchConfig,
    threads: usize,
    kernel: &Kernel,
    launch: LaunchConfig,
    gmem: &mut GlobalMemory,
    probes: &mut Probes<'_>,
) -> Result<RunOutput, BudgetExceeded> {
    // Global memory moves into a lock for the duration of the run:
    // workers read the epoch-start snapshot, the coordinator applies
    // buffered stores at the barrier. Restored below even on unwind
    // (watchdog, worker panic) so the caller's memory matches what a
    // serial run would have left behind.
    let gmem_lock = RwLock::new(std::mem::take(gmem));
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_epochs_inner(cfg, arch, threads, kernel, launch, &gmem_lock, probes)
    }));
    *gmem = gmem_lock
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match result {
        Ok(run) => run,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[allow(clippy::too_many_lines)]
fn run_epochs_inner(
    cfg: &GpuConfig,
    arch: &ArchConfig,
    threads: usize,
    kernel: &Kernel,
    launch: LaunchConfig,
    gmem_lock: &RwLock<GlobalMemory>,
    probes: &mut Probes<'_>,
) -> Result<RunOutput, BudgetExceeded> {
    let mut memsys = MemSystem::new(cfg);
    let mut slots: Vec<Mutex<SmSlot>> = (0..cfg.num_sms)
        .map(|i| {
            Mutex::new(SmSlot {
                sm: Sm::new(i, cfg, arch, kernel.num_regs() as usize),
                buf: EpochBuffer::default(),
                sink: EpochSink::default(),
                profiler: probes.profiler.fork(),
                completed: 0,
                active: false,
            })
        })
        .collect();

    // CTA work list in linear order; initial fill round-robin over SMs
    // — identical to the serial engine.
    let total_ctas = launch.grid.count();
    let mut next_cta: u64 = 0;
    let mut ctas_done: u64 = 0;
    let cta_threads = launch.threads_per_cta() as usize;
    let warps_per_cta = cta_threads.div_ceil(cfg.warp_size);
    let fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
    let mut made_progress = true;
    while made_progress && next_cta < total_ctas {
        made_progress = false;
        for slot in &mut slots {
            if next_cta >= total_ctas {
                break;
            }
            let sm = &mut slot.get_mut().expect("no contention yet").sm;
            if sm.can_accept_cta(warps_per_cta, kernel.shared_mem_bytes()) {
                sm.launch_cta(
                    kernel,
                    cta_coord(next_cta, launch.grid),
                    launch.grid,
                    launch.block,
                );
                next_cta += 1;
                made_progress = true;
            }
        }
    }
    assert!(
        next_cta > 0,
        "CTA of {cta_threads} threads does not fit the configuration"
    );
    drop(fill_phase);

    let tracing = probes.tracer.is_on();
    let mut clock = probes.clock();
    let mut end_now: u64 = 0;
    let mut abort = None;

    {
        let slots = &slots;
        // Phase 1, run on workers and the coordinator alike: one SM's
        // cycle against its private buffers and the shared read-only
        // memory snapshot.
        let work = |i: usize, now: u64| {
            let mut guard = slots[i].lock().expect("slot lock");
            let slot = &mut *guard;
            let gmem = gmem_lock.read().expect("gmem read lock");
            let before = slot.sm.stats.pipe.issued + slot.sm.stats.pipe.oc_allocs;
            let mut local = if tracing {
                Tracer::new(&mut slot.sink)
            } else {
                Tracer::off()
            };
            let completed = slot.sm.cycle_port(
                now,
                kernel,
                &mut MemPort::Buffered {
                    gmem: &gmem,
                    buf: &mut slot.buf,
                },
                &mut local,
                &mut slot.profiler,
            );
            slot.completed = completed as u64;
            slot.active = completed > 0
                || slot.sm.stats.pipe.issued + slot.sm.stats.pipe.oc_allocs != before
                || slot.sm.collectors_pending();
        };
        // Phase 2, the barrier: apply every SM's buffered effects in
        // sm-id order, then advance the clock exactly as the serial
        // loop does.
        let next = |now: u64| -> Option<u64> {
            // The whole serial barrier section is Barrier host time;
            // nested guards (Memsys in resolve_pending, CtaLaunch,
            // IdleScan, Snapshot below) carve out their own shares.
            let barrier_phase = hostprof::phase(hostprof::Phase::Barrier);
            let mut any_activity = false;
            {
                let mut gmem = gmem_lock.write().expect("gmem write lock");
                for slot in slots {
                    let mut guard = slot.lock().expect("slot lock");
                    let SmSlot {
                        sm,
                        buf,
                        sink,
                        profiler,
                        completed,
                        active,
                    } = &mut *guard;
                    // Replay the epoch's local trace, pausing at each
                    // deferred memory request's recorded position so
                    // its Mem/ExecSpan events land exactly where the
                    // serial engine emitted them.
                    let events = std::mem::take(&mut sink.events);
                    let mut replayed = 0usize;
                    for p in buf.take_pending() {
                        while (replayed as u64) < p.trace_pos {
                            let r = &events[replayed];
                            probes.tracer.emit_with(r.now, || r.ev.clone());
                            replayed += 1;
                        }
                        sm.resolve_pending(p, &mut memsys, &mut probes.tracer, profiler);
                    }
                    for r in &events[replayed..] {
                        probes.tracer.emit_with(r.now, || r.ev.clone());
                    }
                    buf.apply_writes(&mut gmem);
                    if *completed > 0 {
                        ctas_done += *completed;
                        let _fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
                        while next_cta < total_ctas
                            && sm.can_accept_cta(warps_per_cta, kernel.shared_mem_bytes())
                        {
                            sm.launch_cta(
                                kernel,
                                cta_coord(next_cta, launch.grid),
                                launch.grid,
                                launch.block,
                            );
                            next_cta += 1;
                        }
                    }
                    any_activity |= *active;
                }
            }
            if ctas_done >= total_ctas {
                end_now = now + 1;
                return None;
            }
            let new_now = if any_activity {
                now + 1
            } else {
                // Idle: skip ahead to the next pipeline completion or
                // scoreboard release.
                let _idle_phase = hostprof::phase(hostprof::Phase::IdleScan);
                let next_t = slots
                    .iter()
                    .flat_map(|slot| {
                        let sm = &slot.lock().expect("slot lock").sm;
                        sm.next_event()
                            .into_iter()
                            .chain((sm.last_release() > now).then(|| sm.last_release()))
                            .collect::<Vec<_>>()
                    })
                    .min();
                let target = next_t.map_or(now + 1, |t| t.max(now + 1));
                // Mirror the serial engine: attribute the jumped-over
                // cycles so the per-scheduler CPI ledger stays exact.
                let skipped = target - (now + 1);
                if skipped > 0 {
                    for slot in slots {
                        let mut guard = slot.lock().expect("slot lock");
                        guard.sm.charge_idle_skip(skipped);
                    }
                }
                target
            };
            if let Some(boundary) = clock.due(new_now) {
                let slots: Vec<_> = slots.iter().map(|s| s.lock().expect("slot lock")).collect();
                if let Err(e) = probes.tick(boundary, slots.iter().map(|s| &s.sm.stats)) {
                    abort = Some(e);
                    return None;
                }
            }
            assert!(new_now < WATCHDOG_CYCLES, "simulation watchdog tripped");
            drop(barrier_phase);
            Some(new_now)
        };
        gscalar_pool::run_epochs(threads, cfg.num_sms, 0, work, next);
    }

    let mut per_sm = Vec::with_capacity(slots.len());
    for slot in slots {
        let slot = slot.into_inner().expect("workers have exited");
        per_sm.push(slot.sm.stats);
        probes.profiler.absorb(slot.profiler);
    }
    match abort {
        Some(e) => Err(e),
        None => Ok(probes.finish(end_now, per_sm)),
    }
}
