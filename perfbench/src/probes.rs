//! Replay probes for the compressor and the memory system, timed from
//! outside through their public entry points.

use std::hint::black_box;

use gscalar_compress::{bdi, bytewise, full_mask};
use gscalar_core::rng::Rng;
use gscalar_core::{Arch, Workload};
use gscalar_sim::memsys::MemSystem;
use gscalar_sim::stats::MemStats;
use gscalar_sim::Gpu;
use gscalar_trace::{TraceEvent, TraceSink, Tracer};
use gscalar_workloads::gen::bufs;

use crate::spans::Spans;
use crate::{sim, Outcome};

/// Lanes per corpus vector (one warp register).
const LANES: usize = 32;
/// Seeded synthetic vectors in the corpus.
const SYNTHETIC: usize = 4096;
/// Windows read from each workload input buffer.
const WINDOWS_PER_BUFFER: usize = 32;
/// Each timing loop covers the corpus this many times.
const REPS: usize = 20;

/// The compressor corpus: seeded vectors with the value structures the
/// byte-wise scheme distinguishes, plus 32-word windows of the
/// workloads' input images.
pub fn corpus(seed: u64, suite: &[Workload]) -> Vec<[u32; LANES]> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0DE_C0DE);
    let mut out = Vec::with_capacity(SYNTHETIC);
    for i in 0..SYNTHETIC {
        let base = rng.next_u32();
        // Lane values differ from the base in the low `span` bytes only
        // (span 0 = uniform, 4 = unrelated values).
        let span = i % 5;
        let keep = if span == 4 { 0 } else { u32::MAX << (8 * span) };
        let mut v = [0u32; LANES];
        for x in &mut v {
            *x = (base & keep) | (rng.next_u32() & !keep);
        }
        out.push(v);
    }
    for w in suite {
        for buf in [bufs::A, bufs::B, bufs::C, bufs::PARAMS] {
            for _ in 0..WINDOWS_PER_BUFFER {
                let word = rng.range_u64(0, 1 << 14);
                let mut v = [0u32; LANES];
                for (lane, x) in v.iter_mut().enumerate() {
                    *x = w.memory.read_u32(buf + 4 * (word + lane as u64));
                }
                if v.iter().any(|&x| x != 0) {
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Checks every corpus vector against `bytewise::reference` and times
/// encode, compress, decompress and BDI per vector.
pub fn compressor(seed: u64, suite: &[Workload], spans: &Spans, out: &mut Outcome) {
    let corpus = corpus(seed, suite);
    let mut rng = Rng::seed_from_u64(seed);
    let masks: Vec<u64> = corpus
        .iter()
        .map(|_| rng.next_u64() & full_mask(LANES) | 1)
        .collect();
    for (v, &mask) in corpus.iter().zip(&masks) {
        let c = bytewise::compress(v);
        let r = bytewise::reference::compress(v);
        let ok = (c.enc, c.base, c.deltas()) == (r.enc, r.base, &r.deltas[..])
            && bytewise::decompress(&c, LANES) == v.to_vec()
            && bytewise::encode(v, mask) == bytewise::reference::encode(v, mask);
        out.check(if ok {
            Ok(())
        } else {
            Err(format!(
                "compressor disagrees with the reference on {v:08x?}"
            ))
        });
    }
    let compressed: Vec<bytewise::Compressed> =
        corpus.iter().map(|v| bytewise::compress(v)).collect();
    let per_vector = |name: &str, f: &dyn Fn()| {
        let ((), secs) = spans.time(name, 0, 0, |_| {
            for _ in 0..REPS {
                f();
            }
        });
        secs * 1e9 / (REPS * corpus.len()) as f64
    };
    let full = full_mask(LANES);
    let encode = per_vector("compress.bytewise::encode", &|| {
        for v in &corpus {
            black_box(bytewise::encode(black_box(v), full));
        }
    });
    let compress = per_vector("compress.bytewise::compress", &|| {
        for v in &corpus {
            black_box(bytewise::compress(black_box(v)));
        }
    });
    let decompress = per_vector("compress.bytewise::decompress", &|| {
        for c in &compressed {
            black_box(bytewise::decompress(black_box(c), LANES));
        }
    });
    let bdi_ns = per_vector("compress.bdi::compress", &|| {
        for v in &corpus {
            black_box(bdi::compress(black_box(v)));
        }
    });
    out.set("compress.encode_ns", encode);
    out.set("compress.compress_ns", compress);
    out.set("compress.decompress_ns", decompress);
    out.set("compress.bdi_ns", bdi_ns);
    if let (Some(reads), Some(writes), Some(run_s)) = (
        out.get("sim.rf.reads"),
        out.get("sim.rf.writes"),
        out.get("sim.run_s"),
    ) {
        if run_s > 0.0 {
            out.set(
                "compress.share_est",
                (encode + bdi_ns) * 1e-9 * (reads + writes) / run_s,
            );
        }
    }
    out.notes
        .push(format!("compressor corpus: {} vectors", corpus.len()));
}

/// Keeps only the memory-transaction events of a trace.
#[derive(Default)]
struct MemEvents(Vec<(u64, usize, u64, bool)>);

impl TraceSink for MemEvents {
    fn record(&mut self, now: u64, ev: TraceEvent) {
        if let TraceEvent::Mem {
            sm, addr, store, ..
        } = ev
        {
            self.0.push((now, sm as usize, addr, store));
        }
    }
}

/// Records kernel `abbr`'s memory transactions on the serial engine,
/// replays them into a fresh `MemSystem`, and checks the replay's
/// access and L1-hit counts against the kernel's own `MemStats`.
pub fn memsys(suite: &[Workload], abbr: &str, spans: &Spans, out: &mut Outcome) {
    let Some(w) = suite.iter().find(|w| w.abbr == abbr) else {
        out.check(Err(format!("memsys probe: no kernel {abbr}")));
        return;
    };
    let cfg = sim::config(1);
    let mut events = MemEvents::default();
    let (stats, _) = spans.time("sim.Gpu::run_traced", 0, 0, |_| {
        let mut gpu = Gpu::new(cfg.clone(), Arch::GScalar.config());
        let mut mem = w.memory.clone();
        gpu.run_traced(
            &w.kernel,
            w.launch,
            &mut mem,
            &mut Tracer::new(&mut events),
            0,
        )
    });
    let mut replay = MemSystem::new(&cfg);
    let mut got = MemStats::default();
    let ((), secs) = spans.time("memsys.MemSystem::access", 0, 0, |_| {
        for &(now, sm, addr, store) in &events.0 {
            black_box(replay.access(sm, addr, store, now, &mut got));
        }
    });
    let n = events.0.len();
    out.check(
        if got.global_accesses == stats.mem.global_accesses && got.l1_hits == stats.mem.l1_hits {
            Ok(())
        } else {
            Err(format!(
                "memsys replay of {abbr}: {} accesses / {} L1 hits, kernel saw {} / {}",
                got.global_accesses, got.l1_hits, stats.mem.global_accesses, stats.mem.l1_hits
            ))
        },
    );
    out.set("memsys.replay_accesses", n as f64);
    out.set("memsys.access_ns", secs * 1e9 / n.max(1) as f64);
}
