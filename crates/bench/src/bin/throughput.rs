//! Host-throughput benchmark: how many simulated cycles per host
//! second does the simulator sustain, and where does the host time go?
//!
//! Runs a pinned workload mix — the 17 Table 2 kernels, each weighted
//! by its own simulated cycle count — once. Host-side profiling
//! ([`gscalar_hostprof`]) is always on here; the report is the
//! per-phase exclusive wall-time breakdown plus per-phase
//! `cycles_per_host_s`.
//!
//! ```sh
//! cargo run --release --bin throughput -- --scale test --json BENCH_throughput.json
//! ```
//!
//! Every metric in the manifest lives under `host/`, which `report
//! compare` treats as informational by default, so the committed
//! `BENCH_throughput.json` is mostly a trend record. One number is a
//! hard gate: `ci.sh` passes `--gate-min
//! host/serial/cycles_per_host_s=10`, failing CI when aggregate serial
//! throughput drops more than 10% below the committed file.
//!
//! With `--json <path>`, a Chrome trace-event host timeline is also
//! written next to the manifest as `<stem>.timeline.json` (open in
//! `chrome://tracing` or Perfetto).

use std::process::ExitCode;
use std::time::Instant;

use gscalar_bench::{experiments::CliOptions, Report};
use gscalar_core::{Arch, Runner, Workload};
use gscalar_hostprof as hostprof;
use gscalar_sim::GpuConfig;
use gscalar_workloads::suite;

/// One pass over the whole mix: runs every workload, records
/// per-workload and aggregate throughput under `host/serial/...`, and
/// returns `(total_cycles, wall_seconds)`.
fn run_mix(r: &mut Report, workloads: &[Workload], cfg: &GpuConfig) -> (u64, f64) {
    let runner = Runner::new(cfg.clone());
    let mut total_cycles = 0u64;
    let t0 = Instant::now();
    for w in workloads {
        // Harness catches everything the per-cycle probes inside the
        // simulator do not claim (setup, memory clone, stats merge).
        let _h = hostprof::phase(hostprof::Phase::Harness);
        let _t = hostprof::timeline_scope(&format!("serial:{}", w.abbr));
        let wt0 = Instant::now();
        let rep = runner.run(w, Arch::GScalar);
        let ws = wt0.elapsed().as_secs_f64();
        total_cycles += rep.stats.cycles;
        let cps = if ws > 0.0 {
            rep.stats.cycles as f64 / ws
        } else {
            0.0
        };
        r.metric(
            &format!("host/serial/{}/cycles", w.abbr),
            rep.stats.cycles as f64,
        );
        r.metric(&format!("host/serial/{}/wall_s", w.abbr), ws);
        r.metric(&format!("host/serial/{}/cycles_per_host_s", w.abbr), cps);
    }
    let wall = t0.elapsed().as_secs_f64();
    r.add_cycles(total_cycles);
    r.metric("host/serial/total_cycles", total_cycles as f64);
    r.metric("host/serial/wall_s", wall);
    r.metric(
        "host/serial/cycles_per_host_s",
        if wall > 0.0 {
            total_cycles as f64 / wall
        } else {
            0.0
        },
    );
    (total_cycles, wall)
}

/// Resolves the `--json [path]` argument the way [`Report::from_args`]
/// does, so the timeline file can land next to the manifest.
fn json_path_from_args(args: &[String]) -> Option<std::path::PathBuf> {
    let mut it = args.iter().peekable();
    let mut path = None;
    while let Some(a) = it.next() {
        if a == "--json" {
            path = Some(match it.peek() {
                Some(p) if !p.starts_with("--") => std::path::PathBuf::from(it.next().unwrap()),
                _ => std::path::PathBuf::from("results/throughput.json"),
            });
        }
    }
    path
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = CliOptions::parse(args.iter().cloned());
    let mut r = Report::new("throughput");
    hostprof::reset();
    hostprof::set_enabled(true);

    let cfg = GpuConfig::gtx480();
    let workloads = suite(opts.scale);
    r.title("host throughput: 17-kernel mix, cycle-weighted");
    r.config(&cfg);

    // Every phase runs on this one thread, so the exclusive phase
    // totals must sum (within slop) to the pass's wall time: that is
    // the instrumentation coverage.
    let (serial_cycles, serial_wall) = run_mix(&mut r, &workloads, &cfg);
    let snap = hostprof::snapshot();
    let coverage = if serial_wall > 0.0 {
        snap.total_ns() as f64 / (serial_wall * 1e9)
    } else {
        0.0
    };
    r.metric("host/serial/instrumented_fraction", coverage);

    for (i, p) in hostprof::Phase::ALL.iter().enumerate() {
        let ns = snap.phases[i].ns;
        if ns > 0 {
            r.metric(
                &format!("host/phase/{}/cycles_per_host_s", p.name()),
                serial_cycles as f64 / (ns as f64 / 1e9),
            );
        }
    }

    r.blank();
    r.note(&snap.render(serial_wall));
    r.note(&format!(
        "serial pass: {serial_cycles} cycles in {serial_wall:.3}s \
         ({:.0} cycles/host-s), instrumented coverage {:.1}%",
        if serial_wall > 0.0 {
            serial_cycles as f64 / serial_wall
        } else {
            0.0
        },
        100.0 * coverage
    ));
    if !(0.5..=1.5).contains(&coverage) {
        r.note(&format!(
            "WARNING: instrumented phases cover {:.1}% of serial wall \
             time — expected ~100%",
            100.0 * coverage
        ));
    }

    if let Some(json) = json_path_from_args(&args) {
        let tl_path = json.with_extension("timeline.json");
        if let Some(dir) = tl_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(&tl_path, hostprof::chrome_timeline_json()) {
            Ok(()) => eprintln!("wrote {}", tl_path.display()),
            Err(e) => {
                eprintln!("writing {}: {e}", tl_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // finish() exports the hostprof flatten (host/phase/*, host/pool/*)
    // into the manifest while profiling is still enabled.
    r.finish();
    hostprof::set_enabled(false);
    ExitCode::SUCCESS
}
