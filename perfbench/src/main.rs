//! The repository benchmark: end-to-end and per-layer performance of
//! the G-Scalar simulator, its parallel epoch engine and its job server.
//!
//! ```sh
//! python3 perfbench/run.py --workload sim-full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this package and stamps each result with host facts;
//! the binary itself takes the same arguments. Workloads:
//!
//! * `sim-full` — the 17 Table 2 kernels at `Scale::Full` on
//!   `Arch::GScalar`, one `Runner::run` at a time on the serial engine,
//!   in whole passes over a seeded kernel order.
//! * `sim-full-2t` — the same passes on the parallel epoch engine with
//!   two executor threads.
//! * `serve-mixed` — an in-process `JobServer` on loopback, one sweep
//!   thread, two closed-loop HTTP clients sending seeded test-scale grid
//!   submissions: resubmits (resume), `fresh` resubmits (cache reads)
//!   and new-budget submissions (cache misses that simulate and write).
//!
//! Every workload reports every end-to-end metric. The simulation
//! workloads end with a short fixed serve session so the serve
//! latencies exist there too; `serve-mixed` takes its simulation rate
//! and compression-ratio error from the grids its misses simulate.
//!
//! With `--trace 0` the run is uninstrumented and the last stdout line
//! carries the end-to-end metrics. With `--trace 1` the workload runs
//! once plain and once with `gscalar-hostprof` on, the benchmark's own
//! spans are recorded around every layer call and written to
//! `.bench_out/`, and the last line carries the per-layer metrics.
//!
//! `perfbench pins` re-simulates the suite and prints a fresh
//! `pins.txt` (see [`pins`]).

mod pins;
mod probes;
mod serve;
mod sim;
mod spans;

use std::process::ExitCode;

use gscalar_metrics::json::Json;
use gscalar_workloads::ABBRS;

use spans::Spans;

/// Paper value of the byte-wise register compression ratio (§5.3).
pub const PAPER_RF_RATIO: f64 = 2.17;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Where spans and serve state go, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("rf_ratio_err", "frac"),
    ("serve_hit_p50_ms", "ms"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_tail_ms", "ms"),
    ("serve_grids_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not reach the layer).
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("workloads.build_s".into(), "s")];
    v.push(("sim.run_s".into(), "s"));
    for abbr in ABBRS {
        v.push((format!("sim.kernel_s.{abbr}"), "s"));
    }
    for name in [
        "sim.cycles",
        "sim.warp_instrs",
        "sim.slots.issued",
        "sim.slots.stalled",
        "sim.slots.skipped",
        "sim.mem.accesses",
        "sim.rf.reads",
        "sim.rf.writes",
    ] {
        v.push((name.into(), "count"));
    }
    for name in ["sim.mem.l1_hit_frac", "sim.mem.mshr_merge_frac"] {
        v.push((name.into(), "frac"));
    }
    for name in ["sim.rf.ratio", "sim.rf.bdi_ratio"] {
        v.push((name.into(), "ratio"));
    }
    for name in [
        "compress.encode_ns",
        "compress.compress_ns",
        "compress.decompress_ns",
        "compress.bdi_ns",
    ] {
        v.push((name.into(), "ns"));
    }
    v.push(("compress.share_est".into(), "frac"));
    v.push(("memsys.access_ns".into(), "ns"));
    v.push(("memsys.replay_accesses".into(), "count"));
    v.push(("power.chip_power_us".into(), "us"));
    v.push(("pool.epochs_per_cycle".into(), "ratio"));
    v.push(("pool.steals".into(), "count"));
    for name in ["sweep.executed", "sweep.cached", "sweep.resumed"] {
        v.push((name.into(), "count"));
    }
    v.push(("sweep.job_s".into(), "s"));
    for name in ["serve.submit_ms", "serve.status_ms", "serve.manifest_ms"] {
        v.push((name.into(), "ms"));
    }
    v.push(("serve.refused".into(), "count"));
    v.push(("serve.cache_hit_frac".into(), "frac"));
    for name in [
        "live.first_record_ms",
        "live.stream_end_ms",
        "metrics.manifest_parse_ms",
    ] {
        v.push((name.into(), "ms"));
    }
    for p in gscalar_hostprof::Phase::ALL {
        v.push((format!("trace.phase.{}_s", p.name()), "s"));
    }
    v.push(("trace.scheduler_ns_per_slot".into(), "ns"));
    v.push(("trace.overhead".into(), "ratio"));
    v.push(("trace.coverage".into(), "frac"));
    v
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured: operation counts, metrics by name, and
/// free-form lines printed ahead of the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one attempted operation, recording its failure if any.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it:
/// `(value, percentile, samples)`. With ten samples or fewer it is the
/// maximum.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let k = n.saturating_sub(11);
    let k = if n > 10 { k } else { n - 1 };
    (s[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: perfbench --workload sim-full|sim-full-2t|serve-mixed \
                     --seed N --seconds S --trace 0|1\n       perfbench pins";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("pins") {
        print!("{}", sim::regenerate_pins());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let spans = Spans::new(args.trace);
    let outcome = match args.workload.as_str() {
        "sim-full" => sim::run(&args, 1, &spans),
        "sim-full-2t" => sim::run(&args, 2, &spans),
        "serve-mixed" => serve::run(&args, &spans),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = format!("{OUT_DIR}/spans-{}-seed{}.ndjson", args.workload, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, spans.to_ndjson()))
        {
            eprintln!("perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {path}");
    }
    print_result(&args, &outcome);
    ExitCode::SUCCESS
}

fn print_result(args: &Args, o: &Outcome) {
    for line in &o.notes {
        println!("{line}");
    }
    for f in o.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    let failed = o.failures.len() as u64;
    let attempted = o.attempted.max(1);
    println!(
        "failed_frac = {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let value = match o.get(&name) {
            Some(v) if v.is_finite() => v,
            _ if args.trace => 0.0,
            other => panic!("end-to-end metric {name} was not measured: {other:?}"),
        };
        println!("{name} = {value} {unit}");
        metrics.push((
            name,
            Json::obj([
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let result = Json::obj([
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::obj(metrics)),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(n, 100);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-9, "{pct}");
        assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 3.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// The metrics this binary prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units and order.
    #[test]
    fn catalogs_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |cat: Vec<(String, &str)>| -> Vec<(String, String)> {
            cat.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(declared("end_to_end"), owned(e2e));
        assert_eq!(declared("per_layer"), owned(per_layer_catalog()));
    }
}
