//! The `serve-mixed` workload: an in-process `JobServer` on loopback,
//! driven over HTTP by two closed-loop clients.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gscalar_bench::experiments;
use gscalar_core::rng::Rng;
use gscalar_core::Runner;
use gscalar_metrics::json::Json;
use gscalar_metrics::Manifest;
use gscalar_serve::{GridBuilder, JobServer, ServeConfig, SubmitSpec};
use gscalar_workloads::Scale;

use crate::sim::{self, shuffled};
use crate::spans::Spans;
use crate::{median, peak_rss_mb, probes, tail, Args, Outcome, OUT_DIR, SETUP_REPEATS};

/// Grids completed during priming; the poller resubmits these.
const BASE_GRIDS: [&str; 2] = ["fig12_rf_power", "probe"];
/// The grid the researcher submits under a new budget. It carries the
/// per-kernel compression ratios, so misses also yield `rf_ratio_err`.
const MISS_GRID: &str = "fig12_rf_power";
/// First budget a miss uses; each miss takes the next one. Far above
/// any test-scale grid's cycle count, so no miss ever trips it.
const MISS_BUDGET: u64 = 1_000_000_000;
/// Researcher blocks in each traced session.
const TRACED_BLOCKS: usize = 3;
/// Status polls after the end of a job's stream, and their interval.
const STATUS_POLLS: u32 = 1000;
const STATUS_POLL: Duration = Duration::from_millis(2);
/// Socket timeout for every exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a session runs.
#[derive(Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Blocks(usize),
}

/// How a submission is expected to be served.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// A plain resubmit of a finished grid: every unit resumed.
    Resume,
    /// A `fresh` resubmit: every unit read from the result cache.
    Fresh,
    /// A grid under a new budget: every unit simulated and cached.
    Miss,
}

/// One submission: how it should be served, the grid and its budget.
#[derive(Clone, Copy, Debug)]
struct Req {
    kind: Kind,
    grid: &'static str,
    budget: u64,
}

/// A researcher block: the service flow EXPERIMENTS.md documents
/// ("Run it as a service"): submit a grid, which simulates, then
/// submit it again (resume) and with `fresh` (cache), the two
/// resubmits in seeded order. `budget` makes the grid new each block.
fn researcher_block(rng: &mut Rng, budget: u64) -> Vec<Req> {
    let req = |kind| Req {
        kind,
        grid: MISS_GRID,
        budget,
    };
    let mut hits = [req(Kind::Resume), req(Kind::Fresh)];
    if rng.next_u32() & 1 == 1 {
        hits.swap(0, 1);
    }
    let mut block = vec![req(Kind::Miss)];
    block.extend(hits);
    block
}

/// A poller block: each primed grid resubmitted plain and `fresh`, in
/// seeded order.
fn poller_block(rng: &mut Rng) -> Vec<Req> {
    let reqs: Vec<Req> = BASE_GRIDS
        .iter()
        .flat_map(|&grid| {
            [Kind::Resume, Kind::Fresh].map(|kind| Req {
                kind,
                grid,
                budget: 0,
            })
        })
        .collect();
    shuffled(rng, reqs.len())
        .into_iter()
        .map(|i| reqs[i])
        .collect()
}

/// Tells the poller to stop once the researcher ends, even by a panic.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One completed and checked submission.
struct Op {
    kind: Kind,
    done: Done,
    manifest: Manifest,
    parse_s: f64,
    /// `(simulated cycles, wall seconds)` of each unit a miss executed.
    units: Vec<(u64, f64)>,
}

/// Everything one session measured.
pub struct Session {
    ops: Vec<Op>,
    failures: Vec<String>,
    refused: u64,
    wall_s: f64,
}

impl Session {
    /// Simulated cycles of the grids the misses ran.
    fn miss_cycles(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == Kind::Miss)
            .map(|o| o.manifest.host.sim_cycles)
            .sum()
    }

    fn latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| pick(o.kind))
            .map(|o| o.done.latency_s)
            .collect()
    }

    /// The end-to-end serve metrics and the operation counts. A session
    /// in which nothing completed still reports, with every attempt
    /// counted as failed.
    fn report_end_to_end(&self, out: &mut Outcome) {
        out.attempted += (self.ops.len() + self.failures.len()) as u64;
        out.failures.extend(self.failures.iter().cloned());
        let ms = |v: Vec<f64>| median(&v) * 1e3;
        let share = |kind| {
            let n = self.ops.iter().filter(|o| o.kind == kind).count();
            100.0 * n as f64 / self.ops.len().max(1) as f64
        };
        let all = self.latencies(|_| true);
        let (tail_s, pct, n) = tail(&all);
        out.set("serve_hit_p50_ms", ms(self.latencies(|k| k != Kind::Miss)));
        out.set("serve_miss_p50_ms", ms(self.latencies(|k| k == Kind::Miss)));
        out.set("serve_tail_ms", tail_s * 1e3);
        out.set("serve_grids_per_s", self.ops.len() as f64 / self.wall_s);
        out.notes.push(format!(
            "serve: {} submissions in {:.2}s: {:.1}% miss, {:.1}% resume, {:.1}% fresh; \
             tail = p{pct:.1} of {n} submissions",
            self.ops.len(),
            self.wall_s,
            share(Kind::Miss),
            share(Kind::Resume),
            share(Kind::Fresh),
        ));
    }

    /// Simulated cycles per host second over every unit the session's
    /// misses executed, as the sweep engine timed them; 0 when no miss
    /// completed.
    fn sim_rate(&self) -> f64 {
        let units = self.ops.iter().flat_map(|o| &o.units);
        let (cycles, secs) = units.fold((0, 0.0), |(c, t), u| (c + u.0, t + u.1));
        if secs > 0.0 {
            cycles as f64 / secs
        } else {
            0.0
        }
    }
}

/// The server under test plus what the clients check against.
pub struct ServeBench {
    server: JobServer,
    root: PathBuf,
    next_budget: AtomicU64,
    next_req: AtomicU64,
    /// First completed manifest per grid digest.
    first: Mutex<BTreeMap<String, String>>,
    /// Metrics of the primed miss grid at budget 0.
    miss_metrics: BTreeMap<String, f64>,
    /// Median time to build the test-scale suite.
    pub build_s: f64,
    /// Median time to build the suite and start the server (bind plus
    /// cache warm-scan).
    pub setup_s: f64,
}

/// Resolves experiment names against the bench registry, as the
/// `serve` binary does.
fn registry_builder() -> GridBuilder {
    Arc::new(|spec: &SubmitSpec| {
        let scale = if spec.scale == "full" {
            Scale::Full
        } else {
            Scale::Test
        };
        let mut specs = Vec::new();
        for name in &spec.experiments {
            let exp =
                experiments::by_name(name).ok_or_else(|| format!("unknown experiment {name}"))?;
            specs.extend((exp.grid)(scale));
        }
        if spec.budget > 0 {
            for s in &mut specs {
                s.cycle_budget = spec.budget;
            }
        }
        Ok(experiments::attach_cache_keys(specs, scale))
    })
}

fn start_server(root: &Path) -> Result<JobServer, String> {
    let cfg = ServeConfig {
        root: root.to_path_buf(),
        threads: 1,
        ..ServeConfig::default()
    };
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
    JobServer::start(cfg, addr, registry_builder()).map_err(|e| format!("serve bind: {e}"))
}

impl ServeBench {
    /// Primes a fresh state root with the base grids, then starts the
    /// server `SETUP_REPEATS` times (suite build + bind + warm scan)
    /// and keeps the last one.
    pub fn start(spans: &Spans) -> Result<ServeBench, String> {
        let root = PathBuf::from(format!("{OUT_DIR}/serve-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut first = BTreeMap::new();
        let mut miss_metrics = BTreeMap::new();
        {
            let server = start_server(&root)?;
            for grid in BASE_GRIDS {
                let spec = submit_spec("prime", grid, 0, Kind::Miss);
                let done = exchange(server.addr(), &spec, (0, 0), spans)?;
                if done.executed != done.units {
                    return Err(format!("priming {grid}: {}", done.status));
                }
                if grid == MISS_GRID {
                    miss_metrics = Manifest::from_json(&done.manifest)?.metrics;
                }
                first.insert(done.digest, done.manifest);
            }
        }
        let (mut builds, mut setups) = (Vec::new(), Vec::new());
        let mut server = None;
        for _ in 0..SETUP_REPEATS {
            drop(server.take());
            let ((started, build_s), setup_s) = spans.time("serve.setup", 0, 0, |setup| {
                let (_, build_s) = spans.time("workloads.suite", setup, 0, |_| {
                    gscalar_workloads::suite(Scale::Test)
                });
                (start_server(&root), build_s)
            });
            server = Some(started?);
            builds.push(build_s);
            setups.push(setup_s);
        }
        Ok(ServeBench {
            server: server.expect("at least one setup repeat"),
            root,
            next_budget: AtomicU64::new(MISS_BUDGET),
            next_req: AtomicU64::new(1),
            first: Mutex::new(first),
            miss_metrics,
            build_s: median(&builds),
            setup_s: median(&setups),
        })
    }

    /// Runs the two closed-loop clients: the researcher repeats the
    /// documented submit / resubmit / `fresh` flow on a new grid each
    /// block until `limit`; the poller resubmits the primed grids,
    /// plain and `fresh`, until the researcher stops. Only the
    /// researcher misses, so a miss never queues behind another miss.
    pub fn session(&self, seed: u64, limit: Limit, spans: &Spans) -> Session {
        let start = Instant::now();
        let stop = AtomicBool::new(false);
        let results: Vec<Vec<Result<Op, String>>> = std::thread::scope(|scope| {
            let researcher = scope.spawn(|| {
                let _stop = StopOnDrop(&stop);
                let mut rng = Rng::seed_from_u64(seed);
                let mut ops = Vec::new();
                let mut blocks = 0;
                while match limit {
                    Limit::Seconds(s) => start.elapsed().as_secs_f64() < s,
                    Limit::Blocks(n) => blocks < n,
                } {
                    let budget = self.next_budget.fetch_add(1, Ordering::SeqCst);
                    for req in researcher_block(&mut rng, budget) {
                        ops.push(self.submit("researcher", req, spans));
                    }
                    blocks += 1;
                }
                ops
            });
            let poller = scope.spawn(|| {
                let mut rng = Rng::seed_from_u64(!seed);
                let mut ops = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    for req in poller_block(&mut rng) {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        ops.push(self.submit("poller", req, spans));
                    }
                }
                ops
            });
            [researcher, poller]
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut session = Session {
            ops: Vec::new(),
            failures: Vec::new(),
            refused: 0,
            wall_s,
        };
        for r in results.into_iter().flatten() {
            match r {
                Ok(op) => session.ops.push(op),
                Err(e) => {
                    if e.starts_with("refused") {
                        session.refused += 1;
                    }
                    session.failures.push(e);
                }
            }
        }
        session
    }

    /// Sends one submission, follows it to the end of its stream, and
    /// checks its status and manifest.
    fn submit(&self, client: &str, r: Req, spans: &Spans) -> Result<Op, String> {
        let spec = submit_spec(client, r.grid, r.budget, r.kind);
        let req = self.next_req.fetch_add(1, Ordering::SeqCst);
        let (checked, _) = spans.time("serve.submission", 0, req, |root| {
            let done = exchange(self.server.addr(), &spec, (req, root), spans)?;
            self.check(r.kind, &done, (req, root), spans)
                .map(|(manifest, parse_s)| (done, manifest, parse_s))
        });
        let (done, manifest, parse_s) = checked?;
        // Read the unit timings now: a later `fresh` resubmit of the
        // grid discards its output directory.
        let units = if r.kind == Kind::Miss {
            self.executed_units(&done.digest)?
        } else {
            Vec::new()
        };
        Ok(Op {
            kind: r.kind,
            done,
            manifest,
            parse_s,
            units,
        })
    }

    /// Checks a completed submission: every unit served the way its
    /// kind expects, and the manifest equal to the grid's first
    /// completion. A miss is its grid's first completion; its metrics
    /// must equal the primed grid's. Returns the parsed manifest and
    /// the seconds parsing took.
    fn check(
        &self,
        kind: Kind,
        done: &Done,
        (req, parent): (u64, u64),
        spans: &Spans,
    ) -> Result<(Manifest, f64), String> {
        let (served, expected) = match kind {
            Kind::Resume => (done.resumed, "resumed"),
            Kind::Fresh => (done.cached, "cached"),
            Kind::Miss => (done.executed, "executed"),
        };
        if served != done.units || done.units == 0 {
            return Err(format!(
                "{kind:?}: expected every unit {expected}: {}",
                done.status
            ));
        }
        let (manifest, parse_s) = spans.time("metrics.Manifest::from_json", parent, req, |_| {
            Manifest::from_json(&done.manifest)
        });
        let manifest = manifest.map_err(|e| format!("{kind:?}: bad manifest: {e}"))?;
        let mut first = self.first.lock().expect("manifest table poisoned");
        if kind == Kind::Miss {
            if manifest.metrics != self.miss_metrics {
                return Err(format!(
                    "miss grid {} differs from the primed grid",
                    done.digest
                ));
            }
            first
                .entry(done.digest.clone())
                .or_insert_with(|| done.manifest.clone());
        }
        if first.get(&done.digest) != Some(&done.manifest) {
            return Err(format!("{kind:?}: grid {} manifest changed", done.digest));
        }
        Ok((manifest, parse_s))
    }

    /// Adds a session's serve metrics and its operations to `out`.
    pub fn report(&self, s: &Session, out: &mut Outcome) {
        s.report_end_to_end(out);
        let ms = |v: Vec<f64>| median(&v) * 1e3;
        let field = |f: fn(&Op) -> f64| s.ops.iter().map(f).collect::<Vec<f64>>();
        out.set("serve.submit_ms", ms(field(|o| o.done.submit_s)));
        out.set("serve.status_ms", ms(field(|o| o.done.status_s)));
        out.set("serve.manifest_ms", ms(field(|o| o.done.manifest_s)));
        out.set("serve.refused", s.refused as f64);
        out.set("live.first_record_ms", ms(field(|o| o.done.first_record_s)));
        out.set("live.stream_end_ms", ms(field(|o| o.done.stream_s)));
        out.set("metrics.manifest_parse_ms", ms(field(|o| o.parse_s)));
        out.set(
            "sweep.executed",
            s.ops.iter().map(|o| o.done.executed).sum::<u64>() as f64,
        );
        out.set(
            "sweep.cached",
            s.ops.iter().map(|o| o.done.cached).sum::<u64>() as f64,
        );
        out.set(
            "sweep.resumed",
            s.ops.iter().map(|o| o.done.resumed).sum::<u64>() as f64,
        );
        let secs: Vec<f64> = s.ops.iter().flat_map(|o| &o.units).map(|u| u.1).collect();
        out.set("sweep.job_s", median(&secs));
        if let Ok((200, body)) = http(self.server.addr(), "GET", "/stats", "") {
            let cache = Json::parse(&body)
                .ok()
                .and_then(|j| j.get("cache").cloned());
            let count = |k: &str| cache.as_ref().and_then(|c| c.get(k)).and_then(Json::as_f64);
            if let (Some(h), Some(m)) = (count("hits"), count("misses")) {
                out.set("serve.cache_hit_frac", h / (h + m).max(1.0));
            }
        }
    }
}

impl ServeBench {
    /// `(simulated cycles, wall seconds)` of every unit of a miss grid,
    /// from the sweep engine's own `.host.json` side channels.
    fn executed_units(&self, digest: &str) -> Result<Vec<(u64, f64)>, String> {
        let dir = self
            .root
            .join("grids")
            .join(digest)
            .join("jobs")
            .join(MISS_GRID);
        let mut units = Vec::new();
        for e in std::fs::read_dir(&dir)
            .map_err(|e| format!("miss grid {digest}: {e}"))?
            .flatten()
        {
            if e.file_name().to_string_lossy().ends_with(".host.json") {
                let m = Manifest::load(&e.path())?;
                units.push((m.host.sim_cycles, m.host.wall_time_s));
            }
        }
        if units.is_empty() {
            return Err(format!("miss grid {digest}: no unit timings"));
        }
        Ok(units)
    }
}

impl Drop for ServeBench {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn submit_spec(client: &str, grid: &str, budget: u64, kind: Kind) -> SubmitSpec {
    SubmitSpec {
        client: client.to_string(),
        experiments: vec![grid.to_string()],
        scale: "test".to_string(),
        budget,
        fresh: kind == Kind::Fresh,
    }
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// A submission followed to completion.
struct Done {
    digest: String,
    status: String,
    manifest: String,
    units: u64,
    executed: u64,
    cached: u64,
    resumed: u64,
    latency_s: f64,
    submit_s: f64,
    first_record_s: f64,
    stream_s: f64,
    status_s: f64,
    manifest_s: f64,
}

/// Submits `spec`, reads its SSE stream to `event: end`, then fetches
/// its status and manifest. The latency is submit to end of stream.
fn exchange(
    addr: SocketAddr,
    spec: &SubmitSpec,
    (req, parent): (u64, u64),
    spans: &Spans,
) -> Result<Done, String> {
    let start = Instant::now();
    let (posted, submit_s) = spans.time("serve.POST /jobs", parent, req, |_| {
        http(addr, "POST", "/jobs", &spec.to_json())
    });
    let (code, body) = posted?;
    if code == 429 || code == 503 {
        return Err(format!("refused with {code}: {}", body.trim()));
    }
    if code != 200 {
        return Err(format!("submit returned {code}: {}", body.trim()));
    }
    let reply = Json::parse(&body).map_err(|e| format!("submit reply: {e}"))?;
    let id = reply
        .get("job")
        .and_then(Json::as_f64)
        .ok_or("submit reply has no job id")? as u64;
    let digest = reply
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let (streamed, stream_s) = spans.time("live.GET /jobs/<id>/stream", parent, req, |_| {
        follow_stream(addr, id, start)
    });
    let first_record_s = streamed?;
    let latency_s = start.elapsed().as_secs_f64();
    // The stream can end a moment before the job's status turns
    // terminal, so poll the status as the `serve submit` client does.
    let mut polls = 0;
    let (status, status_s, doc) = loop {
        let (reply, secs) = spans.time("serve.GET /jobs/<id>", parent, req, |_| {
            http(addr, "GET", &format!("/jobs/{id}"), "")
        });
        let (_, status) = reply?;
        let doc = Json::parse(&status).map_err(|e| format!("status reply: {e}"))?;
        match doc.get("phase").and_then(Json::as_str) {
            Some("queued" | "running") if polls < STATUS_POLLS => {
                polls += 1;
                std::thread::sleep(STATUS_POLL);
            }
            Some("done") => break (status, secs, doc),
            _ => return Err(format!("job {id} did not complete: {}", status.trim())),
        }
    };
    let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let (manifest, manifest_s) = spans.time("serve.GET /jobs/<id>/manifest", parent, req, |_| {
        http(addr, "GET", &format!("/jobs/{id}/manifest"), "")
    });
    let (code, manifest) = manifest?;
    if code != 200 {
        return Err(format!("job {id} manifest returned {code}"));
    }
    Ok(Done {
        digest,
        manifest,
        units: count("units"),
        executed: count("executed"),
        cached: count("cached"),
        resumed: count("resumed"),
        status: status.trim().to_string(),
        latency_s,
        submit_s,
        first_record_s,
        stream_s,
        status_s,
        manifest_s,
    })
}

/// Reads a job's SSE stream until `event: end`; returns the seconds
/// from `start` to the first data record.
fn follow_stream(addr: SocketAddr, id: u64, start: Instant) -> Result<f64, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "GET /jobs/{id}/stream HTTP/1.1\r\nHost: {addr}\r\n\r\n"
    )
    .map_err(|e| format!("stream {id}: {e}"))?;
    let mut first = None;
    for line in BufReader::new(conn).lines() {
        let line = line.map_err(|e| format!("stream {id}: {e}"))?;
        if first.is_none() && line.starts_with("data:") {
            first = Some(start.elapsed().as_secs_f64());
        }
        if line == "event: end" {
            return first.ok_or_else(|| format!("stream {id} ended without records"));
        }
    }
    Err(format!("stream {id} closed before its end event"))
}

pub fn run(args: &Args, spans: &Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bench = ServeBench::start(spans)?;
    out.set("setup_s", bench.setup_s);
    out.set("workloads.build_s", bench.build_s);
    if args.trace {
        let plain = bench.session(args.seed, Limit::Blocks(TRACED_BLOCKS), spans);
        let (profiled, snap) = sim::with_hostprof(|| {
            bench.session(args.seed, Limit::Blocks(TRACED_BLOCKS), &Spans::new(false))
        });
        // Per-layer serve figures come from the plain session.
        bench.report(&profiled, &mut out);
        bench.report(&plain, &mut out);
        sim::hostprof_metrics(
            plain.wall_s,
            profiled.wall_s,
            &snap,
            profiled.miss_cycles(),
            &mut out,
        );
        // The simulation layer as the misses exercise it: the test-scale
        // suite, run directly.
        let suite = gscalar_workloads::suite(Scale::Test);
        let runner = Runner::new(sim::config(1));
        let order: Vec<usize> = (0..suite.len()).collect();
        let pass = sim::run_pass(&runner, &suite, &order, None, spans, &mut out);
        sim::sim_layer_metrics(&pass, &mut out);
        sim::power_probe(&pass, &runner, spans, &mut out);
        probes::compressor(args.seed, &suite, spans, &mut out);
        probes::memsys(&suite, "MV", spans, &mut out);
    } else {
        let session = bench.session(args.seed, Limit::Seconds(args.seconds), spans);
        bench.report(&session, &mut out);
        out.set("sim_cycles_per_s", session.sim_rate());
        let ratios: Vec<f64> = bench
            .miss_metrics
            .iter()
            .filter(|(k, _)| k.ends_with("/ratio"))
            .map(|(_, &v)| v)
            .collect();
        out.set("rf_ratio_err", sim::rf_ratio_err(&ratios));
    }
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session whose every submission was refused still yields a
    /// finite value for each end-to-end metric it reports, and counts
    /// every attempt as failed.
    #[test]
    fn session_without_a_completed_miss_still_reports() {
        let s = Session {
            ops: Vec::new(),
            failures: vec!["refused with 503: draining".into(); 3],
            refused: 3,
            wall_s: 1.5,
        };
        let mut out = Outcome::default();
        s.report_end_to_end(&mut out);
        out.set("sim_cycles_per_s", s.sim_rate());
        assert_eq!(out.attempted, 3);
        assert_eq!(out.failures.len(), 3);
        assert_eq!(out.metrics.len(), 5);
        for (name, value) in &out.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    /// The researcher follows the documented flow: a miss first, then
    /// one resume and one `fresh` resubmit of the same grid.
    #[test]
    fn researcher_block_is_submit_then_both_resubmits() {
        let mut rng = Rng::seed_from_u64(7);
        for budget in [5, 6, 7, 8] {
            let block = researcher_block(&mut rng, budget);
            assert_eq!(block.len(), 3);
            assert_eq!(block[0].kind, Kind::Miss);
            let mut rest: Vec<String> =
                block[1..].iter().map(|r| format!("{:?}", r.kind)).collect();
            rest.sort();
            assert_eq!(rest, ["Fresh", "Resume"]);
            assert!(block
                .iter()
                .all(|r| r.budget == budget && r.grid == MISS_GRID));
        }
    }
}
