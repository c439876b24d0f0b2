//! The `serve-mix` workload: an in-process `hlstb serve` daemon with
//! the default configuration, loaded by two closed-loop clients over
//! the wire protocol.
//!
//! Each pass binds a fresh daemon (empty cache, journal in a scratch
//! directory of the working directory), lets both clients play their
//! seeded request sequences to the end — each waits for a request's
//! `result` frame before sending the next, as `serve-client` does —
//! then drains the daemon and loads its journal. See [`mix`] for what
//! the clients send. Every request carries the full budget ladder; see
//! the notes in `README.md` on why.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hlstb::cdfg::{benchmarks, Cdfg};
use hlstb::flow::{DftStrategy, RegisterPolicy, Scheduler};
use hlstb_dse::cache::CacheStats;
use hlstb_dse::spec::strategy_catalogue;
use hlstb_dse::{run_sweep, SweepOptions, SweepSpec};
use hlstb_serve::daemon::{Daemon, ServeConfig};
use hlstb_serve::proto::{
    encode_metrics_request, encode_ping_request, encode_result, encode_sweep_request, SweepRequest,
};
use hlstb_serve::{client, journal};
use hlstb_trace::json::{self, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Rollup};
use crate::stats::{self, Metrics};
use crate::sweeps::put_end_to_end;
use crate::{assert_untraced, counts, Ctx, Outcome};

const CLIENTS: usize = 2;
/// Register policies of the large requests: each (design, policy) pair
/// is one large request.
const LARGE_POLICIES: [RegisterPolicy; 3] = [
    RegisterPolicy::LeftEdge,
    RegisterPolicy::Dsatur,
    RegisterPolicy::IoMax,
];
/// Register policies and schedulers of the small requests, disjoint
/// from the large requests' so a small request computes its own
/// artifacts: each (design, policy, scheduler) triple is one small
/// request.
const SMALL_POLICIES: [RegisterPolicy; 3] = [
    RegisterPolicy::Boundary,
    RegisterPolicy::LoopAvoiding,
    RegisterPolicy::Avra,
];
const SMALL_SCHEDULERS: [Scheduler; 4] = [
    Scheduler::List,
    Scheduler::IoAware,
    Scheduler::Asap,
    Scheduler::ForceDirected(1),
];
/// Exact repeats per client, about a quarter of its small requests.
const REPEATS_PER_CLIENT: usize = 18;
const BUDGETS: [usize; 3] = [128, 512, 1024];
const WIDTHS: [u32; 2] = [4, 8];
/// Requests of at most this many points form the small class.
const SMALL_POINTS: usize = 6;
const MIN_PASSES: usize = 3;
/// Scratch root for the daemons' journals, inside the working
/// directory.
const SCRATCH: &str = ".bench_tmp";

/// One request of a client's sequence.
struct Req {
    id: String,
    spec: SweepSpec,
    line: String,
    points: usize,
}

fn request(spec: SweepSpec, id: String) -> Req {
    let line = encode_sweep_request(&SweepRequest {
        id: id.clone(),
        spec: spec.clone(),
        opts: SweepOptions::default(),
        deadline: None,
    });
    Req {
        id,
        points: spec.points().len(),
        spec,
        line,
    }
}

fn spec_of(
    design: &Cdfg,
    scheduler: Scheduler,
    policy: RegisterPolicy,
    strategies: Vec<DftStrategy>,
    widths: Vec<u32>,
) -> SweepSpec {
    let mut spec = SweepSpec::new(vec![design.clone()]);
    spec.schedulers = vec![scheduler];
    spec.policies = vec![policy];
    spec.strategies = strategies;
    spec.widths = widths;
    spec.patterns = BUDGETS.to_vec();
    spec
}

/// The seeded request sequence of every client.
///
/// Every seed sends the same population of work; the seed decides its
/// order and which requests repeat:
///
/// * one large request per (built-in design, large policy): all 11
///   strategies × widths {4, 8} × the budget ladder, 66 points;
/// * one small request per (built-in design, small policy, scheduler):
///   one or two strategies (alternately) × one width × the budget
///   ladder, 3 or 6 points, strategies and widths dealt round the
///   catalogue;
/// * per client, [`REPEATS_PER_CLIENT`] exact repeats of its earlier
///   small requests, served from the daemon's cache.
///
/// Large and small requests use disjoint policies, so each computes its
/// own artifacts whatever the order, and the clients split the requests
/// by index parity, so the two executors never race on one artifact
/// (the winner of such a race, and with it every latency percentile,
/// would change from run to run). Large requests are about 16% of a
/// pass, so `op_p90_ms` and `op_p95_ms` fall inside the large class and
/// `op_p50_ms` inside the small one rather than on a class boundary.
fn mix(seed: u64) -> Vec<Vec<Req>> {
    let designs = benchmarks::all();
    let catalogue = strategy_catalogue();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut large = Vec::new();
    let mut small = Vec::new();
    for design in &designs {
        for policy in LARGE_POLICIES {
            large.push(spec_of(
                design,
                Scheduler::List,
                policy,
                catalogue.clone(),
                WIDTHS.to_vec(),
            ));
        }
        for policy in SMALL_POLICIES {
            for scheduler in SMALL_SCHEDULERS {
                let k = small.len();
                let mut strategies = vec![catalogue[k % catalogue.len()]];
                if k % 2 == 1 {
                    strategies.push(catalogue[(k + 1) % catalogue.len()]);
                }
                let width = WIDTHS[k / catalogue.len() % WIDTHS.len()];
                small.push(spec_of(design, scheduler, policy, strategies, vec![width]));
            }
        }
    }
    (0..CLIENTS)
        .map(|c| {
            let mine = |v: &[SweepSpec]| -> Vec<SweepSpec> {
                v.iter().skip(c).step_by(CLIENTS).cloned().collect()
            };
            let mut specs = mine(&large);
            specs.extend(mine(&small));
            shuffle(&mut specs, &mut rng);
            for _ in 0..REPEATS_PER_CLIENT {
                // Repeat a small request at a later position.
                let smalls: Vec<usize> = (0..specs.len())
                    .filter(|&i| specs[i].strategies.len() < catalogue.len())
                    .collect();
                let original = smalls[rng.gen_range(0..smalls.len())];
                let at = rng.gen_range(original + 1..=specs.len());
                specs.insert(at, specs[original].clone());
            }
            specs
                .into_iter()
                .enumerate()
                .map(|(k, spec)| request(spec, format!("c{c}-r{k}")))
                .collect()
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// What one request looked like from its client.
struct Sample {
    client: usize,
    index: usize,
    latency_ms: f64,
    admit_ms: f64,
    /// The daemon's own run time for the request (`stats` frame).
    run_ms: f64,
    /// The `result` frame, verbatim.
    result: Option<String>,
}

/// The `type` of a daemon frame, read from its fixed prefix: a frame is
/// stamped before anything parses it, because parsing a large
/// request's `result` frame takes tens of milliseconds.
fn frame_type(line: &str) -> &str {
    line.strip_prefix("{\"type\": \"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// Plays one client's sequence on one connection, closed-loop.
fn play(stream: TcpStream, client: usize, reqs: &[Req], start: &Barrier) -> Vec<Sample> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
    let mut writer = stream;
    let mut samples = Vec::with_capacity(reqs.len());
    // A ping answered proves the daemon serves this connection, so the
    // clock starts on a connected client.
    let mut pong = String::new();
    writer
        .write_all(format!("{}\n", encode_ping_request()).as_bytes())
        .and_then(|()| reader.read_line(&mut pong).map(drop))
        .expect("ping the daemon");
    start.wait();
    for (index, req) in reqs.iter().enumerate() {
        let sent = Instant::now();
        let mut sample = Sample {
            client,
            index,
            latency_ms: f64::MAX,
            admit_ms: f64::MAX,
            run_ms: 0.0,
            result: None,
        };
        let mut wire = || -> Result<(), String> {
            writer
                .write_all(req.line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|e| format!("send: {e}"))?;
            loop {
                let mut line = String::new();
                if reader
                    .read_line(&mut line)
                    .map_err(|e| format!("read: {e}"))?
                    == 0
                {
                    return Err("connection closed".into());
                }
                let at = stats::ms(sent.elapsed());
                match frame_type(&line) {
                    "accepted" => sample.admit_ms = at,
                    "progress" => {}
                    "result" => {
                        sample.latency_ms = at;
                        line.truncate(line.trim_end().len());
                        sample.result = Some(line);
                    }
                    "stats" => {
                        let v = json::parse(line.trim_end())
                            .map_err(|e| format!("bad stats frame: {e}"))?;
                        sample.run_ms = v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
                        return Ok(());
                    }
                    "error" => return Err(format!("refused: {}", line.trim_end())),
                    other => return Err(format!("unexpected frame type `{other}`")),
                }
            }
        };
        if let Err(e) = wire() {
            eprintln!("perfbench: client {client} request {index}: {e}");
            sample.latency_ms = f64::MAX;
            sample.result = None;
        }
        samples.push(sample);
    }
    samples
}

/// Raises a daemon's stop flag when dropped, so a panic on the client
/// side drains the daemon instead of leaving the scope that joins it
/// waiting forever.
struct StopOnDrop(Arc<AtomicBool>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Longest a client waits for one frame before it counts the request
/// as failed.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon's `metrics` frame, parsed.
struct DaemonMetrics {
    shed: u64,
    cache: CacheStats,
    entries: u64,
    bytes: u64,
    evictions: u64,
}

fn daemon_metrics(addr: &str) -> Result<DaemonMetrics, String> {
    let frame = client::control(addr, &encode_metrics_request()).map_err(|e| e.to_string())?;
    let v = json::parse(&frame)?;
    let n = |v: Option<&Value>, k: &str| {
        v.and_then(|v| v.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    let occupancy = v.get("cache_occupancy");
    Ok(DaemonMetrics {
        shed: n(Some(&v), "shed"),
        cache: v
            .get("cache")
            .and_then(CacheStats::from_json)
            .ok_or("metrics frame without cache stats")?,
        entries: n(occupancy, "entries"),
        bytes: n(occupancy, "bytes"),
        evictions: n(occupancy, "evictions"),
    })
}

struct Pass {
    wall: Duration,
    samples: Vec<Sample>,
    metrics: DaemonMetrics,
    journal_bytes: u64,
    journal_load: Duration,
    journal_ok: bool,
    rollup: Option<Rollup>,
}

/// Binds a daemon with the default configuration and a journal in
/// `dir` (binding loads the journal).
fn bind(dir: &Path) -> Daemon {
    std::fs::create_dir_all(dir).expect("create the daemon's scratch directory");
    Daemon::bind(ServeConfig {
        journal: Some(dir.join("journal.jsonl")),
        ..ServeConfig::default()
    })
    .expect("bind the daemon on a loopback port")
}

fn pass(mix: &[Vec<Req>], dir: &Path, traced: bool) -> Pass {
    let daemon = bind(dir);
    let addr = daemon.local_addr().expect("daemon address").to_string();
    let stop = daemon.stop_handle();
    let streams: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| {
            let s = TcpStream::connect(&addr).expect("connect to the daemon");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s.set_read_timeout(Some(FRAME_TIMEOUT))
                .expect("set the client read timeout");
            s
        })
        .collect();
    let start = Barrier::new(CLIENTS + 1);
    let (wall, samples, metrics, rollup) = std::thread::scope(|scope| {
        let server = scope.spawn(move || daemon.run());
        let stop = StopOnDrop(stop);
        let clients: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, s)| {
                let start = &start;
                scope.spawn(move || play(s, c, &mix[c], start))
            })
            .collect();
        if traced {
            hlstb_trace::events::reset();
            hlstb_trace::events::set_enabled(true);
        } else {
            assert_untraced();
        }
        start.wait();
        let t0 = Instant::now();
        let samples: Vec<Sample> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed();
        let rollup = if traced {
            hlstb_trace::events::set_enabled(false);
            Some(Rollup::of(&hlstb_trace::events::drain()))
        } else {
            assert_untraced();
            None
        };
        let metrics = daemon_metrics(&addr).expect("metrics frame");
        drop(stop);
        server
            .join()
            .expect("daemon thread")
            .expect("daemon drains cleanly");
        (wall, samples, metrics, rollup)
    });
    let path = dir.join("journal.jsonl");
    let t = Instant::now();
    let state = journal::load(&path).expect("load the journal");
    let journal_load = t.elapsed();
    let journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let requests: usize = mix.iter().map(Vec::len).sum();
    let journal_ok = state.pending.is_empty() && state.completed == requests && state.skipped == 0;
    if !journal_ok {
        eprintln!(
            "perfbench: journal holds {} pending, {} completed, {} skipped records for {requests} requests",
            state.pending.len(),
            state.completed,
            state.skipped
        );
    }
    std::fs::remove_dir_all(dir).expect("remove the daemon's scratch directory");
    Pass {
        wall,
        samples,
        metrics,
        journal_bytes,
        journal_load,
        journal_ok,
        rollup,
    }
}

/// Points whose coverage a deep request reads wrong after a shallow
/// request of the same netlists primed the daemon's shared grading
/// cache. A probe of a known defect: it runs untimed on a daemon of its
/// own and is reported, never hidden by the mix.
fn stale_grading_probe() -> u64 {
    let mut spec = SweepSpec::new(
        ["diffeq", "ewf", "fir8", "dct_lite"]
            .iter()
            .map(|n| {
                benchmarks::all()
                    .into_iter()
                    .find(|d| d.name() == *n)
                    .expect("built-in design")
            })
            .collect(),
    );
    spec.strategies = vec![DftStrategy::FullScan];
    spec.widths = vec![8];
    let daemon = Daemon::bind(ServeConfig::default()).expect("bind the probe daemon");
    let addr = daemon.local_addr().expect("probe address").to_string();
    let stop = daemon.stop_handle();
    let deep = std::thread::scope(|scope| {
        let server = scope.spawn(move || daemon.run());
        let stop = StopOnDrop(stop);
        let ask = |id: &str, patterns: usize| {
            let mut s = spec.clone();
            s.patterns = vec![patterns];
            let req = SweepRequest {
                id: id.into(),
                spec: s,
                opts: SweepOptions::default(),
                deadline: None,
            };
            client::run_sweep(&addr, &req)
                .expect("probe request")
                .report
        };
        ask("shallow", 64);
        let deep = ask("deep", 1024);
        drop(stop);
        server
            .join()
            .expect("probe daemon thread")
            .expect("probe daemon drains");
        deep
    });
    spec.patterns = vec![1024];
    let want = run_sweep(&spec, &SweepOptions::default())
        .report
        .canonical_json();
    let coverage = |doc: &str| -> Vec<Option<f64>> {
        json::parse(doc)
            .ok()
            .and_then(|v| {
                v.get("points").and_then(Value::as_array).map(|ps| {
                    ps.iter()
                        .map(|p| p.get("coverage_percent").and_then(Value::as_f64))
                        .collect()
                })
            })
            .unwrap_or_default()
    };
    let stale = coverage(&deep)
        .iter()
        .zip(coverage(&want))
        .filter(|(a, b)| **a != *b)
        .count() as u64;
    if stale > 0 {
        eprintln!(
            "perfbench: known defect: {stale} of {} points of a 1024-pattern request read the coverage \
             of a 64-pattern grading run an earlier request left in the daemon's cache",
            spec.points().len()
        );
    }
    stale
}

/// The `serve-mix` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let scratch = PathBuf::from(SCRATCH).join(format!("serve-{}", std::process::id()));
    let mut n = 0;
    let mut next_dir = || {
        n += 1;
        scratch.join(format!("pass{n}"))
    };
    // Set-up is generating the request sequences plus binding a daemon
    // (which loads its journal).
    let (mix, setup_times) = ctx.setup(|| {
        let mix = self::mix(ctx.seed);
        let dir = next_dir();
        drop(bind(&dir));
        mix
    });
    let phases = ctx.passes(MIN_PASSES, |traced| pass(&mix, &next_dir(), traced));
    let (untraced, traced) = (&phases.untraced, &phases.traced);

    // Output checks, outside every timed region: every result must be
    // byte-identical to a local sweep of the same spec.
    let mut correct = untraced.iter().chain(traced).all(|p| p.journal_ok);
    let mut references: Vec<(String, String)> = Vec::new();
    for p in untraced.iter().chain(traced) {
        for s in &p.samples {
            let req = &mix[s.client][s.index];
            let Some(got) = &s.result else {
                continue;
            };
            let key = hlstb_dse::proto::spec_to_json(&req.spec);
            let want = match references.iter().find(|(k, _)| *k == key) {
                Some((_, w)) => w,
                None => {
                    let w = run_sweep(&req.spec, &SweepOptions::default())
                        .report
                        .canonical_json();
                    references.push((key, w));
                    &references.last().expect("just pushed").1
                }
            };
            // The frame carries only the id and the report, so the
            // frames match byte for byte exactly when the reports do.
            if *got != encode_result(&req.id, want) {
                eprintln!(
                    "perfbench: request {} of client {} differs from a local sweep of its spec",
                    s.index, s.client
                );
                correct = false;
            }
        }
    }

    let requests: usize = mix.iter().map(Vec::len).sum();
    let attempted = (requests * untraced.len()) as u64;
    let failed = untraced
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.result.is_none())
        .count() as u64;
    let pass_counts = |p: &Pass| layers::cache_counts(&p.metrics.cache);
    let mut unstable_counts =
        counts::unstable_between_passes(&untraced.iter().map(pass_counts).collect::<Vec<_>>());
    let counts = pass_counts(&untraced[0]);
    let walls = |ps: &[Pass]| ps.iter().map(|p| p.wall).collect::<Vec<_>>();

    let metrics = if ctx.trace {
        unstable_counts.extend(counts::unstable_between_passes(
            &traced.iter().map(pass_counts).collect::<Vec<_>>(),
        ));
        let mut m = layers::zeroed();
        let mid = &traced[stats::median_index(&walls(traced))];
        let rollup = mid.rollup.as_ref().expect("traced pass has a roll-up");
        // Per-point gate counts are not on the wire; the netlist layer's
        // gate count is left to the sweep workloads.
        rollup.put_layers(
            &mut m,
            stats::ms(mid.wall),
            ServeConfig::default().executors,
            0,
        );
        layers::put_cache_stats(&mut m, &mid.metrics.cache);
        m.count("cache.entries", mid.metrics.entries);
        m.put("cache.bytes", mid.metrics.bytes as f64, "bytes");
        m.count("cache.evictions", mid.metrics.evictions);
        let all: Vec<&Sample> = traced.iter().flat_map(|p| &p.samples).collect();
        let admit: Vec<f64> = all.iter().map(|s| s.admit_ms).collect();
        let wait: Vec<f64> = all
            .iter()
            .map(|s| (s.latency_ms - s.run_ms).max(0.0))
            .collect();
        let run: Vec<f64> = all.iter().map(|s| s.run_ms).collect();
        m.count("serve.requests", mid.samples.len() as u64);
        m.count("serve.shed", mid.metrics.shed);
        m.put("serve.admit_p95_ms", stats::percentile(&admit, 95.0), "ms");
        m.put("serve.queue_wait_p50_ms", stats::median(&wait), "ms");
        m.put(
            "serve.queue_wait_p95_ms",
            stats::percentile(&wait, 95.0),
            "ms",
        );
        m.put("serve.run_p50_ms", stats::median(&run), "ms");
        m.put("serve.run_p95_ms", stats::percentile(&run, 95.0), "ms");
        m.count("serve.stale_grading_points", stale_grading_probe());
        m.put("serve.journal_bytes", mid.journal_bytes as f64, "bytes");
        m.put("serve.journal_load_ms", stats::ms(mid.journal_load), "ms");
        layers::put_overhead(&mut m, &walls(traced), &walls(untraced));
        m
    } else {
        let mut m = Metrics::default();
        let samples: Vec<&Sample> = untraced.iter().flat_map(|p| &p.samples).collect();
        let op: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let small: Vec<f64> = samples
            .iter()
            .filter(|s| mix[s.client][s.index].points <= SMALL_POINTS)
            .map(|s| s.latency_ms)
            .collect();
        put_end_to_end(
            &mut m,
            &setup_times,
            &walls(untraced),
            &op,
            &small,
            attempted,
            failed,
            phases.peak_rss_mb,
        );
        m
    };
    std::fs::remove_dir_all(&scratch).expect("remove the serve scratch directory");
    let _ = std::fs::remove_dir(SCRATCH);
    eprintln!(
        "perfbench: {requests} requests/pass from {CLIENTS} clients, {} untraced + {} traced passes, {} distinct specs checked",
        untraced.len(),
        traced.len(),
        references.len()
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        counts,
        unstable_counts,
    }
}
