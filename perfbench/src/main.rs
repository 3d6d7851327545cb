//! Host-time benchmark of the ARC reproduction: the figure grid cold and
//! warm, and a mixed daemon workload, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace
//! 1` runs the workload's fixed work untraced and traced, alternately,
//! twice each (spans around every layer call, made from this package's
//! code), checks that both traced passes return the untraced reports and
//! the same counts, and prints the per-layer metrics. The last line of
//! stdout is one JSON object; any failed output check exits nonzero
//! without printing it. Working files live in `.bench_work/` under the
//! current directory and are removed on exit.

mod grid;
mod layers;
mod service;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sim_service::ResultStore;

use crate::layers::Layers;

/// Fewest timed rounds per run of each workload, whatever `--seconds`
/// says. A grid user's request is the whole grid, so on the grids the
/// rounds are the request latencies and their count fixes the tail
/// percentile; a service round holds 156 requests.
const MIN_ROUNDS_COLD: usize = 40;
const MIN_ROUNDS_WARM: usize = 100;
const MIN_ROUNDS_SERVICE: usize = 3;

/// Grid-warm, whose set-up is too long to repeat every round, sets up
/// at least `MIN_SETUPS` times and for at least `SETUP_SECONDS`;
/// `setup_s` is the median.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 3.0;

/// SplitMix64: the benchmark's only source of randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Restarts this process's peak-RSS (`VmHWM`) count from its current
/// RSS, so each round's peak is its own. Where the kernel refuses, the
/// peak stays the process's lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has VmHWM");
    kb / 1024.0
}

/// Runs `f` until `seconds` have passed, at least `min` times.
fn repeat<T>(
    seconds: f64,
    min: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        out.push(f()?);
    }
    Ok(out)
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one timed round measured.
pub struct Round {
    pub wall_s: f64,
    /// Simulated kilocycles in every report returned.
    pub kcycles: f64,
    /// Peak resident set during the round.
    pub peak_rss_mb: f64,
    /// Latency of every request that succeeded, seconds.
    pub latencies: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Returned outputs that differ from the in-process simulation.
    pub mismatches: usize,
}

/// Every end-to-end metric: medians over `rounds`, and over `setup`.
/// Request latencies are pooled over the rounds; the tail percentile is
/// the highest with at least ten requests beyond it in `min_rounds`
/// rounds, so it is the same percentile in every run.
fn end_to_end(rounds: &[Round], setup: &[f64], min_rounds: usize) -> Result<Outcome, String> {
    let bad: usize = rounds.iter().map(|r| r.mismatches).sum();
    check(bad == 0, || {
        format!("{bad} results differ from the in-process simulation")
    })?;
    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let wall = col(|r| r.wall_s);
    let ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.latencies)
        .map(|s| s * 1e3)
        .collect();
    let (pm, _) = stats::tail_percentile(min_rounds * rounds[0].attempted as usize)
        .ok_or("too few requests per run for a tail percentile")?;
    let tail = stats::percentile(&ms, pm);
    println!(
        "{} rounds (wall_s quartile spread {:.3}), {} set-ups; request_tail_ms is the p{} of {} requests ({} beyond it)",
        rounds.len(),
        stats::spread(&wall),
        setup.len(),
        f64::from(pm) / 10.0,
        ms.len(),
        ms.iter().filter(|&&v| v > tail).count(),
    );
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    println!("failure share {}", stats::failure_share(attempted, failed));
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            m("wall_s", stats::median(&wall), "s"),
            m(
                "sim_kcycles_per_s",
                stats::median(&col(|r| r.kcycles / r.wall_s)),
                "kcycles/s",
            ),
            m("setup_s", stats::median(setup), "s"),
            m("peak_rss_mb", stats::median(&col(|r| r.peak_rss_mb)), "MB"),
            m("request_p50_ms", stats::median(&ms), "ms"),
            m("request_tail_ms", tail, "ms"),
        ],
    })
}

/// One timed grid pass on a harness whose frames are built; the pass
/// is the round's one request. Its peak RSS counts from the caller's
/// last `reset_peak_rss`.
fn grid_round(
    h: &mut arc_bench::Harness,
    cells: &[arc_bench::harness::Cell],
) -> (Round, grid::Reports) {
    let t = Instant::now();
    let raw = grid::run(h, cells);
    let wall_s = secs(t);
    let peak_rss_mb = peak_rss_mb();
    let reports = grid::Reports::new(&raw);
    let round = Round {
        wall_s,
        kcycles: reports.kcycles(),
        peak_rss_mb,
        latencies: vec![wall_s],
        attempted: 1,
        failed: 0,
        mismatches: 0,
    };
    (round, reports)
}

fn grid_cold(a: &Args) -> Result<Outcome, String> {
    let (ids, cells) = (grid::ids(), grid::cells(a.seed));
    let mut setup = Vec::new();
    let mut reference = None;
    let rounds = repeat(a.seconds, MIN_ROUNDS_COLD, || {
        let mut h = grid::harness(None);
        let t = Instant::now();
        h.trace_batch(&ids);
        setup.push(secs(t));
        reset_peak_rss();
        let (round, reports) = grid_round(&mut h, &cells);
        check(
            reference.get_or_insert_with(|| reports.clone()) == &reports,
            || "grid-cold reports differ between rounds".into(),
        )?;
        Ok(round)
    })?;
    end_to_end(&rounds, &setup, MIN_ROUNDS_COLD)
}

/// Grid-warm set-up: frames built and the grid run once through a fresh
/// store at `dir`. Returns the reports, which are the in-process
/// simulations every later pass must match.
fn populate(
    dir: &Path,
    ids: &[String],
    cells: &[arc_bench::harness::Cell],
) -> Result<(f64, grid::Reports), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = open_store(dir)?;
    let mut h = grid::harness(Some(store));
    let t = Instant::now();
    h.trace_batch(ids);
    let raw = grid::run(&mut h, cells);
    Ok((secs(t), grid::Reports::new(&raw)))
}

fn open_store(dir: &Path) -> Result<Arc<ResultStore>, String> {
    Ok(Arc::new(ResultStore::open(dir).map_err(|e| e.to_string())?))
}

/// One grid-warm rerun: a fresh harness on the populated store rebuilds
/// the frames and serves every cell. The frame build is timed with the
/// requests, as the first cells of a real rerun wait for it.
fn rerun(
    dir: &Path,
    ids: &[String],
    cells: &[arc_bench::harness::Cell],
    reference: &grid::Reports,
) -> Result<Round, String> {
    let store = open_store(dir)?;
    reset_peak_rss();
    let t = Instant::now();
    let mut h = grid::harness(Some(Arc::clone(&store)));
    h.trace_batch(ids);
    let build_s = secs(t);
    let (mut round, reports) = grid_round(&mut h, cells);
    round.wall_s += build_s;
    round.latencies = vec![round.wall_s];
    check(&reports == reference, || {
        "grid-warm report differs from the simulation".into()
    })?;
    let misses = store.stats().misses;
    check(misses == 0, || {
        format!("grid-warm rerun missed the store {misses} times")
    })?;
    Ok(round)
}

fn grid_warm(a: &Args, work: &Path) -> Result<Outcome, String> {
    let (ids, cells) = (grid::ids(), grid::cells(a.seed));
    let dir = work.join("store");
    let mut reference: Option<grid::Reports> = None;
    let setup = repeat(SETUP_SECONDS, MIN_SETUPS, || {
        let (s, reports) = populate(&dir, &ids, &cells)?;
        check(reference.as_ref().is_none_or(|r| r == &reports), || {
            "grid-warm set-ups disagree".into()
        })?;
        reference = Some(reports);
        Ok(s)
    })?;
    let reference = reference.expect("at least one set-up");
    let rounds = repeat(a.seconds, MIN_ROUNDS_WARM, || {
        rerun(&dir, &ids, &cells, &reference)
    })?;
    end_to_end(&rounds, &setup, MIN_ROUNDS_WARM)
}

/// Service-mixed's closed-loop clients and daemon job slots. One client
/// keeps the runnable threads (the client, and the daemon's batch
/// workers while the client waits) near a 2-core host's cores; with two
/// clients and two slots a round's wall time measured the scheduler and
/// moved with every host slowdown.
const SERVICE_CLIENTS: usize = 1;
const SERVICE_JOBS: usize = 2;

/// Service-mixed set-up: the seeded frames built (through `layers` when
/// tracing) and the stored half written to a new store at `dir`.
fn service_setup(
    a: &Args,
    dir: &Path,
    layers: Option<&Layers>,
) -> Result<(f64, service::Schedule), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let schedule = service::Schedule::new(a.seed, SERVICE_CLIENTS, layers);
    schedule.warm(dir).map_err(|e| e.to_string())?;
    Ok((secs(t), schedule))
}

/// Service-mixed sets up before every round, so its set-up samples span
/// the run like the rounds do.
fn service_mixed(a: &Args, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    let refs = service::Schedule::new(a.seed, SERVICE_CLIENTS, None).references();
    let mut setup = Vec::new();
    let mut n = 0;
    let rounds = repeat(a.seconds, MIN_ROUNDS_SERVICE, || {
        n += 1;
        let (s, schedule) = service_setup(a, &dir, None)?;
        setup.push(s);
        service::round(&schedule, &refs, n, &dir, work, SERVICE_JOBS).map_err(|e| e.to_string())
    })?;
    end_to_end(&rounds, &setup, MIN_ROUNDS_SERVICE)
}

/// Counts that depend on thread timing: whether a duplicate cell joins
/// an in-flight computation or finds the stored result (and so which
/// `cached` flag its response frame carries). Their sum is exact.
const TIMING_COUNTS: [&str; 4] = [
    "store.hits",
    "store.bytes",
    "daemon.coalesced",
    "wire.bytes_sent",
];

/// One traced pass: its wall time, its layers, and the requests it made.
struct TracedPass {
    wall_s: f64,
    layers: Layers,
    distinct_ratio: f64,
}

fn traced<F>(pass: F) -> Result<TracedPass, String>
where
    F: FnOnce(&Layers) -> Result<(f64, f64), String>,
{
    let layers = Layers::default();
    let traversals = arc_core::passes::trace_traversals();
    let (wall_s, distinct_ratio) = pass(&layers)?;
    let delta = arc_core::passes::trace_traversals() - traversals;
    layers.rec.add("passes.traversals", delta);
    Ok(TracedPass {
        wall_s,
        layers,
        distinct_ratio,
    })
}

/// Every per-layer metric of a traced pass.
fn layer_metrics(p: &TracedPass, overhead_s: f64) -> Vec<Metric> {
    let r = &p.layers.rec;
    let busy = |l| r.time(l).busy_s;
    let c = |n| r.count(n) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    vec![
        m("workloads.build_s", busy("workloads"), "s"),
        m("workloads.frames", c("workloads.frames"), "count"),
        m("workloads.stages", c("workloads.stages"), "count"),
        m("workloads.trace_mb", c("workloads.trace_bytes") / 1e6, "MB"),
        m("technique.rewrite_s", busy("technique"), "s"),
        m("technique.rewrites", c("technique.rewrites"), "count"),
        m("passes.apply_s", busy("passes"), "s"),
        m("passes.calls", c("passes.calls"), "count"),
        m("passes.traversals", c("passes.traversals"), "count"),
        m("gpu_sim.busy_s", busy("gpu_sim"), "s"),
        m("gpu_sim.runs", c("gpu_sim.runs"), "count"),
        m("gpu_sim.cycles", c("gpu_sim.cycles"), "count"),
        m("gpu_sim.instructions", c("gpu_sim.instructions"), "count"),
        m(
            "gpu_sim.kcycles_per_busy_s",
            ratio(c("gpu_sim.cycles") / 1e3, busy("gpu_sim")),
            "kcycles/s",
        ),
        m("key.digest_s", busy("key"), "s"),
        m("key.digests", c("key.digests"), "count"),
        m("key.digest_mb", c("key.digest_bytes") / 1e6, "MB"),
        m("store.get_s", busy("store.get"), "s"),
        m("store.put_s", busy("store.put"), "s"),
        m("store.hits", c("store.hits"), "count"),
        m("store.misses", c("store.misses"), "count"),
        m(
            "store.hit_ratio",
            ratio(c("store.hits"), c("store.hits") + c("store.misses")),
            "ratio",
        ),
        m("store.bytes", c("store.bytes"), "bytes"),
        m("wire.encode_s", busy("wire.encode"), "s"),
        m("wire.decode_s", busy("wire.decode"), "s"),
        m("wire.mb_sent", c("wire.bytes_sent") / 1e6, "MB"),
        m("wire.frames", c("wire.frames"), "count"),
        m("wire.refused", c("wire.refused"), "count"),
        m("client.rtt_s", busy("client"), "s"),
        m("daemon.coalesced", c("daemon.coalesced"), "count"),
        m("harness.self_s", r.time("harness").self_s, "s"),
        m("harness.sim_requests", c("harness.sim_requests"), "count"),
        m("harness.distinct_ratio", p.distinct_ratio, "ratio"),
        m("trace.overhead_s", overhead_s, "s"),
    ]
}

/// The traced run of a workload: `untraced` runs its fixed work once
/// without tracing and `pass` once with it (each checking its own
/// outputs), alternately twice; `layer_check` checks the workload's
/// layer predictions on each traced pass.
fn traced_run<U, F>(
    attempted_per_pass: u64,
    timing: &[&str],
    mut untraced: U,
    mut pass: F,
    layer_check: impl Fn(&Layers) -> Result<(), String>,
) -> Result<Outcome, String>
where
    U: FnMut() -> Result<f64, String>,
    F: FnMut(&Layers) -> Result<(f64, f64), String>,
{
    let u1 = untraced()?;
    let first = traced(&mut pass)?;
    let u2 = untraced()?;
    let second = traced(&mut pass)?;
    let exact = |p: &TracedPass| {
        let mut counts = p.layers.rec.counts();
        counts.retain(|k, _| !timing.contains(k));
        counts
    };
    check(exact(&first) == exact(&second), || {
        format!(
            "traced counts differ between passes:\n{:?}\n{:?}",
            exact(&first),
            exact(&second)
        )
    })?;
    if !timing.is_empty() {
        let sum = |p: &TracedPass| {
            p.layers.rec.count("store.hits") + p.layers.rec.count("daemon.coalesced")
        };
        check(sum(&first) == sum(&second), || {
            "hits + coalesced differ between passes".into()
        })?;
    }
    layer_check(&first.layers)?;
    layer_check(&second.layers)?;
    let overhead = (first.wall_s + second.wall_s - u1 - u2) / 2.0;
    Ok(Outcome {
        attempted: 4 * attempted_per_pass,
        failed: 0,
        metrics: layer_metrics(&second, overhead),
    })
}

fn zero(layers: &Layers, counts: &[&str], workload: &str) -> Result<(), String> {
    for name in counts {
        let v = layers.rec.count(name);
        check(v == 0, || format!("{workload}: {name} = {v}, expected 0"))?;
    }
    Ok(())
}

fn grid_cold_traced(a: &Args) -> Result<Outcome, String> {
    let (ids, cells) = (grid::ids(), grid::cells(a.seed));
    let reference = std::cell::OnceCell::new();
    let untraced = || {
        let t = Instant::now();
        let mut h = grid::harness(None);
        h.trace_batch(&ids);
        let raw = grid::run(&mut h, &cells);
        let wall = secs(t);
        let reports = grid::Reports::new(&raw);
        check(
            reference.get_or_init(|| reports.clone()) == &reports,
            || "grid-cold reports differ between passes".into(),
        )?;
        Ok(wall)
    };
    traced_run(
        1,
        &[],
        untraced,
        |layers| {
            let t = Instant::now();
            let mut rep = grid::Replica::new(layers, None);
            rep.trace_batch(&ids);
            let raw = rep.run(&cells);
            let wall = secs(t);
            check(Some(&grid::Reports::new(&raw)) == reference.get(), || {
                "traced grid-cold reports differ".into()
            })?;
            Ok((wall, rep.distinct_ratio()))
        },
        |l| zero(l, &["key.digests", "wire.frames"], "grid-cold"),
    )
}

fn grid_warm_traced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let (ids, cells) = (grid::ids(), grid::cells(a.seed));
    let dir = work.join("store");
    let (_, reference) = populate(&dir, &ids, &cells)?;
    traced_run(
        1,
        &[],
        || rerun(&dir, &ids, &cells, &reference).map(|r| r.wall_s),
        |layers| {
            let store = open_store(&dir)?;
            let t = Instant::now();
            let mut rep = grid::Replica::new(layers, Some(store));
            rep.trace_batch(&ids);
            let raw = rep.run(&cells);
            let wall = secs(t);
            check(grid::Reports::new(&raw) == reference, || {
                "traced grid-warm reports differ".into()
            })?;
            Ok((wall, rep.distinct_ratio()))
        },
        |l| {
            zero(
                l,
                &["store.misses", "gpu_sim.runs", "wire.frames"],
                "grid-warm",
            )
        },
    )
}

fn service_mixed_traced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    let schedule = service::Schedule::new(a.seed, SERVICE_CLIENTS, None);
    let refs = schedule.references();
    let ok = |r: &Round| {
        check(r.mismatches == 0 && r.failed == 0, || {
            format!(
                "service-mixed: {} mismatched, {} failed",
                r.mismatches, r.failed
            )
        })?;
        Ok(r.wall_s)
    };
    traced_run(
        schedule.requests() as u64,
        &TIMING_COUNTS,
        || {
            let (_, schedule) = service_setup(a, &dir, None)?;
            let round = service::round(&schedule, &refs, 0, &dir, work, SERVICE_JOBS);
            ok(&round.map_err(|e| e.to_string())?)
        },
        |layers| {
            let (_, schedule) = service_setup(a, &dir, Some(layers))?;
            let round = service::traced_round(&schedule, &refs, 0, &dir, SERVICE_JOBS, layers);
            Ok((ok(&round.map_err(|e| e.to_string())?)?, 0.0))
        },
        |l| zero(l, &["harness.sim_requests"], "service-mixed"),
    )
}

/// The run's working directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() {
    // The harness and engine read these; the benchmark fixes its own
    // configuration instead.
    for (k, _) in std::env::vars() {
        if k.starts_with("ARC_") {
            std::env::remove_var(k);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: {}: {e}", work.0.display());
        std::process::exit(1);
    }
    let a = &args;
    let outcome = match (a.workload.as_str(), a.trace) {
        ("grid-cold", false) => grid_cold(a),
        ("grid-cold", true) => grid_cold_traced(a),
        ("grid-warm", false) => grid_warm(a, &work.0),
        ("grid-warm", true) => grid_warm_traced(a, &work.0),
        ("service-mixed", false) => service_mixed(a, &work.0),
        ("service-mixed", true) => service_mixed_traced(a, &work.0),
        (w, _) => Err(format!("unknown workload `{w}`")),
    };
    drop(work);
    match outcome {
        Ok(o) => println!("{}", o.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
