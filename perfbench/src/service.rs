//! `service-mixed`: closed-loop clients against one in-process daemon
//! with its own store.
//!
//! Every round sends the same seeded requests: per (GPU, workload) unit
//! one iteration batch shaped like the one `Harness::iteration_batch`
//! sends over `figures --daemon` (every stage of the five techniques;
//! fixed stages under the path's canonical technique), and per
//! (unit, technique) one single-cell `sim` request of the rewritable
//! stage, with telemetry or with every optimizer pass. Set-up stores
//! half of the sims, so about half the requests re-request a stored
//! cell and the rest are new. Per workload the counts of each kind
//! (batch, stored or new, telemetry or passes) are fixed and the scenes
//! are the registry's, so the seed moves which technique takes which
//! role and the order, not the amount of work. Each round sends them in
//! a fresh order.
//!
//! The untraced round talks to `sim_service::daemon::spawn` through
//! `DaemonClient`. The traced round replaces both ends with
//! `Daemon::serve` and [`call`], which make the daemon's and the
//! client's layer calls in their order, over a socket pair per client.

use std::collections::HashMap;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use arc_core::passes::PassPipeline;
use arc_core::Technique;
use arc_workloads::FrameTrace;
use gpu_sim::{GpuConfig, TechniquePath, TelemetryConfig};
use sim_service::proto::{WireRequest, WireResponse, WireResult};
use sim_service::{
    run_cell_with_digest, trace_digest, DaemonClient, Digest, EngineOpts, ResultStore, SimRequest,
    SimResult, WireCell,
};

use crate::grid;
use crate::layers::{read_raw, Layers};
use crate::{Round, SplitMix};

/// Workload scale of every service frame.
pub const SCALE: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Variant {
    Plain,
    Telemetry,
    Passes,
}

/// One kernel cell: a frame stage of a unit under a technique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CellId {
    unit: usize,
    technique: Technique,
    stage: usize,
    variant: Variant,
}

enum Request {
    Sim(CellId),
    Batch(Vec<CellId>),
}

impl Request {
    fn cells(&self) -> &[CellId] {
        match self {
            Request::Sim(c) => std::slice::from_ref(c),
            Request::Batch(cells) => cells,
        }
    }
}

/// The scenes and the request schedule of one seed.
pub struct Schedule {
    seed: u64,
    units: Vec<(GpuConfig, Arc<FrameTrace>)>,
    warm: Vec<CellId>,
    clients: Vec<Vec<Request>>,
}

/// Report (and telemetry) of one cell, serialized for byte comparison.
type Output = (String, Option<String>);

fn output(r: &SimResult) -> Output {
    let json = |v: &dyn Fn() -> Result<String, serde_json::Error>| v().expect("results serialize");
    (
        json(&|| serde_json::to_string(&r.report)),
        r.telemetry
            .as_ref()
            .map(|t| json(&|| serde_json::to_string(t))),
    )
}

impl Schedule {
    /// Builds the scenes (through `layers` when tracing) and the seeded
    /// request schedule for `clients` closed-loop clients.
    pub fn new(seed: u64, clients: usize, layers: Option<&Layers>) -> Self {
        let mut rng = SplitMix::new(seed);
        let frames: Vec<Arc<FrameTrace>> = grid::ids()
            .iter()
            .map(|id| {
                let spec = arc_workloads::spec(id)
                    .expect("grid ids are registered")
                    .scaled(SCALE);
                Arc::new(match layers {
                    Some(l) => l.build(&spec),
                    None => spec.build(),
                })
            })
            .collect();
        let gpus = grid::gpus();
        let units: Vec<(GpuConfig, Arc<FrameTrace>)> = gpus
            .iter()
            .flat_map(|cfg| frames.iter().map(|f| (cfg.clone(), Arc::clone(f))))
            .collect();

        // Each client gets the same mix: batches and sims are each
        // dealt round-robin.
        let mut per_client: Vec<Vec<Request>> = (0..clients).map(|_| Vec::new()).collect();
        let mut dealt = [0, 0];
        let mut deal = |r: Request| {
            let kind = usize::from(matches!(r, Request::Sim(_)));
            per_client[dealt[kind] % clients].push(r);
            dealt[kind] += 1;
        };
        let mut warm = Vec::new();
        for (w, frame) in frames.iter().enumerate() {
            let stages = frame.stages();
            let rewritable = stages
                .iter()
                .position(|s| s.rewritable())
                .expect("every frame has a rewritable stage");
            // One GPU's fifth sim is stored telemetry, the other's a new
            // pass run, so every workload stores 3 telemetry and 2 pass
            // sims and leaves 2 and 3 new, whatever the seed.
            let first = rng.next_u64() as usize % gpus.len();
            for g in 0..gpus.len() {
                let unit = g * frames.len() + w;
                let mut batch = Vec::new();
                for t in grid::techniques() {
                    for (stage, s) in stages.iter().enumerate() {
                        let technique = if s.rewritable() {
                            t
                        } else {
                            grid::path_technique(t.path())
                        };
                        batch.push(CellId {
                            unit,
                            technique,
                            stage,
                            variant: Variant::Plain,
                        });
                    }
                }
                deal(Request::Batch(batch));
                let mut techniques = grid::techniques();
                rng.shuffle(&mut techniques);
                let fifth = if g == first {
                    (Variant::Telemetry, true)
                } else {
                    (Variant::Passes, false)
                };
                let roles = [
                    (Variant::Telemetry, true),
                    (Variant::Passes, true),
                    (Variant::Telemetry, false),
                    (Variant::Passes, false),
                    fifth,
                ];
                for (technique, (variant, stored)) in techniques.into_iter().zip(roles) {
                    let c = CellId {
                        unit,
                        technique,
                        stage: rewritable,
                        variant,
                    };
                    if stored {
                        warm.push(c);
                    }
                    deal(Request::Sim(c));
                }
            }
        }
        Schedule {
            seed,
            units,
            warm,
            clients: per_client,
        }
    }

    /// The order client `client` sends its requests in during round
    /// `round`: a fresh shuffle per round, so a run's medians cover many
    /// interleavings of the clients instead of one.
    fn order(&self, client: usize, round: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.clients[client].len()).collect();
        let mut rng =
            SplitMix::new(self.seed ^ round.wrapping_mul(0x100_0000_01B3) ^ client as u64);
        rng.shuffle(&mut order);
        order
    }

    /// Requests in one round.
    pub fn requests(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    fn wire(&self, c: &CellId) -> WireCell {
        let (cfg, frame) = &self.units[c.unit];
        let s = &frame.stages()[c.stage];
        WireCell {
            config: cfg.clone(),
            technique: c.technique,
            trace: s.trace().clone(),
            rewrite: s.rewritable(),
            telemetry: (c.variant == Variant::Telemetry).then(TelemetryConfig::default),
            want_chrome: false,
            passes: if c.variant == Variant::Passes {
                PassPipeline::all()
            } else {
                PassPipeline::empty()
            },
            stage: Some(s.name().to_string()),
        }
    }

    fn request(&self, c: &CellId) -> SimRequest {
        let w = self.wire(c);
        SimRequest {
            config: w.config,
            technique: w.technique,
            trace: Arc::new(w.trace),
            rewrite: w.rewrite,
            telemetry: w.telemetry,
            want_chrome: false,
            passes: w.passes,
            stage: w.stage,
        }
    }

    /// Set-up: stores the warm half of the sim requests in a new store
    /// at `dir`, through the same executor the daemon uses.
    pub fn warm(&self, dir: &Path) -> io::Result<()> {
        let store = ResultStore::open(dir)?;
        let mut digests: HashMap<(usize, usize), Digest> = HashMap::new();
        for c in &self.warm {
            let req = self.request(c);
            let workload = c.unit % (self.units.len() / 2);
            let digest = *digests
                .entry((workload, c.stage))
                .or_insert_with(|| trace_digest(&req.trace));
            run_cell_with_digest(Some(&store), &req, &EngineOpts::default(), &digest)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        Ok(())
    }

    /// The in-process simulation of every cell the schedule asks for:
    /// the engine calls alone, no store, no wire.
    pub fn references(&self) -> References {
        let engine = Layers::default();
        let mut refs = HashMap::new();
        for r in self.clients.iter().flatten() {
            for c in r.cells() {
                if !refs.contains_key(c) {
                    let req = self.request(c);
                    let out = engine
                        .exec(None, &req, &Digest([0; 32]))
                        .expect("every scheduled cell drains");
                    refs.insert(*c, output(&out));
                }
            }
        }
        References(refs)
    }
}

/// Reference outputs by cell.
pub struct References(HashMap<CellId, Output>);

/// How a client sends one request: the request and its wire cells in,
/// results in input order out.
type Sender<'a> =
    Box<dyn FnMut(&Request, Vec<WireCell>) -> Result<Vec<SimResult>, String> + Send + 'a>;

/// Runs every client's schedule concurrently; `connect` gives each
/// client a function that sends a request's wire cells. Results are
/// checked against `refs` after the round's clock stops.
fn closed_loop<'a, C>(schedule: &Schedule, refs: &References, round: u64, mut connect: C) -> Round
where
    C: FnMut(usize) -> Sender<'a>,
{
    type ClientLog<'s> = (Vec<f64>, u64, Vec<(&'s Request, Vec<SimResult>)>);
    crate::reset_peak_rss();
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .clients
            .iter()
            .enumerate()
            .map(|(i, requests)| {
                let mut send = connect(i);
                scope.spawn(move || {
                    let (mut lat, mut failed, mut answered) = (Vec::new(), 0, Vec::new());
                    for r in schedule.order(i, round).into_iter().map(|k| &requests[k]) {
                        let cells: Vec<WireCell> =
                            r.cells().iter().map(|c| schedule.wire(c)).collect();
                        let t = Instant::now();
                        match send(r, cells) {
                            Ok(results) => {
                                lat.push(t.elapsed().as_secs_f64());
                                answered.push((r, results));
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    (lat, failed, answered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Round {
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_mb: crate::peak_rss_mb(),
        latencies: Vec::new(),
        attempted: schedule.requests() as u64,
        failed: 0,
        kcycles: 0.0,
        mismatches: 0,
    };
    for (lat, failed, answered) in logs {
        out.latencies.extend(lat);
        out.failed += failed;
        for (r, results) in answered {
            if results.len() != r.cells().len() {
                out.mismatches += 1;
            }
            for (c, res) in r.cells().iter().zip(&results) {
                out.kcycles += res.report.cycles as f64 / 1e3;
                if refs.0[c] != output(res) {
                    out.mismatches += 1;
                }
            }
        }
    }
    out
}

/// One untraced round against the real daemon and clients, on the
/// store [`Schedule::warm`] filled at `dir` (removed afterwards).
pub fn round(
    schedule: &Schedule,
    refs: &References,
    round: u64,
    dir: &Path,
    work: &Path,
    jobs: usize,
) -> io::Result<Round> {
    let store = Arc::new(ResultStore::open(dir)?);
    let sock: PathBuf = work.join("d.sock");
    let mut daemon = sim_service::daemon::spawn(&sock, Some(store), jobs)?;
    let clients: Vec<DaemonClient> = (0..schedule.clients.len())
        .map(|_| DaemonClient::connect(&sock))
        .collect::<io::Result<_>>()?;
    let mut clients = clients.into_iter();
    let round = closed_loop(schedule, refs, round, |_| {
        let client = clients.next().expect("one client per schedule");
        Box::new(move |r: &Request, mut cells: Vec<WireCell>| {
            let out = match r {
                Request::Sim(_) => client.sim(cells.remove(0)).map(|r| vec![r]),
                Request::Batch(_) => client.batch(cells),
            };
            out.map_err(|e| e.to_string())
        })
    });
    daemon.shutdown();
    std::fs::remove_dir_all(dir)?;
    Ok(round)
}

/// A counting semaphore, as the daemon bounds concurrent simulations.
struct Semaphore {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut slots = self.slots.lock().expect("semaphore poisoned");
        while *slots == 0 {
            slots = self.cv.wait(slots).expect("semaphore poisoned");
        }
        *slots -= 1;
        drop(slots);
        let out = f();
        *self.slots.lock().expect("semaphore poisoned") += 1;
        self.cv.notify_one();
        out
    }
}

type Slot = (Mutex<Option<Result<SimResult, String>>>, Condvar);

/// The daemon's shared state, as `sim_service::daemon` keeps it.
struct Daemon<'a> {
    layers: &'a Layers,
    store: ResultStore,
    jobs: usize,
    sem: Semaphore,
    inflight: Mutex<HashMap<Digest, Arc<Slot>>>,
}

impl Daemon<'_> {
    /// The daemon's per-cell path: digest, dedup, bounded execution.
    fn exec(&self, cell: &WireCell) -> Result<SimResult, String> {
        let req = SimRequest {
            config: cell.config.clone(),
            technique: cell.technique,
            trace: Arc::new(cell.trace.clone()),
            rewrite: cell.rewrite,
            telemetry: cell.telemetry.clone(),
            want_chrome: cell.want_chrome,
            passes: cell.passes.clone(),
            stage: cell.stage.clone(),
        };
        let digest = self.layers.digest(&req.trace);
        let slot_key = self.layers.key(&req, &digest);
        let (slot, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight poisoned");
            match inflight.get(&slot_key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot: Arc<Slot> = Arc::default();
                    inflight.insert(slot_key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !leader {
            self.layers.rec.add("daemon.coalesced", 1);
            let mut done = slot.0.lock().expect("slot poisoned");
            while done.is_none() {
                done = slot.1.wait(done).expect("slot poisoned");
            }
            return done.clone().expect("slot filled");
        }
        let result = self.sem.run(|| {
            self.layers
                .exec(Some(&self.store), &req, &digest)
                .map_err(|e| e.to_string())
        });
        self.inflight
            .lock()
            .expect("inflight poisoned")
            .remove(&slot_key);
        *slot.0.lock().expect("slot poisoned") = Some(result.clone());
        slot.1.notify_all();
        result
    }

    fn send(&self, writer: &Mutex<UnixStream>, resp: &WireResponse) -> io::Result<()> {
        let frame = self.layers.encode(resp)?;
        writer.lock().expect("writer poisoned").write_all(&frame)
    }

    fn respond(
        &self,
        id: u64,
        item: Option<u64>,
        result: Result<SimResult, String>,
    ) -> WireResponse {
        match result {
            Ok(r) => {
                let mut resp = WireResponse::ack(id);
                resp.item = item;
                resp.result = Some(WireResult {
                    report: r.report,
                    telemetry: r.telemetry,
                    chrome: r.chrome,
                    cached: r.cached,
                });
                resp
            }
            Err(e) => WireResponse::err(id, item, e),
        }
    }

    /// One connection, as the daemon's connection thread serves it.
    fn serve(&self, stream: UnixStream) -> io::Result<()> {
        let mut reader = stream.try_clone()?;
        let writer = Mutex::new(stream);
        while let Some(frame) = read_raw(&mut reader)? {
            let req: WireRequest = self.layers.decode(&frame)?;
            match req.op.as_str() {
                "sim" => {
                    let cell = req.cell.expect("sim requests carry a cell");
                    let resp = self.respond(req.id, None, self.exec(&cell));
                    self.send(&writer, &resp)?;
                }
                "batch" => {
                    let cells = req.cells.unwrap_or_default();
                    let cursor = AtomicUsize::new(0);
                    let workers = self.jobs.min(cells.len().max(1));
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(|| loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= cells.len() {
                                    return;
                                }
                                let resp =
                                    self.respond(req.id, Some(i as u64), self.exec(&cells[i]));
                                let _ = self.send(&writer, &resp);
                            });
                        }
                    });
                    let mut done = WireResponse::ack(req.id);
                    done.done = true;
                    self.send(&writer, &done)?;
                }
                other => panic!("the benchmark sends no `{other}` requests"),
            }
        }
        Ok(())
    }
}

/// The client's round trip, as `DaemonClient::sim` / `batch` make it.
fn call(
    layers: &Layers,
    stream: &mut UnixStream,
    id: u64,
    r: &Request,
    mut cells: Vec<WireCell>,
) -> Result<Vec<SimResult>, String> {
    let n = cells.len();
    let (op, cell, cells) = match r {
        Request::Sim(_) => ("sim", Some(cells.remove(0)), None),
        Request::Batch(_) => ("batch", None, Some(cells)),
    };
    let req = WireRequest {
        id,
        op: op.to_string(),
        cell,
        cells,
    };
    let frame = layers.encode(&req).map_err(|e| e.to_string())?;
    stream.write_all(&frame).map_err(|e| e.to_string())?;
    let mut slots: Vec<Option<SimResult>> = vec![None; n];
    let mut first_err = None;
    loop {
        let frame = read_raw(stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the stream")?;
        let resp: WireResponse = layers.decode(&frame).map_err(|e| e.to_string())?;
        if resp.done {
            break;
        }
        let idx = resp.item.map_or(0, |i| i as usize);
        let result = match (resp.ok, resp.result) {
            (true, Some(w)) => Ok(SimResult {
                report: w.report,
                telemetry: w.telemetry,
                chrome: w.chrome,
                cached: w.cached,
            }),
            (true, None) => Err("ok frame without result".to_string()),
            (false, _) => Err(resp.error.unwrap_or_default()),
        };
        match result {
            Ok(r) if idx < n => slots[idx] = Some(r),
            Ok(_) => return Err(format!("batch item {idx} out of range")),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
        if op == "sim" {
            break;
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| s.ok_or_else(|| "unanswered batch item".to_string()))
        .collect()
}

/// One traced round: the daemon and client replicas over socket pairs,
/// on the store at `dir` as [`round`].
pub fn traced_round(
    schedule: &Schedule,
    refs: &References,
    round: u64,
    dir: &Path,
    jobs: usize,
    layers: &Layers,
) -> io::Result<Round> {
    let daemon = Daemon {
        layers,
        store: ResultStore::open(dir)?,
        jobs,
        sem: Semaphore {
            slots: Mutex::new(jobs),
            cv: Condvar::new(),
        },
        inflight: Mutex::new(HashMap::new()),
    };
    let pairs: Vec<(UnixStream, UnixStream)> = (0..schedule.clients.len())
        .map(|_| UnixStream::pair())
        .collect::<io::Result<_>>()?;
    let round = std::thread::scope(|scope| {
        let mut client_ends = Vec::new();
        let mut servers = Vec::new();
        for (client, server) in pairs {
            client_ends.push(client);
            let daemon = &daemon;
            servers.push(scope.spawn(move || daemon.serve(server)));
        }
        let mut client_ends = client_ends.into_iter();
        let round = closed_loop(schedule, refs, round, |_| {
            let mut stream = client_ends.next().expect("one stream per client");
            let mut next_id = 0;
            Box::new(move |r: &Request, cells: Vec<WireCell>| {
                next_id += 1;
                layers
                    .rec
                    .span("client", || call(layers, &mut stream, next_id, r, cells))
            })
        });
        // Every client end is dropped with its closure, so each server
        // sees a clean close and returns.
        for s in servers {
            s.join()
                .expect("server thread panicked")
                .expect("daemon replica I/O");
        }
        round
    });
    std::fs::remove_dir_all(dir)?;
    Ok(round)
}
