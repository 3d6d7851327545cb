//! The figure grid: every Table-2 workload plus `3D-TB`, on both
//! simulated GPUs, under the five headline techniques — each cell asked
//! for its rewritable-stage report and its full-frame report, as the
//! figure code does.
//!
//! The untraced passes drive `arc_bench::Harness` itself. The traced
//! pass drives [`Replica`], which makes the same layer calls in the same
//! order as the harness (and, with a store, as
//! `run_cell_with_digest`), each inside a span.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use arc_bench::harness::Cell;
use arc_bench::Harness;
use arc_core::passes::PassPipeline;
use arc_core::{BalanceThreshold, Technique};
use arc_workloads::{FrameTrace, StageRole};
use gpu_sim::{AtomicPath, GpuConfig, IterationReport, KernelReport, Simulator, TechniquePath};
use sim_service::{Digest, ResultStore, SimRequest};
use warp_trace::KernelTrace;

use crate::layers::Layers;
use crate::SplitMix;

/// Workload scale of every grid frame.
pub const SCALE: f64 = 0.1;

/// The grid's workload ids: Table 2 in order, then `3D-TB`.
pub fn ids() -> Vec<String> {
    let mut ids: Vec<String> = arc_workloads::all_specs()
        .into_iter()
        .map(|s| s.id)
        .collect();
    ids.push("3D-TB".to_string());
    ids
}

/// The five techniques of the paper's headline figures.
pub fn techniques() -> [Technique; 5] {
    let b16 = BalanceThreshold::new(16).expect("16 is a valid threshold");
    [
        Technique::Baseline,
        Technique::ArcHw,
        Technique::Lab,
        Technique::Phi,
        Technique::SwB(b16),
    ]
}

/// The two simulated GPUs.
pub fn gpus() -> [GpuConfig; 2] {
    [GpuConfig::rtx4090_sim(), GpuConfig::rtx3060_sim()]
}

/// Every grid cell, in an order drawn from `seed`. The scenes are the
/// registry's (the harness builds frames from `arc_workloads::spec`),
/// so the seed decides the order the cells are asked for.
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for cfg in gpus() {
        for t in techniques() {
            for id in ids() {
                cells.push((cfg.clone(), t, id));
            }
        }
    }
    SplitMix::new(seed).shuffle(&mut cells);
    cells
}

/// Every report one grid pass returns, in cell order: the rewritable
/// stage's, then the full frame's.
pub type Raw = Vec<(KernelReport, IterationReport)>;

/// A pass's reports serialized for byte comparison (done after the
/// timed region), and the simulated cycles in them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reports {
    json: Vec<String>,
    cycles: u64,
}

impl Reports {
    pub fn new(raw: &Raw) -> Self {
        let mut json = Vec::with_capacity(2 * raw.len());
        let mut cycles = 0;
        for (k, it) in raw {
            cycles += k.cycles + it.total_cycles();
            json.push(serde_json::to_string(k).expect("report serializes"));
            json.push(serde_json::to_string(it).expect("report serializes"));
        }
        Reports { json, cycles }
    }

    /// Simulated kilocycles across every report.
    pub fn kcycles(&self) -> f64 {
        self.cycles as f64 / 1e3
    }
}

/// A harness as the grid uses it: one job, passes off, optionally on a
/// store.
pub fn harness(store: Option<Arc<ResultStore>>) -> Harness {
    let mut h = Harness::new(SCALE);
    h.set_jobs(1);
    if let Some(store) = store {
        h.set_store(store);
    }
    h
}

/// The grid's work on a harness whose frames are already built: each
/// cell's rewritable-stage report, then its full-frame report.
pub fn run(h: &mut Harness, cells: &[Cell]) -> Raw {
    cells
        .iter()
        .map(|(cfg, t, id)| (h.gradcomp(cfg, *t, id), h.iteration(cfg, *t, id)))
        .collect()
}

/// The canonical non-rewriting technique of a hardware path (what fixed
/// frame stages run as through the store, as in the harness).
pub fn path_technique(path: AtomicPath) -> Technique {
    match path {
        AtomicPath::Baseline => Technique::Baseline,
        AtomicPath::ArcHw => Technique::ArcHw,
        AtomicPath::Lab => Technique::Lab,
        AtomicPath::LabIdeal => Technique::LabIdeal,
        AtomicPath::Phi => Technique::Phi,
    }
}

/// What determines a stage simulation's store key, with the trace named
/// by (workload, stage) instead of its digest, so waste is countable on
/// the store-less path without hashing anything.
type LogicalKey = (String, Technique, bool, String, usize);

/// `Harness`'s grid path, call for call, with a span around each layer
/// call and the harness's own remainder as `harness` self time.
pub struct Replica<'a> {
    layers: &'a Layers,
    store: Option<Arc<ResultStore>>,
    frames: HashMap<String, Arc<FrameTrace>>,
    sims: HashMap<(String, AtomicPath), Arc<Simulator>>,
    optimized: HashMap<(String, usize), Arc<KernelTrace>>,
    service_traces: HashMap<(String, usize), (Arc<KernelTrace>, Digest)>,
    gradcomp: HashMap<(String, Technique, String), KernelReport>,
    iteration: HashMap<(String, Technique, String), IterationReport>,
    distinct: HashSet<LogicalKey>,
}

impl<'a> Replica<'a> {
    pub fn new(layers: &'a Layers, store: Option<Arc<ResultStore>>) -> Self {
        Replica {
            layers,
            store,
            frames: HashMap::new(),
            sims: HashMap::new(),
            optimized: HashMap::new(),
            service_traces: HashMap::new(),
            gradcomp: HashMap::new(),
            iteration: HashMap::new(),
            distinct: HashSet::new(),
        }
    }

    /// `Harness::trace_batch`.
    pub fn trace_batch(&mut self, ids: &[String]) {
        let layers = self.layers;
        layers.rec.span("harness", || {
            for id in ids {
                if !self.frames.contains_key(id) {
                    let spec = arc_workloads::spec(id).expect("grid ids are registered");
                    let frame = layers.build(&spec.scaled(SCALE));
                    self.frames.insert(id.clone(), Arc::new(frame));
                }
            }
        });
    }

    /// [`run`] on the replica.
    pub fn run(&mut self, cells: &[Cell]) -> Raw {
        let layers = self.layers;
        layers.rec.span("harness", || {
            cells
                .iter()
                .map(|(cfg, t, id)| (self.gradcomp(cfg, *t, id), self.iteration(cfg, *t, id)))
                .collect()
        })
    }

    /// Distinct store keys over simulations requested.
    pub fn distinct_ratio(&self) -> f64 {
        let requests = self.layers.rec.count("harness.sim_requests");
        if requests == 0 {
            0.0
        } else {
            self.distinct.len() as f64 / requests as f64
        }
    }

    fn request(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        rewrite: bool,
        id: &str,
        stage: usize,
    ) {
        self.layers.rec.add("harness.sim_requests", 1);
        self.distinct
            .insert((cfg.name.clone(), technique, rewrite, id.to_string(), stage));
    }

    fn sim_for(&mut self, cfg: &GpuConfig, path: AtomicPath) -> Arc<Simulator> {
        let sim = self
            .sims
            .entry((cfg.name.clone(), path))
            .or_insert_with(|| Arc::new(Simulator::new(cfg.clone(), path).expect("valid config")));
        Arc::clone(sim)
    }

    /// `Harness::optimized`: the pass cache fill, once per stage.
    fn optimized(&mut self, id: &str, stage: usize) -> Arc<KernelTrace> {
        let key = (id.to_string(), stage);
        if let Some(t) = self.optimized.get(&key) {
            return Arc::clone(t);
        }
        let frame = Arc::clone(&self.frames[id]);
        let t = Arc::new(
            self.layers
                .passes(&PassPipeline::empty(), frame.stages()[stage].trace())
                .into_owned(),
        );
        self.optimized.insert(key, Arc::clone(&t));
        t
    }

    /// `Harness::service_trace`: the stage trace and its digest, once.
    fn service_trace(&mut self, id: &str, stage: usize) -> (Arc<KernelTrace>, Digest) {
        let key = (id.to_string(), stage);
        if let Some((t, d)) = self.service_traces.get(&key) {
            return (Arc::clone(t), *d);
        }
        let trace = Arc::new(self.frames[id].stages()[stage].trace().clone());
        let digest = self.layers.digest(&trace);
        self.service_traces
            .insert(key, (Arc::clone(&trace), digest));
        (trace, digest)
    }

    /// `Harness::service_cell`: one stage's request and trace digest.
    fn service_cell(
        &mut self,
        cfg: &GpuConfig,
        technique: Technique,
        id: &str,
        stage: usize,
    ) -> (SimRequest, Digest) {
        let (trace, digest) = self.service_trace(id, stage);
        let s = &self.frames[id].stages()[stage];
        let (technique, rewrite) = if s.rewritable() {
            (technique, true)
        } else {
            (path_technique(technique.path()), false)
        };
        let req = SimRequest {
            config: cfg.clone(),
            technique,
            trace,
            rewrite,
            telemetry: None,
            want_chrome: false,
            passes: PassPipeline::empty(),
            stage: Some(s.name().to_string()),
        };
        self.request(cfg, technique, rewrite, id, stage);
        (req, digest)
    }

    /// `Harness::service_run` on the store: the cells in order.
    fn service_run(&self, cells: Vec<(SimRequest, Digest)>) -> Vec<KernelReport> {
        let store = self.store.as_deref();
        cells
            .iter()
            .map(|(req, digest)| {
                let result = self.layers.exec(store, req, digest);
                result.expect("kernel must drain").report
            })
            .collect()
    }

    /// `Harness::gradcomp`.
    fn gradcomp(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> KernelReport {
        let key = (cfg.name.clone(), technique, id.to_string());
        if let Some(hit) = self.gradcomp.get(&key) {
            return hit.clone();
        }
        let rewritable = self.frames[id]
            .stages()
            .iter()
            .position(|s| s.rewritable())
            .expect("every grid frame has a rewritable stage");
        let report = if self.store.is_some() {
            let cell = self.service_cell(cfg, technique, id, rewritable);
            self.service_run(vec![cell]).remove(0)
        } else {
            let sim = self.sim_for(cfg, technique.path());
            let piped = self.optimized(id, rewritable);
            self.request(cfg, technique, true, id, rewritable);
            let prepared = self.layers.rewrite(technique, &piped);
            self.layers
                .simulate(&sim, &prepared)
                .expect("kernel must drain")
                .0
        };
        self.gradcomp.insert(key, report.clone());
        report
    }

    /// `Harness::iteration`.
    fn iteration(&mut self, cfg: &GpuConfig, technique: Technique, id: &str) -> IterationReport {
        let key = (cfg.name.clone(), technique, id.to_string());
        if let Some(hit) = self.iteration.get(&key) {
            return hit.clone();
        }
        let frame = Arc::clone(&self.frames[id]);
        let stages = 0..frame.stages().len();
        let report = if self.store.is_some() {
            let cells = stages
                .map(|stage| self.service_cell(cfg, technique, id, stage))
                .collect();
            IterationReport {
                kernels: self.service_run(cells),
            }
        } else {
            let sim = self.sim_for(cfg, technique.path());
            let optimized: Vec<_> = stages.map(|stage| self.optimized(id, stage)).collect();
            let mut kernels = Vec::with_capacity(optimized.len());
            for (stage, (s, trace)) in frame.stages().iter().zip(&optimized).enumerate() {
                let rewrite = s.role() == StageRole::Rewritable;
                let keyed = if rewrite {
                    technique
                } else {
                    path_technique(technique.path())
                };
                self.request(cfg, keyed, rewrite, id, stage);
                let prepared = if rewrite {
                    self.layers.rewrite(technique, trace)
                } else {
                    std::borrow::Cow::Borrowed(trace.as_ref())
                };
                kernels.push(
                    self.layers
                        .simulate(&sim, &prepared)
                        .expect("iteration must drain")
                        .0,
                );
            }
            IterationReport { kernels }
        };
        self.iteration.insert(key, report.clone());
        report
    }
}
