//! Traced calls into each layer's public entry points.
//!
//! Every function here makes exactly the call the program makes at that
//! point (`WorkloadSpec::build`, `PassPipeline::run`,
//! `Technique::prepare_cow`, `Simulator::run*`, `trace_digest`,
//! `request_key`, `ResultStore::get`/`put`, `proto::write_frame`/
//! `read_frame`) inside a span of that layer, and counts the work it did.
//! [`Layers::exec`] strings them together in the order
//! `sim_service::exec::run_cell_with_digest` does.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Cursor, Read};
use std::sync::Mutex;

use arc_core::passes::PassPipeline;
use arc_core::technique::Technique;
use arc_workloads::{FrameTrace, WorkloadSpec};
use gpu_sim::{KernelReport, KernelTelemetry, SimError, Simulator, TechniquePath};
use serde::{Deserialize, Serialize};
use sim_service::proto::{read_frame, write_frame, MAX_FRAME_BYTES};
use sim_service::{
    request_key, trace_digest, Digest, ResultStore, SimRequest, SimResult, StoredValue,
};
use warp_trace::KernelTrace;

use crate::spans::Recorder;

/// A recorder plus the bookkeeping the layer counters need.
#[derive(Default)]
pub struct Layers {
    /// Span totals and counters.
    pub rec: Recorder,
    /// Canonical JSON size of each digested trace, so `key.digest_mb`
    /// costs one extra serialization per distinct trace, not per call.
    json_len: Mutex<HashMap<Digest, usize>>,
}

fn json_len<T: Serialize>(value: &T) -> usize {
    serde_json::to_string(value)
        .expect("benchmark values serialize")
        .len()
}

/// Size of the store object `key` names, zero if it is absent.
fn object_bytes(store: &ResultStore, key: &Digest) -> u64 {
    let path = store
        .root()
        .join("objects")
        .join(format!("{}.json", key.to_hex()));
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Layers {
    /// Work done only to count, kept out of every layer's self time.
    fn bookkeeping<T>(&self, f: impl FnOnce() -> T) -> T {
        self.rec.span("trace", f)
    }

    /// `WorkloadSpec::build`.
    pub fn build(&self, spec: &WorkloadSpec) -> FrameTrace {
        let frame = self.rec.span("workloads", || spec.build());
        let bytes: usize =
            self.bookkeeping(|| frame.stages().iter().map(|s| json_len(s.trace())).sum());
        self.rec.add("workloads.frames", 1);
        self.rec
            .add("workloads.stages", frame.stages().len() as u64);
        self.rec.add("workloads.trace_bytes", bytes as u64);
        frame
    }

    /// `PassPipeline::run`.
    pub fn passes<'t>(
        &self,
        passes: &PassPipeline,
        trace: &'t KernelTrace,
    ) -> Cow<'t, KernelTrace> {
        self.rec.add("passes.calls", 1);
        self.rec.span("passes", || passes.run(trace).0)
    }

    /// `Technique::prepare_cow`.
    pub fn rewrite<'t>(
        &self,
        technique: Technique,
        trace: &'t KernelTrace,
    ) -> Cow<'t, KernelTrace> {
        let out = self.rec.span("technique", || technique.prepare_cow(trace));
        if matches!(out, Cow::Owned(_)) {
            self.rec.add("technique.rewrites", 1);
        }
        out
    }

    /// `Simulator::run_with_telemetry` (plain `run` is the same call
    /// with telemetry off).
    pub fn simulate(
        &self,
        sim: &Simulator,
        trace: &KernelTrace,
    ) -> Result<(KernelReport, Option<KernelTelemetry>), SimError> {
        let out = self.rec.span("gpu_sim", || sim.run_with_telemetry(trace))?;
        self.rec.add("gpu_sim.runs", 1);
        self.rec.add("gpu_sim.cycles", out.0.cycles);
        self.rec
            .add("gpu_sim.instructions", out.0.counters.instructions_issued);
        Ok(out)
    }

    /// `sim_service::trace_digest`.
    pub fn digest(&self, trace: &KernelTrace) -> Digest {
        let d = self.rec.span("key", || trace_digest(trace));
        let len = self.bookkeeping(|| {
            *self
                .json_len
                .lock()
                .expect("json size cache poisoned")
                .entry(d)
                .or_insert_with(|| json_len(trace))
        });
        self.rec.add("key.digests", 1);
        self.rec.add("key.digest_bytes", len as u64);
        d
    }

    /// `sim_service::request_key`.
    pub fn key(&self, req: &SimRequest, digest: &Digest) -> Digest {
        self.rec.span("key", || request_key(req, digest))
    }

    /// `ResultStore::get`.
    pub fn get(&self, store: &ResultStore, key: &Digest) -> Option<StoredValue> {
        let hit = self.rec.span("store.get", || store.get(key));
        match &hit {
            Some(_) => {
                self.rec.add("store.hits", 1);
                let bytes = self.bookkeeping(|| object_bytes(store, key));
                self.rec.add("store.bytes", bytes);
            }
            None => self.rec.add("store.misses", 1),
        }
        hit
    }

    /// `ResultStore::put`.
    pub fn put(
        &self,
        store: &ResultStore,
        key: &Digest,
        report: &KernelReport,
        telemetry: Option<&KernelTelemetry>,
    ) -> io::Result<()> {
        self.rec
            .span("store.put", || store.put(key, report, telemetry, None))?;
        self.rec.add("store.puts", 1);
        let bytes = self.bookkeeping(|| object_bytes(store, key));
        self.rec.add("store.bytes", bytes);
        Ok(())
    }

    /// `proto::write_frame` into memory: the whole encode, without the
    /// socket write (which can block on the peer).
    pub fn encode<T: Serialize>(&self, value: &T) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        match self
            .rec
            .span("wire.encode", || write_frame(&mut buf, value))
        {
            Ok(()) => {
                self.rec.add("wire.frames", 1);
                self.rec.add("wire.bytes_sent", buf.len() as u64);
                Ok(buf)
            }
            Err(e) => {
                if e.to_string().contains("frame too large") {
                    self.rec.add("wire.refused", 1);
                }
                Err(e)
            }
        }
    }

    /// `proto::read_frame` over one frame already read off the socket.
    pub fn decode<T: Deserialize>(&self, frame: &[u8]) -> io::Result<T> {
        let value = self
            .rec
            .span("wire.decode", || read_frame(&mut Cursor::new(frame)))?;
        value.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty frame"))
    }

    /// `sim_service::exec::run_cell_with_digest`, call for call.
    pub fn exec(
        &self,
        store: Option<&ResultStore>,
        req: &SimRequest,
        digest: &Digest,
    ) -> Result<SimResult, SimError> {
        let key = store.map(|s| (s, self.key(req, digest)));
        if let Some((store, key)) = &key {
            if let Some(hit) = self.get(store, key) {
                if req.telemetry.is_none() || hit.telemetry.is_some() {
                    return Ok(SimResult {
                        report: hit.report,
                        telemetry: req.telemetry.as_ref().and(hit.telemetry),
                        chrome: None,
                        cached: true,
                    });
                }
            }
        }
        let mut sim = Simulator::new(req.config.clone(), req.technique.path())?;
        if let Some(t) = &req.telemetry {
            sim = sim.with_telemetry(t.clone());
        }
        let piped = self.passes(&req.passes, &req.trace);
        let prepared = if req.rewrite {
            self.rewrite(req.technique, &piped)
        } else {
            Cow::Borrowed(piped.as_ref())
        };
        let (report, telemetry) = self.simulate(&sim, &prepared)?;
        if let Some((store, key)) = &key {
            let _ = self.put(store, key, &report, telemetry.as_ref());
        }
        Ok(SimResult {
            report,
            telemetry,
            chrome: None,
            cached: false,
        })
    }
}

/// Reads one whole frame (length prefix included) off `r` without
/// decoding it; `None` on a clean close between frames.
pub fn read_raw<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len);
    if n > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame over cap"));
    }
    let mut frame = vec![0u8; 4 + n as usize];
    frame[..4].copy_from_slice(&len);
    r.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}
