//! Span and counter recorder for the traced run.
//!
//! Spans are recorded from benchmark code around each call into a
//! layer's public functions. Each thread keeps a stack of open spans so
//! a span's self time (its duration minus the part its child spans
//! cover) is exact even when the daemon's worker threads nest spans
//! concurrently. Totals are merged under one lock per closed span; the
//! untraced run never touches a recorder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static OPEN: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Per-layer time totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    /// Sum of span durations, seconds.
    pub busy_s: f64,
    /// Sum of span durations minus their child spans, seconds.
    pub self_s: f64,
}

/// Span totals and counters of one traced pass.
#[derive(Default)]
pub struct Recorder {
    times: Mutex<BTreeMap<&'static str, LayerTime>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Recorder {
    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        OPEN.with(|s| s.borrow_mut().push(0.0));
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed().as_secs_f64();
        let child = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().expect("span stack underflow");
            if let Some(parent) = s.last_mut() {
                *parent += d;
            }
            child
        });
        let mut times = self.times.lock().expect("recorder poisoned");
        let t = times.entry(layer).or_default();
        t.busy_s += d;
        t.self_s += d - child;
        out
    }

    /// Adds `by` to counter `name`. Counters are integers so totals do
    /// not depend on the order concurrent threads add in.
    pub fn add(&self, name: &'static str, by: u64) {
        *self
            .counts
            .lock()
            .expect("recorder poisoned")
            .entry(name)
            .or_default() += by;
    }

    /// Time totals of `layer` (zero if it never ran).
    pub fn time(&self, layer: &str) -> LayerTime {
        let times = self.times.lock().expect("recorder poisoned");
        times.get(layer).copied().unwrap_or_default()
    }

    /// Counter `name` (zero if never added to).
    pub fn count(&self, name: &str) -> u64 {
        let counts = self.counts.lock().expect("recorder poisoned");
        counts.get(name).copied().unwrap_or(0)
    }

    /// Every counter, by name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts.lock().expect("recorder poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::default();
        rec.span("outer", || {
            rec.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = rec.time("outer");
        let inner = rec.time("inner");
        assert!(outer.busy_s >= inner.busy_s);
        assert!(outer.self_s < 0.01, "outer self {}", outer.self_s);
        assert!((inner.busy_s - inner.self_s).abs() < 1e-12);
        assert_eq!(rec.time("absent").busy_s, 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::default();
        rec.add("a", 1);
        rec.add("a", 2);
        assert_eq!(rec.count("a"), 3);
        assert_eq!(rec.count("b"), 0);
    }
}
