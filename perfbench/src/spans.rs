//! Wall-time spans around the benchmark's own calls into each layer.
//!
//! Spans are held in memory in an [`obs::TraceRecorder`] (name, start, end,
//! parent, and an `iter` argument naming the iteration) and written at exit
//! as Chrome `trace_event` JSON through `obs::export::chrome_trace_json`,
//! so the file loads beside `bench_json --trace-out`'s virtual-time trace.
//! A span's category is the layer it times. With tracing off every call is
//! a no-op that never reads the clock.

use obs::{SpanId, TraceRecorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Category of the per-iteration root span: the harness's own glue.
pub const BENCH: &str = "bench";
/// Category of spans that sit outside every iteration (primitive probes).
pub const PROBE: &str = "probe";

pub struct Tracer {
    rec: Option<(TraceRecorder, Instant)>,
    /// Recording is paused while the untraced half of a traced run runs.
    active: bool,
}

impl Tracer {
    pub fn new(on: bool, seed: u64) -> Self {
        Self {
            rec: on.then(|| (TraceRecorder::new(seed), Instant::now())),
            active: on,
        }
    }

    /// Whether this run records spans at all.
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Pauses or resumes recording; a no-op when tracing is off.
    pub fn set_active(&mut self, active: bool) {
        self.active = active && self.rec.is_some();
    }

    fn now_ns(t0: &Instant) -> f64 {
        t0.elapsed().as_nanos() as f64
    }

    fn ns_since(t0: &Instant, at: Instant) -> f64 {
        at.saturating_duration_since(*t0).as_nanos() as f64
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn open(&mut self, name: &str, layer: &'static str) -> Option<SpanId> {
        if !self.active {
            return None;
        }
        let (rec, t0) = self.rec.as_mut()?;
        let now = Self::now_ns(t0);
        Some(rec.open(name, layer, "host", now))
    }

    /// Opens an iteration root span tagged with its iteration id.
    pub fn open_iter(&mut self, iter: u64) -> Option<SpanId> {
        self.open_iter_at(iter, Instant::now())
    }

    /// [`Self::open_iter`] starting at `at`.
    pub fn open_iter_at(&mut self, iter: u64, at: Instant) -> Option<SpanId> {
        if !self.active {
            return None;
        }
        let (rec, t0) = self.rec.as_mut()?;
        let id = rec.open("iteration", BENCH, "host", Self::ns_since(t0, at));
        rec.annotate(id, "iter", iter);
        Some(id)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        self.close_at(id, Instant::now());
    }

    /// Closes `id` (the innermost open span) at `at`.
    pub fn close_at(&mut self, id: Option<SpanId>, at: Instant) {
        if let (Some(id), Some((rec, t0))) = (id, self.rec.as_mut()) {
            rec.close(id, Self::ns_since(t0, at));
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, layer);
        let r = f();
        self.close(id);
        r
    }

    /// Records a finished span of `layer` between two instants under the
    /// innermost open span, for work the benchmark cannot wrap in a call.
    pub fn leaf_between(&mut self, name: &str, layer: &'static str, start: Instant, end: Instant) {
        if !self.active {
            return;
        }
        if let Some((rec, t0)) = self.rec.as_mut() {
            let (start, end) = (Self::ns_since(t0, start), Self::ns_since(t0, end));
            rec.leaf(name, layer, "host", start, end, Vec::new());
        }
    }

    /// Durations in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.rec.as_ref().map_or_else(Vec::new, |(rec, _)| {
            rec.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() / 1e6)
                .collect()
        })
    }

    /// Self time per layer summed over every iteration tree (spans under
    /// an iteration root), in ms: a span's duration minus the part its
    /// children cover. The layers add up to the iterations' total.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some((rec, _)) = self.rec.as_ref() else {
            return out;
        };
        let spans = rec.spans();
        let index: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect();
        let mut child_ns = vec![0.0f64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| index.get(&p.0)) {
                child_ns[*p] += s.duration_ns();
            }
        }
        let in_iteration = |mut i: usize| loop {
            let s = &spans[i];
            match s.parent.and_then(|p| index.get(&p.0)) {
                Some(&p) => i = p,
                None => return s.name == "iteration",
            }
        };
        for (i, s) in spans.iter().enumerate() {
            if in_iteration(i) {
                *out.entry(s.cat).or_insert(0.0) += (s.duration_ns() - child_ns[i]) / 1e6;
            }
        }
        out
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome(&self, path: &str) -> Result<(), String> {
        let Some((rec, _)) = self.rec.as_ref() else {
            return Ok(());
        };
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        }
        std::fs::write(path, obs::export::chrome_trace_json(rec))
            .map_err(|e| format!("writing {path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_iteration() {
        let mut t = Tracer::new(true, 1);
        let it = t.open_iter(0);
        t.time("child", "ckks", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(it);
        t.time("probe", PROBE, || ());
        let total: f64 = t.durations_ms("iteration").iter().sum();
        let layers = t.self_ms_by_layer();
        let sum: f64 = layers.values().sum();
        assert!((sum - total).abs() < 1e-9, "{layers:?} vs {total}");
        assert!(layers["ckks"] >= 2.0);
        assert!(!layers.contains_key(PROBE));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let id = t.open_iter(0);
        assert!(id.is_none());
        t.close(id);
        assert!(t.self_ms_by_layer().is_empty());
    }
}
