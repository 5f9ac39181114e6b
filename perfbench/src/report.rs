//! Metric records, the metric catalogue shared with `BENCHMARK.json`, the
//! small statistics the workloads need, and the JSON output.

use crate::speed::{HostTime, Measure};
use crate::{Samples, SetupTimes};
use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Checked operations (bootstraps, HE steps, grid cells, requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Every end-to-end metric this workload reports, shared and its own.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics from the traced run (empty without `--trace 1`).
    pub layers: Vec<Metric>,
}

/// `BENCHMARK.json` at the repository root, the one catalogue of metric
/// names and units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), in its order. The result line carries
/// exactly these; with `per_layer`, a layer a workload never enters
/// reports 0 (no calls, no time).
///
/// # Panics
///
/// Panics if the list is missing or an entry lacks a string `name` or
/// `unit`.
pub fn declared(list: &str) -> Vec<(&'static str, &'static str)> {
    let text = BENCHMARK_JSON;
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list:?} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("BENCHMARK.json list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| -> &'static str {
                let at = entry
                    .find(&format!("\"{f}\""))
                    .unwrap_or_else(|| panic!("{list} entry without {f:?}"));
                entry[at..].split('"').nth(3).expect("string value")
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Linear-interpolated percentile (`q` in [0, 1]) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if s[lo] == s[hi] {
        // Also keeps an infinite sample from turning into NaN.
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics every workload shares, from the host time the
/// workload reports ([`crate::speed::Measure`]); `ops_per_iter` converts
/// iterations to operations. `wall_ops_per_s` is the run's throughput,
/// all operations over all timed time, so it is not just the reciprocal
/// of the median. Where the reported time is not wall time, the same
/// timings in wall time (`wallclock_*`) follow, and for scaled times the
/// host's relative speed; they stay off the result line.
pub fn shared_metrics(
    setup: &SetupTimes,
    samples: &Samples,
    host: &HostTime,
    ops_per_iter: f64,
    success_ratio: f64,
) -> Vec<Metric> {
    let ops_per_s = |ms: &[f64]| ops_per_iter * ms.len() as f64 * 1e3 / ms.iter().sum::<f64>();
    let mut out = vec![
        metric("iter_ms_p50", median(&samples.reported), "ms"),
        metric("wall_ops_per_s", ops_per_s(&samples.reported), "1/s"),
        metric("success_ratio", success_ratio, "ratio"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        metric("setup_s", median(&setup.reported), "s"),
    ];
    if host.measure() != Measure::Wall {
        out.extend([
            metric("wallclock_iter_ms_p50", median(&samples.untraced), "ms"),
            metric("wallclock_ops_per_s", ops_per_s(&samples.untraced), "1/s"),
            metric("wallclock_setup_s", median(&setup.wall), "s"),
        ]);
    }
    out.extend(host.relative().map(|r| metric("host_speed", r, "ratio")));
    out
}

/// `iter_ms_p90`, reported only where a run has at least 100 iterations
/// (ten samples beyond the percentile).
pub fn p90_metric(iter_ms: &[f64]) -> Option<Metric> {
    (iter_ms.len() >= 100).then(|| metric("iter_ms_p90", percentile(iter_ms, 0.9), "ms"))
}

fn json_number(out: &mut String, v: f64) -> Result<(), String> {
    if !v.is_finite() {
        return Err(format!("non-finite metric value {v}"));
    }
    write!(out, "{v}").expect("writing to a String");
    Ok(())
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": {{\"value\": ", m.name).expect("writing to a String");
        json_number(&mut out, m.value).map_err(|e| format!("{}: {e}", m.name))?;
        write!(out, ", \"unit\": \"{}\"}}", m.unit).expect("writing to a String");
    }
    out.push('}');
    Ok(out)
}

/// JSON string literal with the few escapes environment values can need.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
    }

    #[test]
    fn non_finite_values_are_refused() {
        assert!(metrics_json(&[metric("x", f64::NAN, "ms")]).is_err());
        assert_eq!(
            metrics_json(&[metric("x", 1.5, "ms")]).unwrap(),
            "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn catalogue_is_read_from_benchmark_json() {
        let e2e = declared("end_to_end");
        assert!(e2e.contains(&("setup_s", "s")), "{e2e:?}");
        assert!(e2e.contains(&("iter_ms_p50", "ms")), "{e2e:?}");
        let layers = declared("per_layer");
        assert!(
            layers.contains(&("ntt.limb_transforms", "count")),
            "{layers:?}"
        );
        assert!(
            layers.contains(&("serving.gen_us_per_request", "us")),
            "{layers:?}"
        );
    }
}
