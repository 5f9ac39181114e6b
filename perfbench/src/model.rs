//! `paper-model`: closed loop over the Fig. 8 grid. Each iteration runs
//! `workloads::run_workload` for `Workload::all()` × the five Fig. 8
//! platforms, under both `ScheduleMode::Serial` and `Pipelined`: the whole
//! virtual-time model (`core` build/passes/schedule, `gpu`, `dram`, `pim`,
//! `workloads`) with no serving and no functional CKKS.
//!
//! Checks: the OoM cells of `table5.tsv` are OoM, every other cell returns
//! a report, and every iteration's virtual numbers equal the first's bit
//! for bit.

use crate::report::{median, metric, p90_metric, shared_metrics, Metric, RunResult};
use crate::spans::{Tracer, PROBE};
use crate::speed::{HostTime, Measure, Stopwatch};
use crate::{repeat_setup, span_metrics, timed_loop, Args};
use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::schedule::ScheduleMode;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{run_workload, Workload, WorkloadNumbers};

/// The paper's Table V cells (see the file's header for the source).
const TABLE5: &str = include_str!("../table5.tsv");

/// One reference cell: `Some(ms)`, or `None` for a paper OoM cell.
struct Reference {
    platform: String,
    workload: String,
    paper_ms: Option<f64>,
}

fn references() -> Result<Vec<Reference>, String> {
    TABLE5
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let [platform, workload, ms] = f[..] else {
                return Err(format!("table5.tsv: malformed row {l:?}"));
            };
            let paper_ms = match ms {
                "OoM" => None,
                v => Some(v.parse().map_err(|e| format!("table5.tsv: {v:?}: {e}"))?),
            };
            Ok(Reference {
                platform: platform.into(),
                workload: workload.into(),
                paper_ms,
            })
        })
        .collect()
}

/// The five Fig. 8 platforms.
fn platforms() -> Vec<AnaheimConfig> {
    vec![
        AnaheimConfig::a100_baseline(),
        AnaheimConfig::a100_near_bank(),
        AnaheimConfig::a100_custom_hbm(),
        AnaheimConfig::rtx4090_baseline(),
        AnaheimConfig::rtx4090_near_bank(),
    ]
}

/// A grid cell's virtual outcome, `None` when OoM.
type Cell = (
    ScheduleMode,
    &'static str,
    &'static str,
    Option<WorkloadNumbers>,
);

fn cells_equal(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.0 == y.0
                && x.1 == y.1
                && x.2 == y.2
                && match (&x.3, &y.3) {
                    (None, None) => true,
                    (Some(p), Some(q)) => {
                        p.time_ms.to_bits() == q.time_ms.to_bits()
                            && p.energy_j.to_bits() == q.energy_j.to_bits()
                            && p.gpu_dram_gb.to_bits() == q.gpu_dram_gb.to_bits()
                            && p.pim_dram_gb.to_bits() == q.pim_dram_gb.to_bits()
                            && p.overlap_ms.to_bits() == q.overlap_ms.to_bits()
                            && p.breakdown_ms.len() == q.breakdown_ms.len()
                            && p.breakdown_ms
                                .iter()
                                .zip(&q.breakdown_ms)
                                .all(|(u, v)| u.0 == v.0 && u.1.to_bits() == v.1.to_bits())
                    }
                    _ => false,
                }
        })
}

/// Metric-name form of a kernel class label (`"(I)NTT"` → `ntt`).
fn class_key(label: &str) -> String {
    match label {
        "(I)NTT" => "ntt".into(),
        other => other
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase(),
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    let refs = references()?;
    let mut build_ms = Vec::new();
    let mut host = HostTime::new(Measure::ScaledCpu);
    let (setup, (workloads, runtimes)) = repeat_setup(&mut host, || {
        let t = Instant::now();
        let workloads = Workload::all();
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let runtimes: Vec<(ScheduleMode, Anaheim)> =
            [ScheduleMode::Serial, ScheduleMode::Pipelined]
                .into_iter()
                .flat_map(|mode| {
                    platforms()
                        .into_iter()
                        .map(move |p| (mode, Anaheim::new(p.with_schedule_mode(mode))))
                })
                .collect();
        (workloads, runtimes)
    });
    let ops_per_cell: Vec<u64> = workloads
        .iter()
        .map(|w| w.segments.iter().map(|s| s.seq.len() as u64).sum())
        .collect();

    let mut first: Option<Vec<Cell>> = None;
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut ops_per_iter = 0u64;
    let samples = timed_loop(args, tr, &mut host, 1, |tr, i| {
        let root = tr.open_iter(i);
        let t = Stopwatch::start();
        let mut cells: Vec<Cell> = Vec::with_capacity(runtimes.len() * workloads.len());
        let mut run_errors = Vec::new();
        for (mode, rt) in &runtimes {
            for w in &workloads {
                let span = tr.open(&format!("workloads.run.{}", w.name), "workloads");
                let r = run_workload(rt, w);
                tr.close(span);
                match r {
                    Ok(r) => cells.push((*mode, r.platform, w.name, r.outcome)),
                    Err(e) => run_errors.push(format!("{} on {}: {e}", w.name, rt.config().name)),
                }
            }
        }
        let lap = t.lap();
        tr.close(root);
        if !run_errors.is_empty() {
            failed += run_errors.len() as u64;
            errors.extend(run_errors);
        }
        match &first {
            None => {
                ops_per_iter = cells
                    .iter()
                    .filter(|c| c.3.is_some())
                    .map(|c| {
                        let w = workloads.iter().position(|w| w.name == c.2).expect("known");
                        ops_per_cell[w]
                    })
                    .sum();
                first = Some(cells);
            }
            Some(f) if !cells_equal(f, &cells) => {
                errors.push(format!(
                    "iteration {i}: virtual numbers differ from iteration 0"
                ));
                failed += 1;
            }
            Some(_) => {}
        }
        lap
    });
    let cells = first.ok_or("no iteration ran")?;

    // OoM cells must stay OoM; every other cell must report.
    let expect_oom = |platform: &str, workload: &str| {
        let gpu = |p: &str| {
            p.split(" +")
                .next()
                .unwrap_or(p)
                .split(" (")
                .next()
                .unwrap_or(p)
                .to_string()
        };
        refs.iter().any(|r| {
            r.paper_ms.is_none() && gpu(&r.platform) == gpu(platform) && r.workload == workload
        })
    };
    for (mode, platform, workload, outcome) in &cells {
        let oom = outcome.is_none();
        if oom != expect_oom(platform, workload) {
            errors.push(format!(
                "{workload} on {platform} ({mode:?}): {} but the paper says {}",
                if oom { "OoM" } else { "fits" },
                if oom { "it fits" } else { "OoM" },
            ));
            failed += 1;
        }
    }
    for e in &errors {
        eprintln!("paper-model: {e}");
    }

    let serial = |platform: &str, workload: &str| {
        cells
            .iter()
            .find(|c| c.0 == ScheduleMode::Serial && c.1 == platform && c.2 == workload)
            .and_then(|c| c.3.as_ref())
    };
    let fits: Vec<f64> = cells
        .iter()
        .filter_map(|c| c.3.as_ref().map(|n| n.time_ms))
        .collect();
    let geomean = (fits.iter().map(|t| t.ln()).sum::<f64>() / fits.len() as f64).exp();
    let mut errs = Vec::new();
    for r in refs.iter() {
        if let Some(paper) = r.paper_ms {
            let got = serial(&r.platform, &r.workload)
                .ok_or_else(|| format!("no Table V cell {} on {}", r.workload, r.platform))?;
            errs.push((got.time_ms - paper).abs() / paper * 100.0);
        }
    }
    let table5_err = errs.iter().sum::<f64>() / errs.len() as f64;

    let grid_cells = cells.len() as f64;
    let attempted = grid_cells as u64 * (samples.untraced.len() + samples.traced.len()) as u64;
    let mut result = RunResult {
        attempted,
        failed,
        end_to_end: shared_metrics(
            &setup,
            &samples,
            &host,
            grid_cells,
            (attempted - failed.min(attempted)) as f64 / attempted as f64,
        ),
        layers: Vec::new(),
    };
    result.end_to_end.extend(p90_metric(&samples.reported));
    result.end_to_end.extend([
        metric("virtual_ms_geomean", geomean, "vms"),
        metric("table5_err_pct", table5_err, "%"),
    ]);

    if tr.on() {
        result.layers.extend(span_metrics(tr, &samples));
        result.layers.extend(layer_metrics(
            tr,
            &samples.traced,
            &workloads,
            &runtimes,
            &cells,
            ops_per_iter,
            median(&build_ms),
        )?);
    }
    Ok(result)
}

fn layer_metrics(
    tr: &mut Tracer,
    traced: &[f64],
    workloads: &[Workload],
    runtimes: &[(ScheduleMode, Anaheim)],
    cells: &[Cell],
    ops_per_iter: u64,
    build_ms: f64,
) -> Result<Vec<Metric>, String> {
    let per_iter = traced.len().max(1) as f64;
    let mut out = vec![
        metric("build.workloads_ms", build_ms, "ms"),
        metric("schedule.ops_per_iter", ops_per_iter as f64, "count"),
        metric(
            "schedule.host_ns_per_op",
            median(traced) * 1e6 / ops_per_iter as f64,
            "ns",
        ),
    ];
    for w in workloads {
        let total: f64 = tr
            .durations_ms(&format!("workloads.run.{}", w.name))
            .iter()
            .sum();
        out.push(metric(
            format!("workloads.run_ms.{}", w.name),
            total / per_iter,
            "ms",
        ));
    }

    // Boot on A100 near-bank: where the virtual time and bytes go.
    let platform = AnaheimConfig::a100_near_bank().name;
    let boot = |mode: ScheduleMode| {
        cells
            .iter()
            .find(|c| c.0 == mode && c.1 == platform && c.2 == "Boot")
            .and_then(|c| c.3.as_ref())
            .ok_or_else(|| format!("Boot on {platform} did not run"))
    };
    let serial = boot(ScheduleMode::Serial)?;
    let mut classes: BTreeMap<String, f64> = BTreeMap::new();
    for (label, ms) in &serial.breakdown_ms {
        *classes.entry(class_key(label)).or_insert(0.0) += ms;
    }
    out.extend(
        classes
            .into_iter()
            .map(|(k, ms)| metric(format!("virtual.kernel_ms.{k}"), ms, "vms")),
    );
    out.extend([
        metric("virtual.gpu_dram_gb", serial.gpu_dram_gb, "GB"),
        metric("virtual.pim_dram_gb", serial.pim_dram_gb, "GB"),
        metric("virtual.energy_j", serial.energy_j, "J"),
        metric(
            "virtual.overlap_ms",
            boot(ScheduleMode::Pipelined)?.overlap_ms,
            "vms",
        ),
    ]);
    // GPU↔PIM transitions are per execution report, which the workload
    // aggregate drops: replay Boot's segments through the same runtime.
    let (_, rt) = runtimes
        .iter()
        .find(|(m, rt)| *m == ScheduleMode::Serial && rt.config().name == platform)
        .expect("A100 near-bank runtime");
    let w = workloads
        .iter()
        .find(|w| w.name == "Boot")
        .expect("Boot workload");
    let transitions = tr.time("core.run.Boot", PROBE, || -> Result<u64, String> {
        let mut n = 0u64;
        for seg in &w.segments {
            let r = rt.run(seg.seq.clone()).map_err(|e| e.to_string())?;
            n += u64::from(r.transitions) * seg.repeat;
        }
        Ok(n)
    })?;
    out.push(metric("virtual.transitions", transitions as f64, "count"));
    Ok(out)
}
