//! `perfbench` — the repository benchmark.
//!
//! Four workloads, each driving its own layers through their public entry
//! points: `boot` and `he-ops` time the functional CKKS library in wall
//! time, `paper-model` evaluates the analytic GPU/DRAM/PIM model over the
//! Fig. 8 grid, and `fleet` streams a seeded request trace through the
//! sharded serving engine in virtual time. See `perfbench/README.md`.
//!
//! Usage: `perfbench --workload <boot|he-ops|paper-model|fleet> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the shared end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! carries every end-to-end metric of the workload, including the ones
//! only it produces, plus the thread settings.

mod boot;
mod fleet;
mod heops;
mod model;
mod probe;
mod report;
mod spans;
mod speed;

use report::{declared, json_string, metric, metrics_json, Metric, RunResult};
use spans::Tracer;
use speed::{HostTime, Lap, Stopwatch};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <boot|he-ops|paper-model|fleet> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Boot,
    HeOps,
    PaperModel,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "boot" => Self::Boot,
            "he-ops" => Self::HeOps,
            "paper-model" => Self::PaperModel,
            "fleet" => Self::Fleet,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Boot => "boot",
            Self::HeOps => "he-ops",
            Self::PaperModel => "paper-model",
            Self::Fleet => "fleet",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Per-iteration host times (ms) of one run.
pub struct Samples {
    /// Wall times of the iterations with tracing off.
    pub untraced: Vec<f64>,
    /// The same iterations in the host time the workload reports
    /// ([`speed::Measure`]): every end-to-end timing comes from these.
    pub reported: Vec<f64>,
    /// Iterations recorded with spans (`--trace 1` only).
    pub traced: Vec<f64>,
}

/// Runs `iter` (which returns the lap of its own timed region) until
/// `args.seconds` have passed and at least `min_iters` iterations ran. A traced run spends the first half untraced and the
/// second half traced (at least one iteration), so both halves see the
/// same process state. Iteration ids count on across the halves.
pub fn timed_loop(
    args: &Args,
    tr: &mut Tracer,
    host: &mut HostTime,
    min_iters: u64,
    mut iter: impl FnMut(&mut Tracer, u64) -> Lap,
) -> Samples {
    let mut i = 0u64;
    let mut phase = |tr: &mut Tracer, seconds: f64, min: u64| {
        let start = Instant::now();
        let (mut wall, mut reported) = (Vec::new(), Vec::new());
        while (wall.len() as u64) < min || start.elapsed().as_secs_f64() < seconds {
            let lap = iter(tr, i);
            wall.push(lap.wall_ms);
            reported.push(host.report(lap));
            i += 1;
        }
        (wall, reported)
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    tr.set_active(false);
    let (untraced, reported) = phase(tr, seconds, min_iters);
    let traced = if args.trace {
        tr.set_active(true);
        phase(tr, seconds, 1).0
    } else {
        Vec::new()
    };
    Samples {
        untraced,
        reported,
        traced,
    }
}

/// Set-up samples per run: at least [`MIN_SETUPS`], and more while they
/// have taken less than [`SETUP_BUDGET_S`] in total. `setup_s` is the
/// median of the samples in the host time the workload reports.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
/// Shortest sample of [`repeat_setup`]. A shared host's speed can shift
/// between levels for tens to hundreds of ms at a time; a sample this long
/// averages a set-up of a few ms over those shifts instead of landing in
/// one level.
const SETUP_SAMPLE_S: f64 = 0.05;

/// Whether another set-up sample should run after `samples` of them took
/// `elapsed_s` in total.
pub fn more_setups(samples: usize, elapsed_s: f64) -> bool {
    samples < MIN_SETUPS || elapsed_s < SETUP_BUDGET_S
}

/// Set-up times (s) of one run: wall, and in the host time the workload
/// reports.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub wall: Vec<f64>,
    pub reported: Vec<f64>,
}

impl SetupTimes {
    pub fn push(&mut self, host: &mut HostTime, lap: Lap) {
        self.wall.push(lap.wall_ms / 1e3);
        self.reported.push(host.report(lap) / 1e3);
    }
}

/// Runs and times `setup` as [`more_setups`] asks, keeping the last
/// result. Each sample is the mean time of consecutive set-ups that
/// together take at least [`SETUP_SAMPLE_S`]. Earlier results are dropped
/// before the next set-up starts.
pub fn repeat_setup<T>(host: &mut HostTime, mut setup: impl FnMut() -> T) -> (SetupTimes, T) {
    let mut samples = SetupTimes::default();
    let start = Instant::now();
    loop {
        let t = Stopwatch::start();
        let mut n = 0u32;
        let kept = loop {
            let kept = setup();
            n += 1;
            if t.wall.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
                break kept;
            }
        };
        samples.push(host, t.lap().per(n));
        if !more_setups(samples.wall.len(), start.elapsed().as_secs_f64()) {
            return (samples, kept);
        }
    }
}

/// Per-layer metrics every traced workload reports from its spans: self
/// time per layer per traced iteration, the residual of their sum against
/// the untraced `iter_ms_p50`, and the tracing overhead.
pub fn span_metrics(tr: &Tracer, samples: &Samples) -> Vec<Metric> {
    let per_iter = samples.traced.len().max(1) as f64;
    let layers = tr.self_ms_by_layer();
    let mut out: Vec<Metric> = layers
        .iter()
        .map(|(layer, ms)| metric(format!("self_ms.{layer}"), ms / per_iter, "ms"))
        .collect();
    let untraced = report::median(&samples.untraced);
    let sum: f64 = layers.values().sum::<f64>() / per_iter;
    out.push(metric(
        "trace.residual_pct",
        (sum - untraced) / untraced * 100.0,
        "%",
    ));
    out.push(metric(
        "trace.overhead_pct",
        (report::median(&samples.traced) - untraced) / untraced * 100.0,
        "%",
    ));
    out
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn run(args: &Args) -> Result<(RunResult, Tracer), String> {
    let mut tr = Tracer::new(args.trace, args.seed);
    let result = match args.workload {
        Workload::Boot => boot::run(args, &mut tr)?,
        Workload::HeOps => heops::run(args, &mut tr)?,
        Workload::PaperModel => model::run(args, &mut tr)?,
        Workload::Fleet => fleet::run(args, &mut tr)?,
    };
    Ok((result, tr))
}

/// The `declared` metrics, in their order, taken from `measured`; a unit
/// other than the declared one is an error. For the `per_layer` list, a
/// layer the workload never enters reads 0, and a measured metric that is
/// not declared is an error. For the `end_to_end` list, every declared
/// metric must be measured; the workload's own extra metrics stay out.
fn contract_metrics(
    declared: &[(&'static str, &'static str)],
    measured: &[Metric],
    per_layer: bool,
) -> Result<Vec<Metric>, String> {
    if per_layer {
        if let Some(m) = measured
            .iter()
            .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("{} is not declared in BENCHMARK.json", m.name));
        }
    }
    declared
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok(m.clone()),
                Some(m) => Err(format!("{name} measured in {}, declared in {unit}", m.unit)),
                None if per_layer => Ok(metric(name, 0.0, unit)),
                None => Err(format!("{name} not measured")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (result, tr) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}\n{USAGE}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        );
        if let Err(e) = tr.write_chrome(&path) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
        eprintln!("perfbench: wrote wall-time trace {path}");
    }

    // The contract line carries exactly the metric lists BENCHMARK.json
    // declares, with their units; a layer the workload never enters
    // reports 0.
    let contract = if args.trace {
        contract_metrics(&declared("per_layer"), &result.layers, true)
    } else {
        contract_metrics(&declared("end_to_end"), &result.end_to_end, false)
    };
    let contract = match contract {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let (workload_json, contract_json) =
        match (metrics_json(&result.end_to_end), metrics_json(&contract)) {
            (Ok(w), Ok(c)) => (w, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        };
    let correct = result.failed == 0 && result.attempted > 0;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, \
         \"ANAHEIM_THREADS\": {}, \"ANAHEIM_PAR_PROFILE\": {}, \"end_to_end\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        parpool::num_threads(),
        json_string(&env_or("ANAHEIM_THREADS", "unset")),
        json_string(&env_or("ANAHEIM_PAR_PROFILE", "unset")),
        workload_json
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {contract_json}}}",
        result.attempted, result.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked operations failed\n{USAGE}",
            result.failed, result.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(&argv("--workload fleet --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Fleet, 7, 3.0, true)
        );
        for bad in [
            "",
            "--workload fleet --seed 7 --seconds 3",
            "--workload nope --seed 7 --seconds 3 --trace 0",
            "--workload boot --seed -1 --seconds 3 --trace 0",
            "--workload boot --seed 1 --seconds 0 --trace 0",
            "--workload boot --seed 1 --seconds 3 --trace 2",
            "--workload boot --seed 1 --seconds 3 --trace 0 --extra 1",
            "--workload boot --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn contract_lines_follow_the_declared_lists() {
        let declared = [("a_ms", "ms"), ("b", "count")];
        let measured = [metric("b", 2.0, "count"), metric("extra", 1.0, "s")];
        // End to end: every declared metric must be measured; extras stay out.
        assert!(contract_metrics(&declared, &measured, false).is_err());
        let both = [
            metric("a_ms", 1.0, "ms"),
            metric("b", 2.0, "count"),
            metric("extra", 1.0, "s"),
        ];
        let line = contract_metrics(&declared, &both, false).unwrap();
        assert_eq!(
            line.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["a_ms", "b"]
        );
        // Per layer: an undeclared layer metric is an error, a missing one is 0.
        assert!(contract_metrics(&declared, &measured, true).is_err());
        let line = contract_metrics(&declared, &measured[..1], true).unwrap();
        assert_eq!((line[0].value, line[1].value), (0.0, 2.0));
        // A unit other than the declared one is an error.
        assert!(contract_metrics(&declared, &[metric("a_ms", 1.0, "s")], true).is_err());
    }
}
