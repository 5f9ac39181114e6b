//! `fleet`: open loop in virtual time with the `SoakConfig::fleet_chaos`
//! shape (4 shards × 2 lanes, background bank flips, one shard storm, one
//! stuck-lane window). The benchmark generates the requests from its seed
//! with `TraceGen` and streams them through `ShardedEngine::run_stream`;
//! an iteration is one block of [`BLOCK`] requests, timed in host time.
//!
//! The same seeded stream is replayed until the time budget is spent;
//! every replay must reproduce the first one's virtual outcome exactly,
//! and the first one must agree with `run_soak_stream`, whose invariant
//! checks run on the same config and seed. A short ladder of offered rates
//! then finds `virtual_capacity_rps`.

use crate::report::{median, metric, p90_metric, percentile, shared_metrics, Metric, RunResult};
use crate::spans::Tracer;
use crate::speed::{HostTime, Measure, Stopwatch};
use crate::{repeat_setup, span_metrics, Args, Samples};
use serving::request::{Outcome, Rejected, Request, Response};
use serving::shard::ShardedEngine;
use serving::soak::{run_soak_stream, shard_config_for, SoakConfig, StreamSummary, TraceGen};
use serving::ServingConfig;
use std::cell::RefCell;
use std::time::Instant;

/// Requests per iteration: one `run_stream` chunk, so a block's host time
/// is its generation followed by its service.
const BLOCK: usize = 1024;
/// Requests per stream.
const STREAM: usize = 40 * BLOCK;
/// Requests per capacity-ladder rung.
const RUNG: usize = 16 * BLOCK;
/// Offered load of each rung as `SoakConfig::arrival_factor` (mean gap /
/// (reference cost / lanes)): lightest first.
const LADDER: &[f64] = &[1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5];
/// Latency limit on p99 for the capacity ladder, in multiples of the
/// reference request cost (the wide linear transform on the serving
/// platform).
const P99_LIMIT_REFS: f64 = 4.0;

fn config(seed: u64, requests: usize) -> SoakConfig {
    SoakConfig {
        requests,
        ..SoakConfig::fleet_chaos(seed)
    }
}

/// The engine `run_soak_stream` builds for `cfg`; the default serving
/// knobs are the ones the fleet-chaos shape uses.
fn engine(cfg: &SoakConfig) -> ShardedEngine {
    ShardedEngine::new(
        ServingConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            ..ServingConfig::a100_default(cfg.seed)
        },
        shard_config_for(cfg),
    )
}

/// Virtual outcome of one stream, tallied from its responses.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    requests: u64,
    completed: u64,
    deadline_misses: u64,
    cancelled: u64,
    integrity_failures: u64,
    shed_queue_full: u64,
    shed_infeasible: u64,
    all_shards_unhealthy: u64,
    rerouted: u64,
    last_finish_ns: f64,
    /// Arrival → finish per request (ns), in arrival order; a request that
    /// did not complete in time counts as infinitely late. The capacity
    /// ladder judges its latency limit on these.
    latency_ns: Vec<f64>,
    /// Arrival → finish (ns) of every request that ran to its finish, in
    /// time or late: the samples of `virtual_latency_us_*`.
    finished_ns: Vec<f64>,
    /// Arrival → start and start → finish of completed requests (ns).
    queue_wait_ns: Vec<f64>,
    service_ns: Vec<f64>,
}

impl Tally {
    fn observe(&mut self, arrival_ns: f64, r: &Response) {
        self.requests += 1;
        let mut o = &r.outcome;
        loop {
            o = match o {
                Outcome::Rerouted { outcome, .. } => {
                    self.rerouted += 1;
                    outcome
                }
                Outcome::Hedged { outcome, .. } | Outcome::Batched { outcome, .. } => outcome,
                _ => break,
            };
        }
        let mut late = f64::INFINITY;
        match *o {
            Outcome::Completed {
                start_ns,
                finish_ns,
                ..
            } => {
                self.completed += 1;
                late = finish_ns - arrival_ns;
                self.finished_ns.push(late);
                self.queue_wait_ns.push(start_ns - arrival_ns);
                self.service_ns.push(finish_ns - start_ns);
                self.last_finish_ns = self.last_finish_ns.max(finish_ns);
            }
            Outcome::DeadlineMiss { finish_ns, .. } => {
                self.deadline_misses += 1;
                self.finished_ns.push(finish_ns - arrival_ns);
                self.last_finish_ns = self.last_finish_ns.max(finish_ns);
            }
            Outcome::Cancelled {
                start_ns,
                consumed_ns,
                ..
            } => {
                self.cancelled += 1;
                self.last_finish_ns = self.last_finish_ns.max(start_ns + consumed_ns);
            }
            Outcome::IntegrityFailure { finish_ns, .. } => {
                self.integrity_failures += 1;
                self.last_finish_ns = self.last_finish_ns.max(finish_ns);
            }
            Outcome::Rejected(Rejected::QueueFull) => self.shed_queue_full += 1,
            Outcome::Rejected(Rejected::DeadlineInfeasible) => self.shed_infeasible += 1,
            Outcome::Rejected(Rejected::AllShardsUnhealthy) => self.all_shards_unhealthy += 1,
            Outcome::Rerouted { .. } | Outcome::Hedged { .. } | Outcome::Batched { .. } => {
                unreachable!("unwrapped above")
            }
        }
        self.latency_ns.push(late);
    }

    /// `virtual_latency_us_p50` and `_p99` over the requests that ran to
    /// their finish. Shed and cancelled requests have no finish time;
    /// `success_ratio` counts them, so the percentiles stay finite however
    /// many there are.
    fn latency_metrics(&self) -> Result<[Metric; 2], String> {
        if self.finished_ns.is_empty() {
            return Err("no request ran to its finish".into());
        }
        Ok([
            metric(
                "virtual_latency_us_p50",
                percentile(&self.finished_ns, 0.5) / 1e3,
                "vus",
            ),
            metric(
                "virtual_latency_us_p99",
                percentile(&self.finished_ns, 0.99) / 1e3,
                "vus",
            ),
        ])
    }

    /// Completed requests per virtual second.
    fn virtual_rps(&self) -> f64 {
        self.completed as f64 / (self.last_finish_ns * 1e-9)
    }

    /// Disagreements with `run_soak_stream`'s summary of the same stream.
    fn mismatches(&self, s: &StreamSummary) -> Vec<String> {
        let pairs = [
            ("requests", self.requests, s.requests),
            ("completed", self.completed, s.completed),
            ("deadline_misses", self.deadline_misses, s.deadline_misses),
            ("cancelled", self.cancelled, s.cancelled),
            (
                "integrity_failures",
                self.integrity_failures,
                s.integrity_failures,
            ),
            ("shed_queue_full", self.shed_queue_full, s.shed_queue_full),
            ("shed_infeasible", self.shed_infeasible, s.shed_infeasible),
            (
                "all_shards_unhealthy",
                self.all_shards_unhealthy,
                s.all_shards_unhealthy,
            ),
            ("rerouted", self.rerouted, s.rerouted),
        ];
        let mut out: Vec<String> = pairs
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(k, a, b)| format!("{k}: benchmark {a} vs soak {b}"))
            .collect();
        if self.last_finish_ns.to_bits() != s.last_finish_ns.to_bits() {
            out.push(format!(
                "last finish: benchmark {} vs soak {}",
                self.last_finish_ns, s.last_finish_ns
            ));
        }
        out
    }
}

/// `TraceGen` with the benchmark's timing around it: a lap per block,
/// the host time it reports between blocks (when timed), and (traced) the
/// generator's own time per block.
struct Timed<'a> {
    gen: TraceGen,
    arrivals: &'a RefCell<Vec<f64>>,
    tr: &'a mut Tracer,
    host: Option<&'a mut HostTime>,
    block_start: Option<(Stopwatch, Option<obs::SpanId>)>,
    gen_ns: u128,
    blocks_ms: Vec<f64>,
    reported_ms: Vec<f64>,
    gen_ms: Vec<f64>,
    pulled: u64,
    first_iter: u64,
}

impl Timed<'_> {
    /// Ends the running block.
    fn end_block(&mut self) {
        if let Some((sw, root)) = self.block_start.take() {
            let lap = sw.lap();
            let (start, now) = (sw.wall, Instant::now());
            if self.tr.active() {
                let gen_end = start + std::time::Duration::from_nanos(self.gen_ns as u64);
                self.tr
                    .leaf_between("trace_gen", "trace_gen", start, gen_end);
                self.tr
                    .leaf_between("serving.run_stream", "serving", gen_end, now);
                self.gen_ms.push(self.gen_ns as f64 / 1e6);
            }
            self.tr.close_at(root, now);
            self.blocks_ms.push(lap.wall_ms);
            if let Some(host) = self.host.as_deref_mut() {
                self.reported_ms.push(host.report(lap));
            }
            self.gen_ns = 0;
        }
    }
}

impl Iterator for Timed<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.pulled.is_multiple_of(BLOCK as u64) {
            self.end_block();
            if self.gen.size_hint().0 == 0 {
                return None;
            }
            // After any probes that ended the previous block.
            let sw = Stopwatch::start();
            let iter = self.first_iter + self.pulled / BLOCK as u64;
            let root = self.tr.open_iter_at(iter, sw.wall);
            self.block_start = Some((sw, root));
        }
        let r = if self.tr.active() {
            let t = Instant::now();
            let r = self.gen.next();
            self.gen_ns += t.elapsed().as_nanos();
            r
        } else {
            self.gen.next()
        }?;
        self.arrivals.borrow_mut().push(r.arrival_ns);
        self.pulled += 1;
        Some(r)
    }
}

/// One stream's virtual outcome and host times (ms) per block.
struct Streamed {
    tally: Tally,
    blocks_ms: Vec<f64>,
    /// Block times in the host time the workload reports (empty without
    /// `host`).
    reported_ms: Vec<f64>,
    /// Generator time per block (traced blocks only).
    gen_ms: Vec<f64>,
}

/// Streams `cfg` once, turning every block's lap into the reported host
/// time when `host` is given.
fn stream(
    cfg: &SoakConfig,
    tr: &mut Tracer,
    host: Option<&mut HostTime>,
    first_iter: u64,
) -> Result<Streamed, String> {
    let arrivals = RefCell::new(Vec::with_capacity(cfg.requests));
    let mut engine = engine(cfg);
    let mut timed = Timed {
        gen: TraceGen::new(cfg),
        arrivals: &arrivals,
        tr,
        host,
        block_start: None,
        gen_ns: 0,
        blocks_ms: Vec::new(),
        reported_ms: Vec::new(),
        gen_ms: Vec::new(),
        pulled: 0,
        first_iter,
    };
    let mut tally = Tally::default();
    engine
        .run_stream(
            &mut timed,
            |r| tally.observe(arrivals.borrow()[r.id as usize], r),
            None,
        )
        .map_err(|e| format!("engine error: {e}"))?;
    timed.end_block();
    Ok(Streamed {
        tally,
        blocks_ms: timed.blocks_ms,
        reported_ms: timed.reported_ms,
        gen_ms: timed.gen_ms,
    })
}

/// Highest ladder rate, in offered requests per virtual second, whose p99
/// latency meets the limit with no growing backlog; 0 if none does.
fn capacity(seed: u64, tr: &mut Tracer) -> Result<f64, String> {
    let mut best = 0.0f64;
    for &factor in LADDER {
        let cfg = SoakConfig {
            arrival_factor: factor,
            ..config(seed, RUNG)
        };
        let gen = TraceGen::new(&cfg);
        let t_ref = gen.reference_cost_ns();
        let lanes = (cfg.workers * cfg.shards as usize) as f64;
        let offered_rps = lanes / (factor * t_ref) * 1e9;
        let tally = stream(&cfg, tr, None, 0)?.tally;
        let p99 = percentile(&tally.latency_ns, 0.99);
        // Backlog grows when the last quarter waits clearly longer than
        // the second (the first holds the storm windows).
        let q = &tally.latency_ns;
        let quarter = |k: usize| {
            let part: Vec<f64> = q[k * q.len() / 4..(k + 1) * q.len() / 4].to_vec();
            median(&part)
        };
        let growing = quarter(3) > 1.5 * quarter(1) + 0.1 * t_ref;
        eprintln!(
            "fleet ladder: factor {factor}: offered {offered_rps:.0}/s, p99 {:.0} us (limit {:.0}), \
             backlog {}",
            p99 / 1e3,
            P99_LIMIT_REFS * t_ref / 1e3,
            if growing { "growing" } else { "steady" }
        );
        if p99 <= P99_LIMIT_REFS * t_ref && !growing {
            best = best.max(offered_rps);
        }
    }
    Ok(best)
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    let cfg = config(args.seed, STREAM);
    let mut host = HostTime::new(Measure::ScaledCpu);
    let (setup, _) = repeat_setup(&mut host, || (TraceGen::new(&cfg), engine(&cfg)));

    let mut reference: Option<Tally> = None;
    let mut streams = 0u64;
    let mut failed = 0u64;
    let mut gen_ms = Vec::new();
    let mut phase =
        |tr: &mut Tracer, seconds: f64, active: bool| -> Result<(Vec<f64>, Vec<f64>), String> {
            tr.set_active(active);
            let start = Instant::now();
            let (mut blocks, mut reported) = (Vec::new(), Vec::new());
            while blocks.is_empty() || start.elapsed().as_secs_f64() < seconds {
                let first_iter = streams * (STREAM / BLOCK) as u64;
                let s = stream(&cfg, tr, Some(&mut host), first_iter)?;
                streams += 1;
                blocks.extend(s.blocks_ms);
                reported.extend(s.reported_ms);
                gen_ms.extend(s.gen_ms);
                match &reference {
                    None => reference = Some(s.tally),
                    Some(r) if *r != s.tally => {
                        eprintln!("fleet: replay {streams} differs from the first stream");
                        failed += STREAM as u64;
                    }
                    Some(_) => {}
                }
            }
            Ok((blocks, reported))
        };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, reported) = phase(tr, seconds, false)?;
    let traced = if args.trace {
        phase(tr, seconds, true)?.0
    } else {
        Vec::new()
    };
    let samples = Samples {
        untraced,
        reported,
        traced,
    };
    let tally = reference.ok_or("no stream ran")?;

    tr.set_active(false);
    let soak = run_soak_stream(&cfg, None).map_err(|e| format!("soak invariants: {e}"))?;
    let mismatches = tally.mismatches(&soak.summary);
    if !mismatches.is_empty() {
        eprintln!("fleet: benchmark and run_soak_stream disagree: {mismatches:?}");
        failed += STREAM as u64;
    }
    let capacity_rps = capacity(args.seed, tr)?;

    let attempted = streams * STREAM as u64;
    let completed = tally.completed as f64 / tally.requests as f64;
    let checked = (attempted - failed.min(attempted)) as f64 / attempted as f64;
    let mut result = RunResult {
        attempted,
        failed,
        end_to_end: shared_metrics(&setup, &samples, &host, BLOCK as f64, completed * checked),
        layers: Vec::new(),
    };
    result.end_to_end.extend(p90_metric(&samples.reported));
    result
        .end_to_end
        .push(metric("virtual_rps", tally.virtual_rps(), "1/s"));
    result.end_to_end.extend(tally.latency_metrics()?);
    result
        .end_to_end
        .push(metric("virtual_capacity_rps", capacity_rps, "1/s"));

    if args.trace {
        result.layers.extend(span_metrics(tr, &samples));
        result.layers.extend(layer_metrics(
            &tally,
            &soak.summary,
            &samples.traced,
            &gen_ms,
        ));
    }
    Ok(result)
}

fn layer_metrics(t: &Tally, s: &StreamSummary, traced: &[f64], gen_ms: &[f64]) -> Vec<Metric> {
    let n = t.requests as f64;
    let traced_requests = (traced.len() * BLOCK) as f64;
    let gen: f64 = gen_ms.iter().sum();
    let total: f64 = traced.iter().sum();
    vec![
        metric(
            "serving.queue_wait_us_p50",
            median(&t.queue_wait_ns) / 1e3,
            "vus",
        ),
        metric(
            "serving.queue_wait_us_p99",
            percentile(&t.queue_wait_ns, 0.99) / 1e3,
            "vus",
        ),
        metric("serving.service_us_p50", median(&t.service_ns) / 1e3, "vus"),
        metric(
            "serving.shed_ratio",
            (t.shed_queue_full + t.shed_infeasible + t.all_shards_unhealthy) as f64 / n,
            "ratio",
        ),
        metric("serving.miss_ratio", t.deadline_misses as f64 / n, "ratio"),
        metric("serving.rerouted", t.rerouted as f64, "count"),
        metric(
            "serving.all_shards_unhealthy",
            t.all_shards_unhealthy as f64,
            "count",
        ),
        metric("health.faults_absorbed", s.faults as f64, "count"),
        metric("health.breaker_skips", s.breaker_skips as f64, "count"),
        metric("shard.drains", s.drains as f64, "count"),
        metric("shard.readmits", s.readmits as f64, "count"),
        metric(
            "serving.host_us_per_request",
            (total - gen) * 1e3 / traced_requests,
            "us",
        ),
        metric(
            "serving.gen_us_per_request",
            gen * 1e3 / traced_requests,
            "us",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::request::Priority;

    fn response(id: u64, outcome: Outcome) -> Response {
        Response {
            id,
            tenant: 0,
            priority: Priority::Standard,
            label: "test",
            outcome,
        }
    }

    /// Requests that never finish lower `success_ratio` but leave the
    /// latency percentiles finite: here 2 % are shed, twice the share that
    /// would put an infinitely late request at p99.
    #[test]
    fn shed_requests_keep_latency_finite() {
        let mut t = Tally::default();
        for id in 0..1000u64 {
            let arrival = id as f64 * 100.0;
            let outcome = match id % 50 {
                0 => Outcome::Rejected(Rejected::QueueFull),
                1 => Outcome::DeadlineMiss {
                    start_ns: arrival,
                    finish_ns: arrival + 900.0,
                    deadline_ns: arrival + 800.0,
                },
                _ => Outcome::Completed {
                    start_ns: arrival + 10.0,
                    finish_ns: arrival + 500.0,
                    deadline_ns: arrival + 800.0,
                    deadline_slack_ns: 300.0,
                    faults: 0,
                    pim_fallbacks: 0,
                    breaker_skips: 0,
                },
            };
            t.observe(arrival, &response(id, outcome));
        }
        assert_eq!(
            (t.completed, t.deadline_misses, t.shed_queue_full),
            (960, 20, 20)
        );
        let [p50, p99] = t.latency_metrics().unwrap();
        assert_eq!(p50.value, 0.5);
        // 20 of the 980 finished requests were late (900 ns).
        assert_eq!(p99.value, 0.9);
        // The ladder still counts every unfinished or late request as
        // missing any limit.
        assert_eq!(percentile(&t.latency_ns, 0.99), f64::INFINITY);
    }
}
