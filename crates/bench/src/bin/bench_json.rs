//! Machine-readable microbenchmarks for the limb-parallel hot path.
//!
//! Emits `BENCH_ckks.json` and `BENCH_pim.json` (arrays of
//! `{op, n, limbs, threads, ns_per_op, ns_per_op_p50, samples, ...}`
//! records) into the current directory, sweeping both the `parpool`
//! worker count and — in full mode — the paper's Table IV ring sizes
//! (N ∈ {2¹³, 2¹⁴, 2¹⁵, 2¹⁶} at matching limb depths, plus the small
//! rings the regression gate watches), so the speedup story is measured
//! where Anaheim actually lives. Also writes `BENCH_serving.json` —
//! serving-layer soak counters (completions, deadline misses, sheds,
//! breaker activity, hedge/cancellation accounting, evaluation-key batch
//! amortization, batch-aware reordering) for clean, chaos, stream-chaos,
//! batched-fleet, ordered-fleet, and
//! hedge-chaos scenarios at a fixed seed, each row carrying its
//! provenance (fault seed, lane/shard config, thread setting).
//! A single-thread `bootstrap` row times one functional bootstrap at the
//! `bootstrap_demo` parameters (one sample in `--quick` mode).
//! CKKS records carry the measured op-count breakdown (`ntt_limbs`,
//! `bconv_limb_products`, …, from `ckks::opcount`); the PIM record
//! carries the analytic per-iteration `mmac_ops` and `bytes_internal` of
//! the PAccum fleet.
//!
//! Every timed row is a median over several samples with a warmup pass
//! (`ns_per_op_p50`; the historical `ns_per_op` mean is kept so existing
//! readers of the JSON keep working), which keeps the tuner calibration
//! and the check.sh regression gates from being noise-driven.
//!
//! Usage: `bench_json [--quick] [--trace-out FILE] [--metrics-out FILE]
//! [--tune-out FILE]`
//!
//! `--quick` shrinks the parameter set and thread sweep so `scripts/check.sh`
//! can smoke-test the harness in seconds; the default configuration is what
//! `scripts/bench.sh` runs for real measurements.
//!
//! `--trace-out FILE` additionally runs the Bootstrap workload on the A100
//! near-bank platform with telemetry and writes the Chrome `trace_event`
//! JSON (load it at `ui.perfetto.dev` or `chrome://tracing`).
//! `--metrics-out FILE` writes the same run's metrics in the Prometheus
//! text format. Both are virtual-time artifacts: byte-identical for every
//! `ANAHEIM_THREADS` value.
//!
//! `--tune-out FILE` runs the parallelism calibration pass and writes a
//! `ckks_math::tune` profile (`key = value` text): measured per-op-class
//! serial costs, pool dispatch overheads, and the host's effective
//! parallelism. Point `ANAHEIM_PAR_PROFILE` at the file to drive the
//! serial-vs-parallel tuner with measured numbers instead of the seeded
//! defaults.

use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::telemetry::Telemetry;
use ckks::keys::KeyGenerator;
use ckks::keyswitch::KeySwitcher;
use ckks::opcount;
use ckks::prelude::*;
use ckks_math::poly::Format;
use ckks_math::sampling;
use pim::{
    alloc_paccum_groups, for_each_bank_parallel, paccum_alg1, LayoutPolicy, MontgomeryCtx,
    PolyGroup, PolyGroupAllocator, SimulatedBank, ELEMS_PER_CHUNK,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use workloads::{run_workload_traced, Workload};

struct Record {
    op: &'static str,
    n: usize,
    limbs: usize,
    threads: usize,
    /// Mean ns per iteration over all samples (the historical field).
    ns_per_op: f64,
    /// Median of the per-sample means — robust against a noisy sample.
    ns_per_op_p50: f64,
    /// Number of timing samples behind the two figures (1 for analytic
    /// model rows, which have no measurement noise).
    samples: usize,
    /// Extra integer fields appended to the JSON record (op-count or
    /// traffic breakdowns).
    extras: Vec<(&'static str, u64)>,
}

/// Mean and median of repeated timing samples.
#[derive(Debug, Clone, Copy)]
struct Timing {
    mean: f64,
    p50: f64,
    samples: usize,
}

/// Per-(op, ring) timing budget: how many samples to take and the floor
/// each sample must meet (iterations and wall-clock) before its mean
/// counts.
#[derive(Debug, Clone, Copy)]
struct Budget {
    samples: usize,
    min_iters: usize,
    min_millis: u128,
}

impl Timing {
    fn from_means(means: Vec<f64>) -> Timing {
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        let mut sorted = means.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mid = sorted.len() / 2;
        let p50 = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Timing {
            mean,
            p50,
            samples: means.len(),
        }
    }
}

/// One timing sample: iterate `f` until both `min_iters` and `min_millis`
/// are met, return the per-iteration mean.
fn one_sample(budget: Budget, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < budget.min_iters.max(1) || start.elapsed().as_millis() < budget.min_millis {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Times `f` with one warmup call, then takes `budget.samples` independent
/// samples; each sample iterates until both `min_iters` and `min_millis`
/// are met and records its own mean. Returns the mean-of-samples and the
/// median sample, so one descheduling blip cannot drag a row.
fn time_ns(budget: Budget, mut f: impl FnMut()) -> Timing {
    f();
    let mut means = Vec::with_capacity(budget.samples);
    for _ in 0..budget.samples.max(1) {
        means.push(one_sample(budget, &mut f));
    }
    Timing::from_means(means)
}

/// Times `f` across a whole thread sweep with the sweep points
/// *interleaved per sample round*: round r takes one sample at every
/// thread count before round r+1 starts. On a busy host, slow drift
/// (frequency scaling, noisy neighbours) then lands on every thread count
/// equally instead of biasing whichever block ran last — which is what the
/// `scripts/check.sh` small-ring gate compares. Returns one `Timing` per
/// sweep entry, in order.
fn time_sweep(budget: Budget, sweep: &[usize], mut f: impl FnMut()) -> Vec<Timing> {
    let mut means: Vec<Vec<f64>> = vec![Vec::with_capacity(budget.samples); sweep.len()];
    for &threads in sweep {
        parpool::set_threads(threads);
        f(); // warmup at each width (pool spawn, cache touch)
    }
    for _ in 0..budget.samples.max(1) {
        for (i, &threads) in sweep.iter().enumerate() {
            parpool::set_threads(threads);
            means[i].push(one_sample(budget, &mut f));
        }
    }
    means.into_iter().map(Timing::from_means).collect()
}

fn write_json(path: &str, records: &[Record]) {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"op\": \"{}\", \"n\": {}, \"limbs\": {}, \"threads\": {}, \
             \"ns_per_op\": {:.1}, \"ns_per_op_p50\": {:.1}, \"samples\": {}",
            r.op, r.n, r.limbs, r.threads, r.ns_per_op, r.ns_per_op_p50, r.samples,
        ));
        for (k, v) in &r.extras {
            s.push_str(&format!(", \"{k}\": {v}"));
        }
        s.push_str(&format!(
            "}}{}\n",
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    s.push_str("]\n");
    std::fs::write(path, s).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// Per-(op, ring) speedup of the widest sweep point over the
/// single-thread baseline, using the median figures.
fn print_summary(title: &str, records: &[Record]) {
    println!("\n{title} (speedup vs 1 thread, p50)");
    let groups: Vec<(&'static str, usize)> = {
        let mut seen = Vec::new();
        for r in records {
            if !seen.contains(&(r.op, r.n)) {
                seen.push((r.op, r.n));
            }
        }
        seen
    };
    for (op, n) in groups {
        let base = records
            .iter()
            .find(|r| r.op == op && r.n == n && r.threads == 1)
            .map(|r| r.ns_per_op_p50);
        let best = records
            .iter()
            .filter(|r| r.op == op && r.n == n)
            .max_by_key(|r| r.threads);
        if let (Some(base), Some(best)) = (base, best) {
            println!(
                "  {:24} n={:<6} {:>12.0} ns -> {:>12.0} ns @ {} threads  ({:.2}x)",
                op,
                n,
                base,
                best.ns_per_op_p50,
                best.threads,
                base / best.ns_per_op_p50
            );
        }
    }
}

fn bench_ckks(params: CkksParams, budget: Budget, sweep: &[usize], records: &mut Vec<Record>) {
    let ctx = CkksContext::new(params);
    let n = ctx.params().n();
    let level = ctx.max_level();
    let mut rng = StdRng::seed_from_u64(7);
    let mut kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.gen_secret();
    let relin = kg.gen_relin(&sk);
    let ks = KeySwitcher::new(&ctx);
    let eval = Evaluator::new(&ctx);

    let enc = Encoder::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(i as f64 * 1e-3, 0.0))
        .collect();
    let pt = enc.encode(&msg, level);
    let pk = kg.gen_public(&sk);
    let ct = pk.encrypt(&pt, &mut rng);

    let coeff = sampling::uniform(&mut rng, ctx.basis_q(level), Format::Coeff);
    let mut evalp = coeff.duplicate();
    evalp.to_eval();
    let a = sampling::uniform(&mut rng, ctx.basis_q(level), Format::Eval);

    // Measured op-count breakdown (`ckks::opcount`): one instrumented run
    // per op, outside the timed loops — the counts are exact and
    // thread-count independent, so each op's numbers are attached to every
    // sweep point of that op.
    let counts: Vec<(&'static str, opcount::OpCounts)> = {
        let mut measured = Vec::new();
        let mut measure = |op: &'static str, f: &mut dyn FnMut()| {
            opcount::reset();
            f();
            measured.push((op, opcount::snapshot()));
        };
        measure("ntt_forward_batch", &mut || {
            let mut p = coeff.duplicate();
            p.to_eval();
        });
        measure("ntt_inverse_batch", &mut || {
            let mut p = evalp.duplicate();
            p.to_coeff();
        });
        measure("hadd", &mut || {
            let _ = eval.add(&ct, &ct);
        });
        measure("keyswitch", &mut || {
            let _ = ks.switch(&a, &relin, level);
        });
        measure("mul_relin", &mut || {
            let _ = eval.mul_relin(&ct, &ct, &relin);
        });
        measure("rescale", &mut || {
            let _ = eval.rescale(&ct);
        });
        measure("automorphism", &mut || {
            let _ = evalp.automorphism(5);
        });
        opcount::reset();
        measured
    };

    // Thread counts are interleaved per sample round (`time_sweep`) so host
    // drift cannot masquerade as a per-thread-count regression.
    let mut push = |op: &'static str, timings: Vec<Timing>| {
        let c = counts
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        for (&threads, t) in sweep.iter().zip(&timings) {
            records.push(Record {
                op,
                n,
                limbs: level,
                threads,
                ns_per_op: t.mean,
                ns_per_op_p50: t.p50,
                samples: t.samples,
                extras: vec![
                    ("ntt_limbs", c.ntt_limbs),
                    ("intt_limbs", c.intt_limbs),
                    ("bconv_limb_products", c.bconv_limb_products),
                    ("ew_limb_ops", c.ew_limb_ops),
                    ("automorphism_limbs", c.automorphism_limbs),
                    ("keyswitches", c.keyswitches),
                ],
            })
        }
    };
    push(
        "ntt_forward_batch",
        time_sweep(budget, sweep, || {
            let mut p = coeff.duplicate();
            p.to_eval();
        }),
    );
    push(
        "ntt_inverse_batch",
        time_sweep(budget, sweep, || {
            let mut p = evalp.duplicate();
            p.to_coeff();
        }),
    );
    push(
        "hadd",
        time_sweep(budget, sweep, || {
            let _ = eval.add(&ct, &ct);
        }),
    );
    push(
        "keyswitch",
        time_sweep(budget, sweep, || {
            let _ = ks.switch(&a, &relin, level);
        }),
    );
    push(
        "mul_relin",
        time_sweep(budget, sweep, || {
            let _ = eval.mul_relin(&ct, &ct, &relin);
        }),
    );
    push(
        "rescale",
        time_sweep(budget, sweep, || {
            let _ = eval.rescale(&ct);
        }),
    );
    push(
        "automorphism",
        time_sweep(budget, sweep, || {
            let _ = evalp.automorphism(5);
        }),
    );
    parpool::set_threads(0);
}

/// The functional bootstrap row: one `BootstrapConfig::sparse_default()`
/// bootstrap of a level-1 ciphertext at the `bootstrap_demo` parameters
/// (N = 2⁹, L = 16, α = 4, h = 16), single-threaded. The first call warms
/// up the memoized tables and supplies the op-count extras; quick mode then
/// takes one timing sample.
fn bench_bootstrap(quick: bool, records: &mut Vec<Record>) {
    let params = CkksParams::builder()
        .log_n(9)
        .levels(16)
        .alpha(4)
        .scale_bits(42)
        .q0_bits(50)
        .p_bits(55)
        .hamming_weight(16)
        .build();
    let ctx = CkksContext::new(params);
    let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
    let mut rng = StdRng::seed_from_u64(99);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&bts.required_rotations());
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        .collect();
    let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);

    parpool::set_threads(1);
    opcount::reset();
    let _ = bts.bootstrap(&ev, &enc, &ct, &keys);
    let c = opcount::snapshot();
    opcount::reset();
    let budget = Budget {
        samples: if quick { 1 } else { 3 },
        min_iters: 1,
        min_millis: 0,
    };
    let means = (0..budget.samples)
        .map(|_| {
            one_sample(budget, &mut || {
                let _ = bts.bootstrap(&ev, &enc, &ct, &keys);
            })
        })
        .collect();
    let t = Timing::from_means(means);
    parpool::set_threads(0);
    println!(
        "  bootstrap (n=2^9, sparse_default, 1 thread): {:.0} ms",
        t.p50 / 1e6
    );
    records.push(Record {
        op: "bootstrap",
        n: ctx.n(),
        limbs: ctx.max_level(),
        threads: 1,
        ns_per_op: t.mean,
        ns_per_op_p50: t.p50,
        samples: t.samples,
        extras: vec![
            ("ntt_limbs", c.ntt_limbs),
            ("intt_limbs", c.intt_limbs),
            ("bconv_limb_products", c.bconv_limb_products),
            ("ew_limb_ops", c.ew_limb_ops),
            ("automorphism_limbs", c.automorphism_limbs),
            ("keyswitches", c.keyswitches),
        ],
    });
}

fn pim_fleet(
    num_banks: usize,
    k: usize,
    c: usize,
) -> (
    Vec<SimulatedBank>,
    MontgomeryCtx,
    PolyGroup,
    PolyGroup,
    PolyGroup,
) {
    const Q: u32 = 268369921;
    let mut alloc = PolyGroupAllocator::new(64, 2 * c, LayoutPolicy::ColumnPartitioned);
    let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
    let mut rng = StdRng::seed_from_u64(11);
    let banks = (0..num_banks)
        .map(|_| {
            let mut bank = SimulatedBank::new(2 * c, 64);
            let mut poly = || -> Vec<u32> {
                (0..c * ELEMS_PER_CHUNK)
                    .map(|_| rng.gen_range(0..Q))
                    .collect()
            };
            for i in 0..k {
                bank.store_poly(&pg_p, i, &poly()).unwrap();
                bank.store_poly(&pg_ab, 2 * i, &poly()).unwrap();
                bank.store_poly(&pg_ab, 2 * i + 1, &poly()).unwrap();
            }
            bank
        })
        .collect();
    (banks, MontgomeryCtx::new(Q), pg_p, pg_ab, pg_out)
}

fn bench_pim(quick: bool, sweep: &[usize], records: &mut Vec<Record>) {
    let num_banks = 8;
    let k = 4;
    let c = if quick { 16 } else { 128 };
    let (mut banks, mont, pg_p, pg_ab, pg_out) = pim_fleet(num_banks, k, c);
    let budget = if quick {
        Budget {
            samples: 3,
            min_iters: 2,
            min_millis: 4,
        }
    } else {
        Budget {
            samples: 5,
            min_iters: 3,
            min_millis: 40,
        }
    };
    for &threads in sweep {
        parpool::set_threads(threads);
        let t = time_ns(budget, || {
            let results = for_each_bank_parallel(&mut banks, |_, bank| {
                paccum_alg1(bank, &mont, k, 16, &pg_p, &pg_ab, &pg_out)
            });
            assert!(results.iter().all(|r| r.is_ok()));
        });
        // Analytic per-iteration traffic of the PAccum fleet (Alg. 1):
        // each bank runs k MAC passes over c chunks, producing two
        // accumulators per lane (2 MACs), and moves p (k), a+b (2k) and the
        // two outputs through the bank-internal datapath at 4 B/element.
        let elems = (c * ELEMS_PER_CHUNK) as u64;
        let fleet = num_banks as u64;
        records.push(Record {
            op: "paccum_8banks",
            n: c * ELEMS_PER_CHUNK,
            limbs: num_banks,
            threads,
            ns_per_op: t.mean,
            ns_per_op_p50: t.p50,
            samples: t.samples,
            extras: vec![
                ("mmac_ops", fleet * 2 * k as u64 * elems),
                ("bytes_internal", fleet * (3 * k as u64 + 2) * elems * 4),
            ],
        });
    }
    parpool::set_threads(0);
}

/// Runs the Bootstrap workload on the A100 near-bank platform with
/// telemetry and writes the requested artifacts: a Chrome `trace_event`
/// JSON (`--trace-out`) and/or the Prometheus metrics text
/// (`--metrics-out`). Fixed seed; purely virtual-time, so the outputs are
/// byte-identical across `ANAHEIM_THREADS`.
fn emit_telemetry(trace_out: Option<&str>, metrics_out: Option<&str>) {
    let rt = Anaheim::new(AnaheimConfig::a100_near_bank());
    let w = Workload::boot();
    let mut tel = Telemetry::new(42);
    let report = run_workload_traced(&rt, &w, &mut tel)
        .unwrap_or_else(|e| panic!("traced Bootstrap run failed: {e}"));
    let nums = report.outcome.expect("Bootstrap fits the A100");
    println!(
        "\nTraced Bootstrap on {}: {:.2} ms, {} spans",
        report.platform,
        nums.time_ms,
        tel.trace.len()
    );
    if let Some(path) = trace_out {
        std::fs::write(path, tel.chrome_trace()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "  wrote {path} (Chrome trace_event JSON, {} spans)",
            tel.trace.len()
        );
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, tel.prometheus()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  wrote {path} (Prometheus text format)");
    }
}

/// Runs the serving-layer soak in a clean and a chaos scenario plus the
/// sharded streaming fleet soak, the batched-fleet and ordered-fleet
/// soaks (evk batch amortization, with and without batch-aware dispatch
/// ordering), and the hedge-chaos soak (GPU fault domain + budget
/// cancellation + hedged re-execution), and emits the
/// headline counters. The clean/chaos rows are virtual-time results —
/// deterministic for a given seed, so regressions show up as diffs, not
/// noise. The stream rows additionally carry wall-clock throughput
/// (`wall_ms`, `wall_rps`), which is machine-dependent and informational
/// only; every other field is deterministic. Every row records its
/// provenance — the fault seed plus the lane/shard/thread configuration
/// that produced it — so a diff in the counters can be replayed exactly.
fn bench_serving(quick: bool) {
    use serving::soak::{check_invariants, run_soak, run_soak_stream, SoakConfig};
    let threads_env = std::env::var("ANAHEIM_THREADS").unwrap_or_else(|_| "auto".into());
    let requests = if quick { 48 } else { 240 };
    let scenarios = [
        ("clean", SoakConfig::clean(2024)),
        ("chaos", SoakConfig::chaos(2024)),
    ];
    let mut s = String::from("[\n");
    println!("\nServing soak ({requests} requests, seed 2024)");
    for (name, base) in scenarios.iter() {
        let cfg = SoakConfig {
            requests,
            // The chaos stuck-lane window is sized for the full trace;
            // rescale it so the quick run still exercises the breaker.
            stuck_window: base.stuck_window.map(|(a, b)| {
                let scale = requests as f64 / base.requests as f64;
                (
                    (a as f64 * scale) as usize,
                    ((b as f64 * scale) as usize).max((a as f64 * scale) as usize + 4),
                )
            }),
            ..base.clone()
        };
        let out = run_soak(&cfg).unwrap_or_else(|e| panic!("{name} soak failed: {e}"));
        let sum = check_invariants(&cfg, &out)
            .unwrap_or_else(|e| panic!("{name} soak invariant violated: {e}"));
        println!("  {name:5} {sum}");
        s.push_str(&format!(
            "  {{\"scenario\": \"{}\", \"fault_seed\": {}, \"workers\": {}, \
             \"anaheim_threads\": \"{}\", \"requests\": {}, \"completed\": {}, \
             \"deadline_misses\": {}, \"shed_queue_full\": {}, \"shed_infeasible\": {}, \
             \"faults\": {}, \"breaker_skips\": {}, \"transitions\": {}, \"dead_banks\": {}}},\n",
            name,
            cfg.seed,
            cfg.workers,
            threads_env,
            requests,
            sum.completed,
            sum.deadline_misses,
            sum.shed_queue_full,
            sum.shed_infeasible,
            sum.faults,
            sum.breaker_skips,
            sum.transitions,
            sum.dead_banks,
        ));
        if *name == "chaos" {
            for b in &out.snapshot.banks {
                println!(
                    "        bank {}: {} ({} trip(s){})",
                    b.bank,
                    b.state,
                    b.trips,
                    if b.permanent { ", permanent" } else { "" }
                );
            }
        }
    }

    // The sharded streaming fleet soak: failover counters plus throughput.
    let stream_cfg = SoakConfig {
        requests: if quick { 2_000 } else { 20_000 },
        ..SoakConfig::fleet_chaos(2024)
    };
    let wall = Instant::now();
    let out = run_soak_stream(&stream_cfg, None)
        .unwrap_or_else(|e| panic!("stream-chaos soak invariant violated: {e}"));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let sum = out.summary;
    println!(
        "  stream-chaos ({} shards) {sum}\n        wall {:.0} ms ({:.0} req/s)",
        stream_cfg.shards,
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3)
    );
    s.push_str(&format!(
        "  {{\"scenario\": \"stream-chaos\", \"fault_seed\": {}, \"workers\": {}, \
         \"anaheim_threads\": \"{}\", \"requests\": {}, \"shards\": {}, \
         \"completed\": {}, \"deadline_misses\": {}, \"shed_queue_full\": {}, \
         \"shed_infeasible\": {}, \"rerouted\": {}, \"all_shards_unhealthy\": {}, \
         \"faults\": {}, \"breaker_skips\": {}, \"drains\": {}, \"readmits\": {}, \
         \"dead_banks\": {}, \"virtual_rps\": {:.1}, \"wall_ms\": {:.1}, \"wall_rps\": {:.1}}},\n",
        stream_cfg.seed,
        stream_cfg.workers,
        threads_env,
        sum.requests,
        stream_cfg.shards,
        sum.completed,
        sum.deadline_misses,
        sum.shed_queue_full,
        sum.shed_infeasible,
        sum.rerouted,
        sum.all_shards_unhealthy,
        sum.faults,
        sum.breaker_skips,
        sum.drains,
        sum.readmits,
        sum.dead_banks,
        sum.virtual_rps(),
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3),
    ));

    // The batched-fleet soak: a small tenant pool over a fault-free
    // two-shard fleet with same-tenant batch serving on. The invariant
    // checker already requires ≥1 amortized fetch and that saved bytes
    // reconcile with shard hit bytes; the row carries the evk hit/miss
    // split so `scripts/check.sh` can gate conservation
    // (hit + miss == uncached) and a nonzero saving from the JSON.
    let batch_cfg = SoakConfig {
        requests: if quick { 2_000 } else { 20_000 },
        ..SoakConfig::batched_fleet(2024)
    };
    let wall = Instant::now();
    let out = run_soak_stream(&batch_cfg, None)
        .unwrap_or_else(|e| panic!("batched-fleet soak invariant violated: {e}"));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let sum = out.summary;
    println!(
        "  batched-fleet ({} shards, {} tenants) {sum}\n        wall {:.0} ms ({:.0} req/s)",
        batch_cfg.shards,
        batch_cfg.tenants,
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3)
    );
    s.push_str(&format!(
        "  {{\"scenario\": \"batched-fleet\", \"fault_seed\": {}, \"workers\": {}, \
         \"anaheim_threads\": \"{}\", \"requests\": {}, \"shards\": {}, \"tenants\": {}, \
         \"completed\": {}, \"deadline_misses\": {}, \"shed_queue_full\": {}, \
         \"shed_infeasible\": {}, \"rerouted\": {}, \"all_shards_unhealthy\": {}, \
         \"faults\": {}, \"breaker_skips\": {}, \"drains\": {}, \"readmits\": {}, \
         \"dead_banks\": {}, \"evk_hit_bytes\": {}, \"evk_miss_bytes\": {}, \
         \"evk_bytes_saved\": {}, \"batches\": {}, \"virtual_rps\": {:.1}, \
         \"wall_ms\": {:.1}, \"wall_rps\": {:.1}}},\n",
        batch_cfg.seed,
        batch_cfg.workers,
        threads_env,
        sum.requests,
        batch_cfg.shards,
        batch_cfg.tenants,
        sum.completed,
        sum.deadline_misses,
        sum.shed_queue_full,
        sum.shed_infeasible,
        sum.rerouted,
        sum.all_shards_unhealthy,
        sum.faults,
        sum.breaker_skips,
        sum.drains,
        sum.readmits,
        sum.dead_banks,
        sum.evk_hit_bytes,
        sum.evk_miss_bytes,
        sum.evk_saved_bytes,
        sum.batches,
        sum.virtual_rps(),
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3),
    ));

    // The ordered-fleet soak: the batched-fleet trace with batch-aware
    // dispatch ordering on — the engine pulls same-tenant work forward
    // under the slack budget and credits each amortized evk fetch back to
    // the lane as virtual time. The invariant checker already requires ≥1
    // reorder and a nonzero lane credit; `scripts/check.sh` additionally
    // gates `evk_bytes_saved` ≥ the batched-fleet row's and `virtual_rps`
    // ≥ the batched-fleet row's from this JSON.
    let ordered_cfg = SoakConfig {
        requests: if quick { 2_000 } else { 20_000 },
        ..SoakConfig::ordered_fleet(2024)
    };
    let wall = Instant::now();
    let out = run_soak_stream(&ordered_cfg, None)
        .unwrap_or_else(|e| panic!("ordered-fleet soak invariant violated: {e}"));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let sum = out.summary;
    println!(
        "  ordered-fleet ({} shards, {} tenants) {sum}\n        wall {:.0} ms ({:.0} req/s)",
        ordered_cfg.shards,
        ordered_cfg.tenants,
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3)
    );
    s.push_str(&format!(
        "  {{\"scenario\": \"ordered-fleet\", \"fault_seed\": {}, \"workers\": {}, \
         \"anaheim_threads\": \"{}\", \"requests\": {}, \"shards\": {}, \"tenants\": {}, \
         \"completed\": {}, \"deadline_misses\": {}, \"shed_queue_full\": {}, \
         \"shed_infeasible\": {}, \"rerouted\": {}, \"all_shards_unhealthy\": {}, \
         \"faults\": {}, \"breaker_skips\": {}, \"drains\": {}, \"readmits\": {}, \
         \"dead_banks\": {}, \"evk_hit_bytes\": {}, \"evk_miss_bytes\": {}, \
         \"evk_bytes_saved\": {}, \"batches\": {}, \"reorders\": {}, \
         \"reorder_denied_slack\": {}, \"evk_saved_ns\": {:.0}, \"virtual_rps\": {:.1}, \
         \"wall_ms\": {:.1}, \"wall_rps\": {:.1}}},\n",
        ordered_cfg.seed,
        ordered_cfg.workers,
        threads_env,
        sum.requests,
        ordered_cfg.shards,
        ordered_cfg.tenants,
        sum.completed,
        sum.deadline_misses,
        sum.shed_queue_full,
        sum.shed_infeasible,
        sum.rerouted,
        sum.all_shards_unhealthy,
        sum.faults,
        sum.breaker_skips,
        sum.drains,
        sum.readmits,
        sum.dead_banks,
        sum.evk_hit_bytes,
        sum.evk_miss_bytes,
        sum.evk_saved_bytes,
        sum.batches,
        sum.reorders,
        sum.reorder_denied_slack,
        sum.evk_saved_ns,
        sum.virtual_rps(),
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3),
    ));

    // The hedge-chaos soak: the GPU fault domain (stream stalls + transfer
    // bit-flips) on top of the fleet storm, with deadline-budget
    // cancellation and hedged re-execution on. The invariant checker
    // inside `run_soak_stream` already requires ≥1 hedge launch, ≥1 hedge
    // win, and ≥1 cancellation for this config — a row that prints at all
    // is a row whose hedging actually fired.
    let hedge_cfg = SoakConfig {
        requests: if quick { 2_000 } else { 20_000 },
        ..SoakConfig::hedge_chaos(2024)
    };
    let wall = Instant::now();
    let out = run_soak_stream(&hedge_cfg, None)
        .unwrap_or_else(|e| panic!("hedge-chaos soak invariant violated: {e}"));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let sum = out.summary;
    println!(
        "  hedge-chaos ({} shards) {sum}\n        wall {:.0} ms ({:.0} req/s)",
        hedge_cfg.shards,
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3)
    );
    s.push_str(&format!(
        "  {{\"scenario\": \"hedge-chaos\", \"fault_seed\": {}, \"workers\": {}, \
         \"anaheim_threads\": \"{}\", \"requests\": {}, \"shards\": {}, \
         \"completed\": {}, \"deadline_misses\": {}, \"cancelled\": {}, \
         \"integrity_failures\": {}, \"shed_queue_full\": {}, \"shed_infeasible\": {}, \
         \"rerouted\": {}, \"all_shards_unhealthy\": {}, \"hedges_launched\": {}, \
         \"hedges_won\": {}, \"hedges_wasted\": {}, \"hedges_suppressed\": {}, \
         \"faults\": {}, \"breaker_skips\": {}, \"drains\": {}, \"readmits\": {}, \
         \"dead_banks\": {}, \"virtual_rps\": {:.1}, \"wall_ms\": {:.1}, \"wall_rps\": {:.1}}}\n",
        hedge_cfg.seed,
        hedge_cfg.workers,
        threads_env,
        sum.requests,
        hedge_cfg.shards,
        sum.completed,
        sum.deadline_misses,
        sum.cancelled,
        sum.integrity_failures,
        sum.shed_queue_full,
        sum.shed_infeasible,
        sum.rerouted,
        sum.all_shards_unhealthy,
        sum.hedges_launched,
        sum.hedges_won,
        sum.hedges_wasted,
        sum.hedges_suppressed,
        sum.faults,
        sum.breaker_skips,
        sum.drains,
        sum.readmits,
        sum.dead_banks,
        sum.virtual_rps(),
        wall_ms,
        sum.requests as f64 / (wall_ms * 1e-3),
    ));
    s.push_str("]\n");
    std::fs::write("BENCH_serving.json", s)
        .unwrap_or_else(|e| panic!("writing BENCH_serving.json: {e}"));
}

/// Evaluates the analytic scheduler on the fused+offloaded Bootstrap
/// sequence in Serial vs Pipelined mode (A100 near-bank) and appends one
/// row per mode to both record sets. These rows are pure model output —
/// virtual time, thread-count independent — so `scripts/check.sh` can gate
/// the §V-C overlap bound (speedup in (1.0, 1.35]) and work conservation
/// straight from the JSON.
fn bench_schedule(ckks_records: &mut Vec<Record>, pim_records: &mut Vec<Record>) {
    use anaheim_core::build::Builder;
    use anaheim_core::params::ParamSet;
    use anaheim_core::schedule::ScheduleMode;

    let params = ParamSet::paper_default();
    let n = 1usize << params.log_n;
    let limbs = params.l_max;
    println!("\nSchedule model (Bootstrap on A100 near-bank)");
    for (op, mode) in [
        ("sched_boot_serial", ScheduleMode::Serial),
        ("sched_boot_pipelined", ScheduleMode::Pipelined),
    ] {
        let rt = Anaheim::new(AnaheimConfig::a100_near_bank().with_schedule_mode(mode));
        let seq = Builder::new(params.clone()).bootstrap();
        let report = rt
            .run(seq)
            .unwrap_or_else(|e| panic!("schedule-model Bootstrap run failed: {e}"));
        println!(
            "  {op:22} {:>10.3} ms  (overlap {:.3} ms, {} segments, {} transitions)",
            report.total_ns / 1e6,
            report.stream_overlap_ns / 1e6,
            report.segments.len(),
            report.transitions
        );
        let shared = |bytes_key: &'static str, bytes: u64| Record {
            op,
            n,
            limbs,
            threads: 1,
            ns_per_op: report.total_ns,
            ns_per_op_p50: report.total_ns,
            samples: 1,
            extras: vec![
                (bytes_key, bytes),
                ("transitions", u64::from(report.transitions)),
                ("segments", report.segments.len() as u64),
                ("overlap_ns", report.stream_overlap_ns.round() as u64),
            ],
        };
        ckks_records.push(shared("gpu_dram_bytes", report.gpu_dram_bytes));
        pim_records.push(shared("pim_dram_bytes", report.pim_dram_bytes));
    }
}

/// Evaluation-key DRAM-traffic model (the `docs/KEYS.md` trajectory):
/// replays every `Evk` read of a built sequence through the A100's
/// object-granularity L2 ([`gpu::L2Cache`], 40 MB) and reports the
/// hit/miss byte split next to the uncached total
/// ([`anaheim_core::ir::OpSequence::evk_read_bytes`]). Pure model rows — samples = 1,
/// virtual time = DRAM bytes at A100 bandwidth — named with the `sched_`
/// prefix so the small-ring perf gate skips them; `scripts/check.sh`
/// asserts `evk_hit_bytes + evk_miss_bytes == evk_uncached_bytes` on
/// every row carrying the fields.
fn bench_evk_traffic(records: &mut Vec<Record>) {
    use anaheim_core::build::{Builder, LinTransStyle};
    use anaheim_core::ir::{ObjKind, OpSequence};
    use anaheim_core::params::ParamSet;
    use gpu::{GpuConfig, L2Cache};

    let gpu_cfg = GpuConfig::a100_80gb();
    // GB/s reads as bytes/ns, so the division below lands in ns directly.
    let bw_bytes_per_ns = gpu_cfg.dram_bw_gbps;
    println!(
        "\nEvaluation-key traffic model (A100 L2 {} MB)",
        gpu_cfg.l2_bytes >> 20
    );

    let mut replay = |op: &'static str, headline: &'static str, seq: &OpSequence| {
        let params = &seq.params;
        let mut l2 = L2Cache::new(gpu_cfg.l2_bytes);
        for o in &seq.ops {
            for r in o.reads.iter().filter(|r| r.kind == ObjKind::Evk) {
                l2.read(r.id, r.bytes as usize);
            }
        }
        let uncached = seq.evk_read_bytes();
        let (hit, miss) = (l2.hit_bytes(), l2.miss_bytes());
        assert_eq!(hit + miss, uncached, "every evk read is a hit or a miss");
        println!(
            "  {op:24} evk {:>8.1} MB uncached -> {:>8.1} MB DRAM ({:.1} MB amortized), \
             key {:.1} MB",
            uncached as f64 / 1e6,
            miss as f64 / 1e6,
            hit as f64 / 1e6,
            params.evk_bytes() as f64 / 1e6,
        );
        records.push(Record {
            op,
            n: params.n(),
            limbs: params.l_max,
            threads: 1,
            ns_per_op: miss as f64 / bw_bytes_per_ns,
            ns_per_op_p50: miss as f64 / bw_bytes_per_ns,
            samples: 1,
            extras: vec![
                (headline, miss),
                ("evk_uncached_bytes", uncached),
                ("evk_hit_bytes", hit),
                ("evk_miss_bytes", miss),
                ("evk_bytes", params.evk_bytes() as u64),
            ],
        });
    };

    // Fig. 2b decomposition sweep: Bootstrap switches keys with a fresh
    // evk every time (relin, conjugation, per-step rotations), so nothing
    // revisits inside 40 MB and the evk traffic is all DRAM — the paper's
    // reason to move keyswitching near memory in the first place.
    for d in [2usize, 3, 4, 6, 8] {
        let op = match d {
            2 => "sched_evk_boot_d2",
            3 => "sched_evk_boot_d3",
            4 => "sched_evk_boot_d4",
            6 => "sched_evk_boot_d6",
            8 => "sched_evk_boot_d8",
            _ => unreachable!(),
        };
        let seq = Builder::new(ParamSet::with_decomposition(d)).bootstrap();
        replay(op, "bytes_per_bootstrap", &seq);
    }

    // MinKS reuses one rotation key for every step (§III-B): at a shallow
    // level the shared per-digit objects fit in L2, so every revisit is a
    // hit — the single-program analogue of the serving layer's
    // same-tenant batch amortization.
    let seq = Builder::new(ParamSet::paper_default()).lintrans(14, 8, LinTransStyle::MinKS, false);
    replay("sched_evk_lintrans_minks", "evk_dram_bytes", &seq);
}

/// Measures how much parallel CPU the machine actually grants: the
/// throughput ratio of two spin threads vs one. Containers often report
/// more hardware threads than their cgroup/host contention delivers, and
/// every speedup in the emitted JSON is bounded by this number.
fn effective_parallelism() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        x
    }
    let iters = 50_000_000;
    let t0 = Instant::now();
    std::hint::black_box(spin(iters));
    let one = t0.elapsed();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || std::hint::black_box(spin(iters))))
        .collect();
    for h in handles {
        h.join().expect("spin thread");
    }
    let two = t0.elapsed();
    2.0 * one.as_secs_f64() / two.as_secs_f64()
}

/// Calibrates a `ckks_math::tune` profile against this host: measures the
/// serial per-element cost of each op class on a representative shape
/// (forced-serial so the tuner cannot interfere with its own
/// measurement), the pool's dispatch/per-job overhead, and the effective
/// parallelism, then restores the environment profile. The returned
/// profile is what `--tune-out` writes and `ANAHEIM_PAR_PROFILE` loads.
fn calibrate_tune_profile(quick: bool, par_eff: f64) -> ckks_math::tune::Profile {
    use ckks_math::modulus::Modulus;
    use ckks_math::ntt::NttContext;
    use ckks_math::poly::Poly;
    use ckks_math::prime::generate_ntt_primes;
    use ckks_math::rns::BasisConverter;
    use ckks_math::tune::{self, Profile};
    use std::sync::Arc;

    let (log_n, limbs) = if quick { (10usize, 4usize) } else { (12, 8) };
    let n = 1usize << log_n;
    let basis: Vec<Arc<NttContext>> = generate_ntt_primes(45, 2 * limbs, 2 * n as u64)
        .into_iter()
        .map(|q| Arc::new(NttContext::new(n, Modulus::new(q))))
        .collect();
    let (from, to) = basis.split_at(limbs);
    let coeffs: Vec<i64> = (0..n as i64).map(|i| (i * 37 + 5) % 1001 - 500).collect();
    let x = Poly::from_coeff_i64(from, &coeffs);
    let y = Poly::from_coeff_i64(from, &coeffs);
    let conv = BasisConverter::new(from, to);
    let budget = Budget {
        samples: if quick { 3 } else { 5 },
        min_iters: 3,
        min_millis: if quick { 2 } else { 15 },
    };

    // Serial-profile measurements: per-class ns per model work unit.
    tune::set_profile(Profile::serial());
    let total = (limbs * n) as f64;
    let ew = {
        let mut acc = x.duplicate();
        time_ns(budget, || acc.add_assign(&y)).p50 / total
    };
    let ntt = {
        let mut p = x.duplicate();
        time_ns(budget, || {
            p.to_eval();
            p.to_coeff();
        })
        .p50 / (2.0 * total * log_n as f64)
    };
    let bconv = {
        let refs: Vec<&[u64]> = (0..limbs).map(|i| x.limb(i).data()).collect();
        // Model form: `to` items of `limbs·n` elements each.
        time_ns(budget, || {
            let _ = conv.convert_approx(&refs);
        })
        .p50 / (to.len() as f64 * total)
    };
    let auto = time_ns(budget, || {
        let _ = x.automorphism(5);
    })
    .p50 / total;

    // Pool overhead: time an empty chunked fan-out at two job counts and
    // solve `cost(j) = dispatch + j·job` from the pair.
    parpool::set_threads(8);
    let overhead = |jobs: usize| {
        time_ns(
            Budget {
                samples: 5,
                min_iters: 50,
                min_millis: 1,
            },
            || {
                parpool::run_chunked(jobs, jobs, &|i| {
                    std::hint::black_box(i);
                })
            },
        )
        .p50
    };
    let (t2, t8) = (overhead(2), overhead(8));
    let job_ns = ((t8 - t2) / 6.0).max(0.0);
    let dispatch_ns = (t2 - 2.0 * job_ns).max(0.0);
    parpool::set_threads(0);
    tune::reset_profile();

    let mut p = Profile::default_seeded();
    p.par_eff = par_eff.max(1.0);
    p.dispatch_ns = dispatch_ns;
    p.job_ns = job_ns;
    p.per_elem_ns = [ew, ntt, bconv, auto];
    p
}

const USAGE: &str =
    "usage: bench_json [--quick] [--trace-out FILE] [--metrics-out FILE] [--tune-out FILE]";

/// Reports a command-line problem on stderr and exits nonzero. Argument
/// mistakes are operator errors, not harness bugs — no panic, no backtrace.
fn usage_error(msg: &str) -> ! {
    eprintln!("bench_json: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut tune_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace-out needs a file path")),
                )
            }
            "--metrics-out" => {
                metrics_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--metrics-out needs a file path")),
                )
            }
            "--tune-out" => {
                tune_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--tune-out needs a file path")),
                )
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let sweep: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let par_eff = effective_parallelism();
    println!(
        "bench_json: mode={}, thread sweep {:?}, {} hardware threads, \
         effective parallelism {:.2}x (2-thread spin calibration)",
        if quick { "quick" } else { "full" },
        sweep,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        par_eff
    );

    if let Some(path) = &tune_out {
        let profile = calibrate_tune_profile(quick, par_eff);
        std::fs::write(path, profile.to_profile_string())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "  wrote {path} (tune profile: par_eff {:.2}, dispatch {:.0} ns, job {:.0} ns, \
             per-elem ns [ew {:.2}, ntt {:.2}, bconv {:.2}, auto {:.2}])",
            profile.par_eff,
            profile.dispatch_ns,
            profile.job_ns,
            profile.per_elem_ns[0],
            profile.per_elem_ns[1],
            profile.per_elem_ns[2],
            profile.per_elem_ns[3],
        );
    }

    // Ring sweep: quick mode keeps the historical smoke shape; full mode
    // covers the small rings the no-regression gate watches (2¹⁰, 2¹²)
    // plus the paper's Table IV sizes (2¹³–2¹⁶) at growing limb depths.
    // Timing budgets shrink as N grows — at 2¹⁶ a single keyswitch is
    // tens of milliseconds, so a handful of single-iteration samples is
    // both affordable and (with the median) stable.
    let configs: Vec<(CkksParams, Budget)> = if quick {
        vec![(
            CkksParams::test_small(),
            Budget {
                samples: 3,
                min_iters: 2,
                min_millis: 4,
            },
        )]
    } else {
        let ring = |log_n: u32, levels: usize, alpha: usize| {
            CkksParams::builder()
                .log_n(log_n)
                .levels(levels)
                .alpha(alpha)
                .scale_bits(40)
                .build()
        };
        vec![
            // The small rings feed the check.sh no-regression gate, so they
            // get the deepest sample budget: a 9-sample median is what keeps
            // a noisy-neighbour blip from tripping a 5% threshold.
            (
                ring(10, 4, 2),
                Budget {
                    samples: 9,
                    min_iters: 3,
                    min_millis: 30,
                },
            ),
            (
                ring(12, 8, 2),
                Budget {
                    samples: 9,
                    min_iters: 3,
                    min_millis: 30,
                },
            ),
            (
                ring(13, 8, 2),
                Budget {
                    samples: 5,
                    min_iters: 2,
                    min_millis: 30,
                },
            ),
            (
                ring(14, 12, 3),
                Budget {
                    samples: 5,
                    min_iters: 1,
                    min_millis: 30,
                },
            ),
            (
                ring(15, 16, 4),
                Budget {
                    samples: 3,
                    min_iters: 1,
                    min_millis: 0,
                },
            ),
            (
                ring(16, 24, 4),
                Budget {
                    samples: 3,
                    min_iters: 1,
                    min_millis: 0,
                },
            ),
        ]
    };

    let mut ckks_records = Vec::new();
    for (params, budget) in configs {
        println!(
            "  ckks ring: n=2^{} levels={} alpha={}",
            params.log_n, params.levels, params.alpha
        );
        bench_ckks(params, budget, sweep, &mut ckks_records);
    }
    bench_bootstrap(quick, &mut ckks_records);
    print_summary("CKKS", &ckks_records);

    let mut pim_records = Vec::new();
    bench_pim(quick, sweep, &mut pim_records);
    print_summary("PIM", &pim_records);

    bench_schedule(&mut ckks_records, &mut pim_records);
    bench_evk_traffic(&mut ckks_records);
    write_json("BENCH_ckks.json", &ckks_records);
    write_json("BENCH_pim.json", &pim_records);

    bench_serving(quick);

    if trace_out.is_some() || metrics_out.is_some() {
        emit_telemetry(trace_out.as_deref(), metrics_out.as_deref());
    }

    println!(
        "\nwrote BENCH_ckks.json ({} records), BENCH_pim.json ({} records), \
         BENCH_serving.json (6 scenarios)",
        ckks_records.len(),
        pim_records.len()
    );
}
