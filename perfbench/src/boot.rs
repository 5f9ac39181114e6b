//! `boot`: closed loop, one client. Each iteration bootstraps a fresh
//! level-1 ciphertext at the `bootstrap_demo` parameters (N = 2⁹, L = 16,
//! α = 4, h = 16) with `BootstrapConfig::sparse_default()`, then decrypts
//! and checks the message outside the timed region.

use crate::probe;
use crate::report::{metric, shared_metrics, RunResult};
use crate::spans::Tracer;
use crate::speed::{HostTime, Measure, Stopwatch};
use crate::{more_setups, span_metrics, timed_loop, Args, SetupTimes};
use ckks::complex::max_error;
use ckks::opcount;
use ckks::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Largest message error a bootstrap may leave (`bootstrap_demo`'s bound).
const MAX_ERROR: f64 = 5e-2;
/// Iterations every run makes; `precision_bits` covers exactly these, so
/// it does not depend on how many more the host fits in.
const MIN_ITERS: u64 = 2;

fn params() -> CkksParams {
    CkksParams::builder()
        .log_n(9)
        .levels(16)
        .alpha(4)
        .scale_bits(42)
        .q0_bits(50)
        .p_bits(55)
        .hamming_weight(16)
        .build()
}

struct Setup<'a> {
    bts: Bootstrapper<'a>,
    keys: KeySet,
    enc: Encoder<'a>,
    ev: Evaluator<'a>,
    new_s: f64,
    keygen_s: f64,
}

fn setup(ctx: &CkksContext, seed: u64) -> Setup<'_> {
    let t = Instant::now();
    let bts = Bootstrapper::new(ctx, BootstrapConfig::sparse_default());
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = KeyGenerator::new(ctx, &mut rng).generate(&bts.required_rotations());
    let keygen_s = t.elapsed().as_secs_f64();
    Setup {
        bts,
        keys,
        enc: Encoder::new(ctx),
        ev: Evaluator::new(ctx),
        new_s,
        keygen_s,
    }
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<RunResult, String> {
    // The set-up borrows its context, so each repetition builds and drops
    // both here, and the last one goes on to be measured.
    let mut host = HostTime::new(Measure::Wall);
    let mut times = SetupTimes::default();
    loop {
        let t = Stopwatch::start();
        let ctx = CkksContext::new(params());
        let s = setup(&ctx, args.seed);
        times.push(&mut host, t.lap());
        if !more_setups(times.wall.len(), times.wall.iter().sum()) {
            return measure(args, tr, &mut host, &ctx, &s, &times);
        }
    }
}

fn measure(
    args: &Args,
    tr: &mut Tracer,
    host: &mut HostTime,
    ctx: &CkksContext,
    s: &Setup<'_>,
    times: &SetupTimes,
) -> Result<RunResult, String> {
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(1));
    let fresh = |rng: &mut StdRng| -> (Vec<Complex>, Ciphertext) {
        let msg: Vec<Complex> = (0..ctx.slots())
            .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        let ct = s.keys.public.encrypt(&s.enc.encode(&msg, 1), rng);
        (msg, ct)
    };

    let mut failed = 0u64;
    let mut worst_first = 0.0f64;
    let mut boot_counts = Vec::new();
    let mut first_input = None;
    let samples = timed_loop(args, tr, host, MIN_ITERS, |tr, i| {
        let (msg, ct) = fresh(&mut rng);
        let before = opcount::snapshot();
        let root = tr.open_iter(i);
        let t = Stopwatch::start();
        let out = tr.time("bootstrap", "ckks", || {
            s.bts.bootstrap(&s.ev, &s.enc, &ct, &s.keys)
        });
        let lap = t.lap();
        tr.close(root);
        boot_counts.push(opcount::snapshot().since(&before));
        let err = max_error(&msg, &s.enc.decode(&s.keys.secret.decrypt(&out)));
        if err.is_nan() || err > MAX_ERROR {
            eprintln!("boot: iteration {i}: message error {err:.3e} > {MAX_ERROR:.0e}");
            failed += 1;
        }
        if i < MIN_ITERS {
            worst_first = worst_first.max(err);
        }
        if tr.on() && first_input.is_none() {
            first_input = Some(ct);
        }
        lap
    });

    let attempted = (samples.untraced.len() + samples.traced.len()) as u64;
    let mut result = RunResult {
        attempted,
        failed,
        end_to_end: shared_metrics(
            times,
            &samples,
            host,
            1.0,
            (attempted - failed) as f64 / attempted as f64,
        ),
        layers: Vec::new(),
    };
    result
        .end_to_end
        .push(metric("precision_bits", -worst_first.log2(), "bits"));

    if tr.on() {
        result.layers.extend(span_metrics(tr, &samples));
        let counts = boot_counts[0];
        if boot_counts.iter().any(|c| *c != counts) {
            return Err("boot: op counts differ between bootstraps".into());
        }
        let boot_ms = tr.durations_ms("bootstrap");
        let ct = first_input.expect("traced runs keep their first input");
        let raise = tr.time("bootstrap.mod_raise", crate::spans::PROBE, || {
            let t = Instant::now();
            std::hint::black_box(s.bts.mod_raise(&ct));
            t.elapsed().as_secs_f64() * 1e3
        });
        let level = ctx.max_level();
        let rates = probe::PrimitiveRates::measure(tr, ctx, level, args.seed);
        result.layers.extend(rates.metrics(&counts));
        result.layers.extend(probe::keyswitch_phases(
            tr,
            ctx,
            &s.keys.relin,
            level,
            args.seed,
        ));
        let msg: Vec<Complex> = (0..ctx.slots())
            .map(|i| Complex::new(i as f64, 0.0))
            .collect();
        result
            .layers
            .extend(probe::encoding(tr, &s.enc, &msg, level));
        result.layers.extend([
            metric("bootstrap.mod_raise_ms", raise, "ms"),
            metric(
                "bootstrap.rest_ms",
                crate::report::median(&boot_ms) - raise,
                "ms",
            ),
            metric("bootstrap.keyswitches", counts.keyswitches as f64, "count"),
            metric(
                "bootstrap.ntt_limb_transforms",
                counts.total_ntt_limbs() as f64,
                "count",
            ),
            metric("bootstrap.new_s", s.new_s, "s"),
            metric("keys.keygen_s", s.keygen_s, "s"),
        ]);
    }
    Ok(result)
}
