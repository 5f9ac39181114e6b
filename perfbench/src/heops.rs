//! `he-ops`: closed loop, one client, at a Table-IV-shaped ring
//! (N = 2¹⁵, L = 16, α = 4). Inputs and the plaintext operand are
//! encrypted and encoded in set-up. Each iteration is one HELR-style step:
//! HROT rotate-and-sum, PMULT, HMULT with relinearization, HADD, rescale:
//!
//! ```text
//! s   = x + rot(x, 1);  s = s + rot(s, 2)     (2 HROT, 2 HADD)
//! out = rescale(s ⊙ w + x · x)                 (PMULT, HMULT, HADD, rescale)
//! ```
//!
//! The first result is decrypted and compared with the plaintext
//! reference; every later one must equal it bit for bit (evaluation is
//! deterministic). Both checks run outside the timed region.

use crate::probe;
use crate::report::{median, metric, shared_metrics, RunResult};
use crate::spans::Tracer;
use crate::speed::{HostTime, Measure, Stopwatch};
use crate::{more_setups, span_metrics, timed_loop, Args, SetupTimes};
use ckks::complex::max_error;
use ckks::opcount;
use ckks::prelude::*;
use ckks_math::poly::Poly;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// HE operations per iteration: 2 HROT, 3 HADD, PMULT, HMULT, rescale.
const OPS_PER_ITER: f64 = 8.0;
/// Largest slot error the step may leave.
const MAX_ERROR: f64 = 1e-3;

fn params() -> CkksParams {
    CkksParams::builder()
        .log_n(15)
        .levels(16)
        .alpha(4)
        .scale_bits(40)
        .build()
}

struct Setup<'a> {
    keys: KeySet,
    enc: Encoder<'a>,
    ev: Evaluator<'a>,
    x: Vec<Complex>,
    w: Vec<Complex>,
    ct_x: Ciphertext,
    pt_w: Plaintext,
    keygen_s: f64,
}

fn setup(ctx: &CkksContext, seed: u64) -> Setup<'_> {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let keys = KeyGenerator::new(ctx, &mut rng).generate(&[1, 2]);
    let keygen_s = t.elapsed().as_secs_f64();
    let enc = Encoder::new(ctx);
    let slots = |rng: &mut StdRng| -> Vec<Complex> {
        (0..ctx.slots())
            .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect()
    };
    let x = slots(&mut rng);
    let w = slots(&mut rng);
    let level = ctx.max_level();
    let ct_x = keys.public.encrypt(&enc.encode(&x, level), &mut rng);
    let pt_w = enc.encode(&w, level);
    Setup {
        keys,
        enc,
        ev: Evaluator::new(ctx),
        x,
        w,
        ct_x,
        pt_w,
        keygen_s,
    }
}

/// The step on plaintext slots.
fn reference(x: &[Complex], w: &[Complex]) -> Vec<Complex> {
    let m = x.len();
    (0..m)
        .map(|i| {
            let s = x[i] + x[(i + 1) % m] + x[(i + 2) % m] + x[(i + 3) % m];
            s * w[i] + x[i] * x[i]
        })
        .collect()
}

fn same_poly(p: &Poly, q: &Poly) -> bool {
    p.num_limbs() == q.num_limbs() && p.limbs().zip(q.limbs()).all(|(a, b)| a.data() == b.data())
}

fn same(x: &Ciphertext, y: &Ciphertext) -> bool {
    x.level() == y.level()
        && x.scale() == y.scale()
        && same_poly(x.b(), y.b())
        && same_poly(x.a(), y.a())
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
    let (ev, keys) = (&s.ev, &s.keys);
    let mut first: Option<Ciphertext> = None;
    let mut failed = 0u64;
    let mut err0 = f64::NAN;
    let mut counts = Vec::new();
    let samples = timed_loop(args, tr, host, 1, |tr, i| {
        let before = opcount::snapshot();
        let root = tr.open_iter(i);
        let t = Stopwatch::start();
        let x = &s.ct_x;
        let r1 = tr.time("eval.hrot", "ckks", || ev.rotate(x, 1, keys));
        let s1 = tr.time("eval.hadd", "ckks", || ev.add(x, &r1));
        let r2 = tr.time("eval.hrot", "ckks", || ev.rotate(&s1, 2, keys));
        let s2 = tr.time("eval.hadd", "ckks", || ev.add(&s1, &r2));
        let p = tr.time("eval.pmult", "ckks", || ev.mul_plain(&s2, &s.pt_w));
        let q = tr.time("eval.hmult", "ckks", || ev.mul_relin(x, x, &keys.relin));
        let h = tr.time("eval.hadd", "ckks", || ev.add(&p, &q));
        let out = tr.time("eval.rescale", "ckks", || ev.rescale(&h));
        let lap = t.lap();
        tr.close(root);
        counts.push(opcount::snapshot().since(&before));
        match &first {
            None => {
                let got = s.enc.decode(&keys.secret.decrypt(&out));
                err0 = max_error(&reference(&s.x, &s.w), &got);
                if err0.is_nan() || err0 > MAX_ERROR {
                    eprintln!("he-ops: slot error {err0:.3e} > {MAX_ERROR:.0e}");
                    failed += 1;
                }
                first = Some(out);
            }
            Some(f) if !same(f, &out) => {
                eprintln!("he-ops: iteration {i} differs from iteration 0");
                failed += 1;
            }
            Some(_) => {}
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
            OPS_PER_ITER,
            (attempted - failed) as f64 / attempted as f64,
        ),
        layers: Vec::new(),
    };
    result
        .end_to_end
        .push(metric("precision_bits", -err0.log2(), "bits"));

    if tr.on() {
        if counts.iter().any(|c| *c != counts[0]) {
            return Err("op counts differ between iterations".into());
        }
        result.layers.extend(span_metrics(tr, &samples));
        for (span, name) in [
            ("eval.hmult", "eval.hmult_ms"),
            ("eval.hrot", "eval.hrot_ms"),
            ("eval.rescale", "eval.rescale_ms"),
            ("eval.pmult", "eval.pmult_ms"),
            ("eval.hadd", "eval.hadd_ms"),
        ] {
            result
                .layers
                .push(metric(name, median(&tr.durations_ms(span)), "ms"));
        }
        let level = ctx.max_level();
        let rates = probe::PrimitiveRates::measure(tr, ctx, level, args.seed);
        result.layers.extend(rates.metrics(&counts[0]));
        result.layers.extend(probe::keyswitch_phases(
            tr,
            ctx,
            &keys.relin,
            level,
            args.seed,
        ));
        result
            .layers
            .extend(probe::encoding(tr, &s.enc, &s.x, level));
        result.layers.push(metric("keys.keygen_s", s.keygen_s, "s"));
    }
    Ok(result)
}
