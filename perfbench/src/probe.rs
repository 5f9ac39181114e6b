//! Primitive probes of the traced run: each `ckks-math` kernel class and
//! each key-switching phase timed alone at the workload's ring, so the
//! per-iteration op counts from `ckks::opcount` turn into time shares.
//! Probes run outside the iterations and never count toward them.

use crate::report::{metric, Metric};
use crate::spans::{Tracer, PROBE};
use ckks::keys::EvalKey;
use ckks::keyswitch::KeySwitcher;
use ckks::opcount::OpCounts;
use ckks::prelude::*;
use ckks_math::poly::Format;
use ckks_math::rns::BasisConverter;
use ckks_math::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repeats `f` until both `min_reps` calls and `min_ms` have passed;
/// returns the mean ns per call.
fn mean_ns(min_reps: u32, min_ms: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built tables
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < min_reps || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        f();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// Per-op rates of the four `ckks-math` kernel classes at `level` limbs
/// of `ctx`'s ring.
pub struct PrimitiveRates {
    pub ns_per_butterfly: f64,
    pub ns_per_bconv_product: f64,
    pub ns_per_ew_limb: f64,
    pub ns_per_automorphism_limb: f64,
    /// One limb transform inside the library's batched (and possibly
    /// limb-parallel) `Poly::to_coeff`/`to_eval`, in wall time.
    ns_per_batched_limb_transform: f64,
}

impl PrimitiveRates {
    pub fn measure(tr: &mut Tracer, ctx: &CkksContext, level: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let basis = ctx.basis_q(level);
        let ntt = &basis[0];
        let butterflies_per_limb = (ctx.n() / 2) as f64 * f64::from(ntt.log_n());
        let limb = sampling::uniform(&mut rng, &basis[..1], Format::Coeff);
        let mut data = limb.limb(0).data().to_vec();
        let ns_ntt = tr.time("ntt.forward+inverse", PROBE, || {
            mean_ns(8, 20.0, || {
                ntt.forward(black_box(&mut data));
                ntt.inverse(black_box(&mut data));
            })
        });
        // BConv from one α-limb digit to the rest of Q_ℓ plus P, the shape
        // of a ModUp digit.
        let alpha = ctx.params().alpha.min(level);
        let from = &basis[..alpha];
        let mut to: Vec<_> = basis[alpha..].to_vec();
        to.extend(ctx.basis_p().iter().cloned());
        let conv = BasisConverter::new(from, &to);
        let src = sampling::uniform(&mut rng, from, Format::Coeff);
        let slices: Vec<&[u64]> = src.limbs().map(|l| l.data()).collect();
        let products = (from.len() * to.len()) as f64;
        let ns_bconv = tr.time("bconv.convert_approx", PROBE, || {
            mean_ns(4, 20.0, || {
                black_box(conv.convert_approx(black_box(&slices)));
            })
        });
        let a = sampling::uniform(&mut rng, basis, Format::Eval);
        let mut batch = a.duplicate();
        let ns_batch = tr.time("ntt.batch", PROBE, || {
            mean_ns(2, 20.0, || {
                batch.to_coeff();
                batch.to_eval();
            })
        });
        let b = sampling::uniform(&mut rng, basis, Format::Eval);
        let mut acc = sampling::uniform(&mut rng, basis, Format::Eval);
        let ns_ew = tr.time("ew.mac_assign", PROBE, || {
            mean_ns(8, 20.0, || acc.mac_assign(black_box(&a), black_box(&b)))
        });
        let ns_aut = tr.time("automorphism", PROBE, || {
            mean_ns(8, 20.0, || {
                black_box(a.automorphism(5));
            })
        });
        Self {
            ns_per_butterfly: ns_ntt / (2.0 * butterflies_per_limb),
            ns_per_bconv_product: ns_bconv / products,
            ns_per_ew_limb: ns_ew / level as f64,
            ns_per_automorphism_limb: ns_aut / level as f64,
            ns_per_batched_limb_transform: ns_batch / (2 * level) as f64,
        }
    }

    /// The rates, the per-iteration counts, and the wall time the NTT count
    /// implies at the batched rate (`ntt.est_ms`).
    pub fn metrics(&self, per_iter: &OpCounts) -> Vec<Metric> {
        let ntt_limbs = per_iter.total_ntt_limbs() as f64;
        vec![
            metric("ntt.limb_transforms", ntt_limbs, "count"),
            metric("ntt.ns_per_butterfly", self.ns_per_butterfly, "ns"),
            metric(
                "ntt.est_ms",
                ntt_limbs * self.ns_per_batched_limb_transform / 1e6,
                "ms",
            ),
            metric(
                "bconv.limb_products",
                per_iter.bconv_limb_products as f64,
                "count",
            ),
            metric("bconv.ns_per_product", self.ns_per_bconv_product, "ns"),
            metric("ew.limb_ops", per_iter.ew_limb_ops as f64, "count"),
            metric("ew.ns_per_limb_op", self.ns_per_ew_limb, "ns"),
            metric(
                "automorphism.limbs",
                per_iter.automorphism_limbs as f64,
                "count",
            ),
            metric(
                "automorphism.ns_per_limb",
                self.ns_per_automorphism_limb,
                "ns",
            ),
            metric("keyswitch.count", per_iter.keyswitches as f64, "count"),
        ]
    }
}

/// Times the three key-switching phases (`KeySwitcher::decompose_mod_up`,
/// `key_mult`, `mod_down_pair`) on one ring element at `level`.
pub fn keyswitch_phases(
    tr: &mut Tracer,
    ctx: &CkksContext,
    evk: &EvalKey,
    level: usize,
    seed: u64,
) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    let ks = KeySwitcher::new(ctx);
    let a = sampling::uniform(&mut rng, ctx.basis_q(level), Format::Eval);
    let hoisted = ks.decompose_mod_up(&a, level);
    let (b, a2) = ks.key_mult(&hoisted, evk);
    let modup = tr.time("keyswitch.modup", PROBE, || {
        mean_ns(2, 50.0, || {
            black_box(ks.decompose_mod_up(black_box(&a), level));
        })
    });
    let keymult = tr.time("keyswitch.keymult", PROBE, || {
        mean_ns(2, 50.0, || {
            black_box(ks.key_mult(black_box(&hoisted), evk));
        })
    });
    let moddown = tr.time("keyswitch.moddown", PROBE, || {
        mean_ns(2, 50.0, || {
            black_box(ks.mod_down_pair(black_box(&b), black_box(&a2), level));
        })
    });
    vec![
        metric("keyswitch.modup_ms", modup / 1e6, "ms"),
        metric("keyswitch.keymult_ms", keymult / 1e6, "ms"),
        metric("keyswitch.moddown_ms", moddown / 1e6, "ms"),
    ]
}

/// Times `Encoder::encode`, `decode` and `embed` once each on one slot
/// vector (at the paper ring one call is hundreds of ms).
pub fn encoding(tr: &mut Tracer, enc: &Encoder<'_>, msg: &[Complex], level: usize) -> Vec<Metric> {
    let scale = 2f64.powi(30);
    let mut once = |name: &str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        tr.time(name, PROBE, f);
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut pt = None;
    let encode = once("encoding.encode", &mut || {
        pt = Some(enc.encode(black_box(msg), level))
    });
    let pt = pt.expect("encode ran");
    let decode = once("encoding.decode", &mut || {
        black_box(enc.decode(black_box(&pt)));
    });
    let embed = once("encoding.embed", &mut || {
        black_box(enc.embed(black_box(msg), scale));
    });
    vec![
        metric("encoding.encode_ms", encode, "ms"),
        metric("encoding.decode_ms", decode, "ms"),
        metric("encoding.embed_ms", embed, "ms"),
    ]
}
