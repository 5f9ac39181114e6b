//! Bit-identity pins for the functional hot path.
//!
//! Each test runs a seeded computation and hashes every residue of every
//! limb of the resulting ciphertext. Optimisations of the NTT, the
//! element-wise kernels or the linear transforms must compute exactly the
//! same residues, so these digests must never change; a change that alters
//! them is not a pure speed-up.
//!
//! The expected digests were obtained by running these same tests, with a
//! placeholder expectation, on the code as it stood before the lazy-reduction
//! NTT and the fused AutAccum landed (fully reducing butterflies; a clone →
//! PMULT → automorphism → add loop per diagonal), and copying the digest
//! each failed assertion printed.

use ckks::complex::max_error;
use ckks::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the little-endian bytes of every residue, `b` limbs first,
/// then `a` limbs, then the level.
fn digest(ct: &Ciphertext) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for poly in [ct.b(), ct.a()] {
        for limb in poly.limbs() {
            for &x in limb.data() {
                eat(x);
            }
        }
    }
    eat(ct.level() as u64);
    h
}

/// The `bootstrap_demo` parameters (N = 2⁹, L = 16, α = 4, h = 16).
fn bootstrap_params() -> CkksParams {
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

#[test]
fn sparse_default_bootstrap_is_bit_identical() {
    let ctx = CkksContext::new(bootstrap_params());
    let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
    let mut rng = StdRng::seed_from_u64(1);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&bts.required_rotations());
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        .collect();
    let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);

    let out = bts.bootstrap(&ev, &enc, &ct, &keys);

    let err = max_error(&msg, &enc.decode(&keys.secret.decrypt(&out)));
    assert!(err < 5e-2, "bootstrap error {err}");
    assert_eq!(
        digest(&out),
        0x88ee_48cd_acb9_e18b,
        "bootstrap output residues changed"
    );
}

#[test]
fn hoisted_linear_transform_is_bit_identical() {
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(7919);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1, 2, 5]);
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let m = ctx.slots();
    let mut t = LinearTransform::new(m);
    for r in [0usize, 1, 2, 5] {
        let diag: Vec<Complex> = (0..m)
            .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        t.set_diagonal(r, diag);
    }
    let x: Vec<Complex> = (0..m)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let ct = keys
        .public
        .encrypt(&enc.encode(&x, ctx.max_level()), &mut rng);

    let out = t.eval_hoisted(&ev, &enc, &ct, &keys);

    let want = t.apply_plain(&x);
    let err = max_error(&want, &enc.decode(&keys.secret.decrypt(&ev.rescale(&out))));
    assert!(err < 1e-3, "hoisted transform error {err}");
    assert_eq!(
        digest(&out),
        0x99cb_cbfd_0530_2834,
        "hoisted transform output residues changed"
    );
}
