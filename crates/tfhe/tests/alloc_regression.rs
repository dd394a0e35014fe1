//! Allocation regression: the steady-state workspace blind rotation must
//! never touch the heap — the software guarantee matching the paper's
//! design point of keeping ACC, the digit stream, and POLY-ACC-REG
//! resident in on-chip buffers for the entire bootstrap.
//!
//! This file installs a counting global allocator, so it must stay a
//! single-test binary: any concurrent test in the same process would
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use morphling_math::{Polynomial, Torus32, TorusScalar};
use morphling_tfhe::{
    blind_rotate_assign, blind_rotate_assign_many, sample_extract, BootstrapKey, ClientKey,
    ExternalProductEngine, ParamSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every allocation and reallocation in the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_workspace_blind_rotation_is_allocation_free() {
    let params = ParamSet::Test.params();
    let mut rng = StdRng::seed_from_u64(90);
    let ck = ClientKey::generate(params.clone(), &mut rng);
    let bsk = BootstrapKey::generate(&ck, &mut rng);
    let engine = ExternalProductEngine::new(&params);
    let tp = Polynomial::from_fn(params.poly_size, |j| Torus32::encode((j % 4) as u64, 8));
    let mask: Vec<u64> = (1..=params.lwe_dim as u64)
        .map(|i| (i * 37) % params.two_n())
        .collect();

    let mut acc = morphling_tfhe::GlweCiphertext::trivial(tp, params.glwe_dim);
    let mut ws = engine.workspace(params.glwe_dim);

    // One warm-up rotation; nothing after it may allocate.
    blind_rotate_assign(&engine, &bsk, &mut acc, &mask, &mut ws);

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..3 {
        blind_rotate_assign(&engine, &bsk, &mut acc, &mask, &mut ws);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state blind rotation allocated {} time(s)",
        after - before
    );

    // The chunked rotation (one BSK fetch per step for several
    // accumulators) runs through the same workspace and must not
    // allocate either — no per-call bookkeeping on the side. Masks with
    // zero exponents exercise the skipped-step path.
    let mut accs = vec![acc.clone(), acc.clone(), acc.clone()];
    let masks: Vec<Vec<u64>> = (0..3)
        .map(|r| {
            (0..mask.len())
                .map(|i| if (i + r) % 5 == 0 { 0 } else { mask[i] })
                .collect()
        })
        .collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..2 {
        blind_rotate_assign_many(&engine, &bsk, &mut accs, &masks, &mut ws);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state chunked blind rotation allocated {} time(s)",
        after - before
    );

    // The key switch accumulates in place, whatever the digits are and
    // however long the key: a chunk's accumulators, its digit scratch and
    // the output vector, then one mask per output ciphertext.
    let server = ServerKey::new(&ck, &mut rng);
    let ksk = server.key_switch_key();
    let extracted = vec![sample_extract(&acc); 3];
    let before = ALLOCS.load(Ordering::SeqCst);
    let switched = ksk
        .try_key_switch_many(&extracted)
        .expect("matching dimensions");
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        3 + extracted.len() as u64,
        "key switch of a chunk allocated {} time(s), not just its buffers and outputs",
        after - before
    );
    assert!(switched.iter().all(|ct| ct.dim() == params.lwe_dim));

    // The accumulator still decrypts to *something* sane (phases on the
    // torus): the zero-allocation loop did real work, not a no-op.
    let phase = ck.glwe_key().phase(&acc);
    assert_eq!(phase.len(), params.poly_size);
    let _ = phase[0].to_f64_signed();
}
