//! Memory regression: a server key is held in the transform domain only,
//! as Morphling's Private-A2 buffer holds it. Key generation and a key
//! frame's decode transform each coefficient GGSW as it is made and drop
//! it, so neither ever holds the key in both forms.
//!
//! This file installs a peak-tracking global allocator, so it must stay a
//! single-test binary: any concurrent test in the same process would
//! pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use morphling_tfhe::{
    deserialize_server_key, serialize_server_key, ClientKey, ParamSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tracks the bytes live in the process and the most ever live at once.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as held in both sizes for the instant the move takes.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// `f`'s result and the most bytes live at once while it ran, above what
/// was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn keygen_and_decode_never_hold_the_coefficient_key() {
    let params = ParamSet::TestMedium.params();
    let mut rng = StdRng::seed_from_u64(0x4B45_594D);
    let ck = ClientKey::generate(params.clone(), &mut rng);
    // The first key builds the process-wide transform plans, which are
    // not key material.
    drop(ServerKey::new(&ck, &mut rng));

    let (sk, keygen) = peak_of(|| ServerKey::new(&ck, &mut rng));
    // A resident spectrum holds 16 B per point, twice the 8 B the paper
    // (and `fourier_bytes`) counts.
    let spectra = 2 * sk.bootstrap_key().fourier_bytes() as usize;
    let ksk = sk.key_switch_key().bytes() as usize;
    let (k1, n) = (params.glwe_dim + 1, params.poly_size);
    let one_ggsw = k1 * params.bsk_decomp.level() * k1 * n * 4;
    let bound = (spectra + ksk + one_ggsw) * 105 / 100;
    println!(
        "TestMedium: spectra {spectra} B, KSK {ksk} B, one GGSW {one_ggsw} B; \
         ServerKey::new peaked at {keygen} B (bound {bound})"
    );
    assert!(
        keygen <= bound,
        "ServerKey::new peaked at {keygen} B > {bound} B"
    );

    let blob = serialize_server_key(&sk);
    let (back, decode) = peak_of(|| deserialize_server_key(&blob).expect("own frame decodes"));
    let bound = bound + blob.len();
    println!("deserialize_server_key peaked at {decode} B (bound {bound})");
    assert!(decode <= bound, "decode peaked at {decode} B > {bound} B");
    assert_eq!(serialize_server_key(&back), blob);
}
