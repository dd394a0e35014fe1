//! Engine chaos trace: drive the software engine under a seeded fault
//! plan, render its journal into one Chrome trace, and write it to
//! `CARGO_TARGET_TMPDIR` so CI can archive and validate it alongside the
//! resilience trace.

use std::sync::Arc;

use morphling_core::trace::ExecutionTrace;
use morphling_tfhe::{
    BatchRequest, BootstrapEngine, Bootstrapper, ClientKey, EngineHealth, EventKind, FaultPlan,
    Lut, ParamSet, ServerKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drive the software engine under a seeded fault plan, merge its job
/// spans and fault journal into one Chrome trace, and write it where CI
/// archives chaos artifacts. The JSON must parse (CI re-validates with a
/// real JSON parser; the balanced-brace check here catches structural
/// breakage locally).
#[test]
fn chaos_trace_roundtrips_to_disk() {
    let mut rng = StdRng::seed_from_u64(9100);
    let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
    let sk = Arc::new(ServerKey::builder().build(&ck, &mut rng));
    let lut = Lut::identity(sk.params().poly_size, 4);
    let cts: Vec<_> = (0..8).map(|m| ck.encrypt(m % 4, &mut rng)).collect();

    let engine = BootstrapEngine::builder()
        .workers(2)
        .chunk_size(2)
        .respawn_budget(32)
        .max_retries(8)
        .fault_plan(FaultPlan::seeded(0xABBA).with_worker_panic(0.25))
        .build(Arc::clone(&sk))
        .expect("spawn pool");
    let req = BatchRequest::shared(cts, lut);
    let out = engine.try_bootstrap_batch(&req).expect("survive");
    assert_eq!(out, sk.try_bootstrap_batch(&req).expect("reference"));
    assert!(matches!(
        engine.health(),
        EngineHealth::Healthy | EngineHealth::Degraded
    ));
    let events = engine.journal().events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::WorkerPanic),
        "seed 0xABBA at 25% must fire"
    );

    let mut trace = ExecutionTrace::new(1e3);
    trace.add_events(&events);
    assert!(trace.spans().iter().any(|s| s.cat == "fault"));
    let json = trace.to_chrome_json();
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "chaos trace JSON must be structurally balanced");

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos_trace.json");
    std::fs::write(&path, &json).expect("write chaos trace");
    assert!(path.metadata().expect("stat").len() > 0);
}
