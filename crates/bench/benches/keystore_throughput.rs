//! Multi-tenant serving throughput vs. key-cache budget — the software
//! analogue of the paper's premise that the bootstrapping working set
//! (~100 MB of transform-domain BSK per key) is what a TFHE server must
//! keep resident to sustain throughput.
//!
//! Six tenants drive a [`Dispatcher`] whose backend serves every batch
//! through a byte-budgeted [`KeyStore`]. The sweep shrinks the budget
//! from "all keys resident" down to a single key slot: each step forces
//! more eviction churn, so the hit rate and throughput curve measures
//! what key-cache pressure costs an oversubscribed server.
//!
//! Writes `BENCH_keystore.json` (CI validates and archives it):
//!
//! - per-budget entries with throughput, hit rate, eviction count,
//!   resident bytes, and p50/p99 end-to-end latency;
//! - `hit_rate_full` / `hit_rate_one`: the curve's endpoints — CI
//!   checks the full-budget run misses exactly once per tenant and
//!   evicts nothing.
//!
//! Smoke mode (`KEYSTORE_BENCH_SMOKE=1`) shrinks the request counts so
//! CI finishes in seconds; the sweep shape is unchanged.

use std::sync::Arc;
use std::time::{Duration, Instant};

use morphling_tfhe::keystore::{KeyStore, KeyStoreBootstrapper, MemoryBackend, TenantId};
use morphling_tfhe::{
    ClientKey, DispatcherBuilder, DispatcherStats, Lut, ParamSet, ServerKey, ServingConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: u64 = 6;

struct BudgetResult {
    budget_keys: u64,
    requests: u64,
    throughput_bs: f64,
    hit_rate: f64,
    stats: DispatcherStats,
}

/// Closed-loop run: one submitter thread per tenant, each pushing its
/// own traffic through a fresh store at the given budget.
fn run_budget(
    backend: &Arc<MemoryBackend>,
    clients: &[ClientKey],
    lut: &Arc<Lut>,
    key_bytes: u64,
    budget_keys: u64,
    per_tenant: usize,
) -> BudgetResult {
    let store = Arc::new(KeyStore::new(
        Arc::clone(backend) as Arc<_>,
        budget_keys * key_bytes,
    ));
    let config = ServingConfig::builder()
        .max_batch_size(8)
        .max_linger(Duration::from_micros(500))
        .queue_capacity(1024)
        .build()
        .expect("valid serving knobs");
    let dispatcher = DispatcherBuilder::from_config(&config)
        .expect("validated above")
        .key_store(Arc::clone(&store))
        .build(KeyStoreBootstrapper::new(Arc::clone(&store)));

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (t, ck) in clients.iter().enumerate() {
            let dispatcher = &dispatcher;
            let lut = Arc::clone(lut);
            let mut rng = StdRng::seed_from_u64(0x5EED ^ t as u64);
            s.spawn(move || {
                for i in 0..per_tenant {
                    let ct = ck.encrypt(i as u64 % 4, &mut rng);
                    let ticket = dispatcher
                        .submit_for(TenantId::new(t as u64), ct, Arc::clone(&lut), None)
                        .expect("queue has room");
                    let _ = ticket.wait().expect("request completes");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let requests = TENANTS * per_tenant as u64;
    let stats = dispatcher.stats();
    assert_eq!(stats.completed, requests, "closed loop loses nothing");
    assert_eq!(stats.per_tenant.len() as u64, TENANTS);
    let served = stats.key_hits + stats.key_misses;
    BudgetResult {
        budget_keys,
        requests,
        throughput_bs: requests as f64 / elapsed,
        hit_rate: if served == 0 {
            0.0
        } else {
            stats.key_hits as f64 / served as f64
        },
        stats,
    }
}

fn main() {
    let smoke = std::env::var("KEYSTORE_BENCH_SMOKE").is_ok();
    let per_tenant = if smoke { 8 } else { 64 };

    let mut rng = StdRng::seed_from_u64(0x6057);
    let params = ParamSet::Test.params();
    let backend = Arc::new(MemoryBackend::new());
    let mut clients = Vec::new();
    for t in 0..TENANTS {
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        backend.insert_server_key(TenantId::new(t), &sk);
        clients.push(ck);
    }
    let key_bytes = params.bsk_total_bytes_fourier() + params.ksk_total_bytes();
    let lut = Arc::new(Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4));

    let mut entries = Vec::new();
    for budget_keys in [1u64, 2, 4, TENANTS] {
        let r = run_budget(&backend, &clients, &lut, key_bytes, budget_keys, per_tenant);
        println!(
            "budget {} keys: {:.1} BS/s, hit rate {:.3}, {} evictions, p50 {:?}, p99 {:?}",
            r.budget_keys,
            r.throughput_bs,
            r.hit_rate,
            r.stats.key_evictions,
            r.stats.p50_latency,
            r.stats.p99_latency
        );
        entries.push(r);
    }

    let one = &entries[0];
    let full = entries.last().expect("sweep is nonempty");
    // Full budget: one cold miss per tenant, then pure hits, zero churn.
    assert_eq!(full.stats.key_misses, TENANTS, "full budget cold misses");
    assert_eq!(full.stats.key_evictions, 0, "full budget must not evict");
    assert!(
        full.hit_rate >= one.hit_rate,
        "hit rate must not degrade with budget: full {:.3} < one-key {:.3}",
        full.hit_rate,
        one.hit_rate
    );
    assert!(
        one.stats.key_evictions > 0,
        "a one-key budget over {TENANTS} tenants must churn"
    );

    let rows: Vec<String> = entries
        .iter()
        .map(|r| {
            format!(
                "    {{\"budget_keys\": {}, \"budget_bytes\": {}, \"requests\": {}, \
                 \"throughput_bs\": {:.1}, \"hit_rate\": {:.4}, \"hits\": {}, \
                 \"misses\": {}, \"evictions\": {}, \"bytes_resident\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                r.budget_keys,
                r.budget_keys * key_bytes,
                r.requests,
                r.throughput_bs,
                r.hit_rate,
                r.stats.key_hits,
                r.stats.key_misses,
                r.stats.key_evictions,
                r.stats.key_bytes_resident,
                r.stats.p50_latency.as_micros(),
                r.stats.p99_latency.as_micros(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"keystore_throughput\",\n  \"smoke\": {smoke},\n  \
         \"tenants\": {TENANTS},\n  \"key_bytes\": {key_bytes},\n  \
         \"hit_rate_one\": {:.4},\n  \"hit_rate_full\": {:.4},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        one.hit_rate,
        full.hit_rate,
        rows.join(",\n")
    );
    println!(
        "keystore_throughput: hit rate {:.3} (1 key) -> {:.3} ({} keys)",
        one.hit_rate, full.hit_rate, TENANTS
    );
    if let Err(e) = std::fs::write("BENCH_keystore.json", json) {
        eprintln!("could not write BENCH_keystore.json: {e}");
    }
}
