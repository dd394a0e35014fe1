//! Property-based tests over the simulator: invariants that must hold for
//! *any* architecture configuration and parameter set, not just the
//! paper's defaults.

use morphling_core::sim::{IterProfile, Simulator};
use morphling_core::{ArchConfig, ReuseMode};
use morphling_tfhe::{ParamSet, ALL_PAPER_SETS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_config(rng: &mut StdRng) -> ArchConfig {
    const A1_KB: [usize; 5] = [512, 1024, 2048, 4096, 8192];
    let xpus = rng.gen_range(1usize..=8);
    let ffts = rng.gen_range(1usize..=3); // fft units per xpu
    let iffts = rng.gen_range(1usize..=6); // ifft units per xpu
    let mut c = ArchConfig::morphling_default()
        .with_xpus(xpus)
        .with_merge_split(rng.gen())
        .with_private_a1_kb(A1_KB[rng.gen_range(0..A1_KB.len())])
        .with_reuse(ReuseMode::ALL[rng.gen_range(0usize..3)]);
    c.ffts_per_xpu = ffts;
    c.iffts_per_xpu = iffts;
    c
}

fn arb_set(rng: &mut StdRng) -> ParamSet {
    ALL_PAPER_SETS[rng.gen_range(0..ALL_PAPER_SETS.len())]
}

#[test]
fn stall_is_at_least_one_and_latency_positive() {
    let mut rng = StdRng::seed_from_u64(0xC0_0001);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let r = Simulator::new(cfg.clone()).bootstrap_batch(&set.params(), 16);
        let at = format!("case {case}: {set:?} {cfg:?}");
        assert!(r.stall >= 1.0, "{at}");
        assert!(r.latency_ms() > 0.0, "{at}");
        assert!(r.throughput_bs_per_s() > 0.0, "{at}");
    }
}

#[test]
fn iteration_period_is_the_max_occupancy() {
    let mut rng = StdRng::seed_from_u64(0xC0_0002);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let p = IterProfile::compute(&cfg, &set.params());
        let m = p.iter_cycles();
        let at = format!("case {case}: {set:?} {cfg:?}");
        let units = [p.fft, p.ifft, p.vpe, p.rotator, p.decompose];
        assert!(units.iter().all(|&u| m >= u), "{at}");
        assert!(units.contains(&m), "{at}");
    }
}

#[test]
fn more_reuse_never_slows_down() {
    let mut rng = StdRng::seed_from_u64(0xC0_0003);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let params = set.params();
        let t = |reuse: ReuseMode| {
            Simulator::new(cfg.clone().with_reuse(reuse))
                .bootstrap_batch(&params, 16)
                .throughput_bs_per_s()
        };
        let no = t(ReuseMode::NoReuse);
        let input = t(ReuseMode::InputReuse);
        let io = t(ReuseMode::InputOutputReuse);
        let at = format!("case {case}: {set:?} {cfg:?}");
        assert!(input >= no * 0.999, "{at}: input {input} < none {no}");
        assert!(io >= input * 0.999, "{at}: io {io} < input {input}");
    }
}

#[test]
fn merge_split_never_slows_down() {
    let mut rng = StdRng::seed_from_u64(0xC0_0004);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let params = set.params();
        let on = Simulator::new(cfg.clone().with_merge_split(true))
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let off = Simulator::new(cfg.clone().with_merge_split(false))
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let at = format!("case {case}: {set:?} {cfg:?}");
        assert!(on >= off * 0.999, "{at}: ms on {on} < off {off}");
    }
}

#[test]
fn bigger_a1_never_slows_down() {
    let mut rng = StdRng::seed_from_u64(0xC0_0005);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let params = set.params();
        let small = Simulator::new(cfg.clone())
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let big = Simulator::new(cfg.clone().with_private_a1_kb(32768))
            .bootstrap_batch(&params, 16)
            .throughput_bs_per_s();
        let at = format!("case {case}: {set:?} {cfg:?}");
        assert!(big >= small * 0.999, "{at}: big {big} < small {small}");
    }
}

#[test]
fn throughput_scales_within_one_multicast_group() {
    // Up to the multicast width, adding XPUs must not reduce total
    // throughput (per-XPU bandwidth pressure only grows beyond it).
    let mut rng = StdRng::seed_from_u64(0xC0_0006);
    for case in 0..128 {
        let set = arb_set(&mut rng);
        let params = set.params();
        let at = format!("case {case}: {set:?}");
        let mut prev = 0.0;
        for x in 1..=4usize {
            let t = Simulator::new(ArchConfig::morphling_default().with_xpus(x))
                .bootstrap_batch(&params, 4 * x)
                .throughput_bs_per_s();
            assert!(t >= prev * 0.999, "{at}: x={x}: {t} < {prev}");
            prev = t;
        }
    }
}

#[test]
fn latency_breakdown_sums_to_one() {
    let mut rng = StdRng::seed_from_u64(0xC0_0007);
    for case in 0..128 {
        let (cfg, set) = (arb_config(&mut rng), arb_set(&mut rng));
        let r = Simulator::new(cfg.clone()).bootstrap_batch(&set.params(), 16);
        let (ms, br, se, ks) = r.latency_breakdown();
        let at = format!("case {case}: {set:?} {cfg:?}: {ms} {br} {se} {ks}");
        assert!((ms + br + se + ks - 1.0).abs() < 1e-9, "{at}");
        assert!(ms >= 0.0 && br > 0.0 && se >= 0.0 && ks >= 0.0, "{at}");
    }
}

#[test]
fn batch_time_is_monotone_in_count() {
    let mut rng = StdRng::seed_from_u64(0xC0_0008);
    for case in 0..128 {
        let set = arb_set(&mut rng);
        let (c1, c2) = (rng.gen_range(1u64..500), rng.gen_range(1u64..500));
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        let sim = Simulator::new(ArchConfig::morphling_default());
        let params = set.params();
        let t_lo = sim.batch_time_seconds(&params, lo, 16);
        let t_hi = sim.batch_time_seconds(&params, hi, 16);
        let at = format!("case {case}: {set:?}");
        assert!(t_hi >= t_lo, "{at}: t({hi})={t_hi} < t({lo})={t_lo}");
    }
}
