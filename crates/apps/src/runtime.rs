//! Execution-time estimation for Table VI: applications mapped onto the
//! Morphling simulator versus a calibrated multi-core CPU baseline —
//! plus the [`InferenceDriver`], a wave-batching serving front-end that
//! runs the functional demos through any [`Bootstrapper`] backend.

use crate::functional::{DecisionTree, MlpModel};
use morphling_core::sched::Workload;
use morphling_core::sim::Simulator;
use morphling_core::ArchConfig;
use morphling_math::{Torus32, TorusScalar};
use morphling_tfhe::{
    ops, BatchRequest, Bootstrapper, Lut, LweCiphertext, ParamSet, ServerKey, TfheError, TfheParams,
};

/// CPU baseline model: a 64-core Xeon Gold 6226R running Concrete (the
/// paper's Table VI testbed). Per-core bootstrap throughput comes from the
/// paper's own Table V CPU rows; multi-core scaling uses a parallel
/// efficiency factor (memory-bandwidth limits keep it well below 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Single-core bootstraps per second at the chosen parameter set.
    pub single_core_bs_s: f64,
    /// Number of cores.
    pub cores: u32,
    /// Parallel efficiency in (0, 1].
    pub parallel_efficiency: f64,
    /// Aggregate leveled-MAC throughput (MAC/s).
    pub mac_per_s: f64,
}

impl CpuModel {
    /// The Table VI testbed at 128-bit parameters (set III: 12 BS/s per
    /// core from Table V; 64 cores at 50% scaling).
    pub(crate) fn xeon_6226r_set_iii() -> Self {
        Self {
            single_core_bs_s: 12.0,
            cores: 64,
            parallel_efficiency: 0.5,
            mac_per_s: 5e10,
        }
    }

    /// Effective aggregate bootstrap throughput.
    pub fn bs_per_s(&self) -> f64 {
        self.single_core_bs_s * self.cores as f64 * self.parallel_efficiency
    }

    /// Seconds to run a workload (bootstrap-throughput bound; leveled MACs
    /// added at the aggregate MAC rate).
    pub(crate) fn workload_seconds(&self, workload: &Workload) -> f64 {
        let bs = workload.total_bootstraps() as f64 / self.bs_per_s();
        let macs: u64 = workload.levels.iter().map(|&(_, m)| m).sum();
        bs + macs as f64 / self.mac_per_s
    }
}

/// The full application runtime: accelerator simulator + parameter set +
/// CPU baseline.
#[derive(Clone, Debug)]
pub struct AppRuntime {
    sim: Simulator,
    params: TfheParams,
    cpu: CpuModel,
}

impl AppRuntime {
    /// The paper's configuration: default Morphling, 128-bit set III,
    /// 64-core CPU baseline.
    pub fn paper_default() -> Self {
        Self {
            sim: Simulator::new(ArchConfig::morphling_default()),
            params: ParamSet::III.params(),
            cpu: CpuModel::xeon_6226r_set_iii(),
        }
    }

    /// Custom construction.
    pub fn new(config: ArchConfig, params: TfheParams, cpu: CpuModel) -> Self {
        Self {
            sim: Simulator::new(config),
            params,
            cpu,
        }
    }

    /// The TFHE parameter set applications run at.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// The simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Morphling execution time for a workload: per dependency level, the
    /// level's bootstraps run in waves of in-flight ciphertexts; leveled
    /// MACs run on the VPU (overlapped with the next level's bootstraps in
    /// hardware, charged serially here — they are orders of magnitude
    /// smaller).
    pub fn morphling_seconds(&self, workload: &Workload) -> f64 {
        let cfg = self.sim.config();
        let vpu_mac_s = cfg.vpu_macs_per_cycle() as f64 * cfg.clock_hz();
        workload
            .levels
            .iter()
            .map(|&(bootstraps, macs)| {
                self.sim
                    .batch_time_seconds(&self.params, bootstraps, bootstraps)
                    + macs as f64 / vpu_mac_s
            })
            .sum()
    }
}

/// A Table VI row: both platforms' execution times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Morphling execution time in seconds.
    pub morphling_seconds: f64,
    /// CPU execution time in seconds.
    pub cpu_seconds: f64,
}

impl Estimate {
    /// CPU-over-Morphling speedup.
    pub fn speedup(&self) -> f64 {
        self.cpu_seconds / self.morphling_seconds
    }
}

/// Estimate both columns of Table VI for one workload.
pub fn estimate(workload: &Workload, runtime: &AppRuntime) -> Estimate {
    Estimate {
        morphling_seconds: runtime.morphling_seconds(workload),
        cpu_seconds: runtime.cpu.workload_seconds(workload),
    }
}

/// A wave-batching serving driver: runs each functional demo model over
/// *many* encrypted inputs at once, flattening each dependency level's
/// bootstraps across requests into one [`BatchRequest`] wave — the
/// software analogue of how Morphling's SW scheduler merges independent
/// inferences to keep the cores saturated (§V). Each model is exactly one
/// wave: [`classify_tree_wave_fused`](Self::classify_tree_wave_fused) and
/// [`infer_mlp_wave`](Self::infer_mlp_wave); a single inference is a
/// one-element slice.
///
/// Generic over any [`Bootstrapper`] backend: a bare
/// [`ServerKey`] (sequential reference), a
/// [`BootstrapEngine`](morphling_tfhe::BootstrapEngine) pool, or a
/// [`Dispatcher`](morphling_tfhe::Dispatcher). All of them produce
/// bit-identical ciphertexts.
#[derive(Debug)]
pub struct InferenceDriver<'a, B: Bootstrapper + ?Sized> {
    server: &'a ServerKey,
    backend: &'a B,
}

impl<'a, B: Bootstrapper + ?Sized> InferenceDriver<'a, B> {
    /// Pair the key material (for parameters and the leveled layers) with
    /// the batch-bootstrap backend. The backend must wrap a server key
    /// derived from the same client key.
    pub fn new(server: &'a ServerKey, backend: &'a B) -> Self {
        Self { server, backend }
    }

    /// The server key the leveled layers run on.
    pub fn server(&self) -> &ServerKey {
        self.server
    }

    /// Run one MLP inference per `(x0, x1)` input pair, batching each of
    /// the model's two bootstrap levels across *all* pairs: first one
    /// wave of `pairs.len() × hidden` ReLU activations, then one wave of
    /// `pairs.len()` threshold decisions. Outputs line up with `pairs`
    /// and decrypt to [`MlpModel::infer_clear`].
    ///
    /// # Errors
    ///
    /// Propagates any [`TfheError`] from the backend.
    ///
    /// # Panics
    ///
    /// If the model has no hidden neuron, or `output` does not hold
    /// exactly one weight per hidden neuron — even for an empty wave.
    pub fn infer_mlp_wave(
        &self,
        model: &MlpModel,
        pairs: &[(LweCiphertext, LweCiphertext)],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        model.assert_shape();
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let p = self.server.params().plaintext_modulus;
        let n_poly = self.server.params().poly_size;
        let shift = model.relu_shift;
        let relu = Lut::from_fn(n_poly, p, move |s| s.saturating_sub(shift));
        // Level 1: every hidden-neuron affine sum of every request, one wave.
        let sums: Vec<LweCiphertext> = pairs
            .iter()
            .flat_map(|(x0, x1)| {
                let inputs = [x0.clone(), x1.clone()];
                model
                    .hidden
                    .iter()
                    .map(move |&(w0, w1, b)| {
                        // The bias joins the padded encoding: b / 2p on the torus.
                        ops::affine(&inputs, &[w0, w1], Torus32::encode(b, 2 * p))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let activations = self
            .backend
            .try_bootstrap_batch(&BatchRequest::shared(sums, relu))?;
        // Leveled output layer per request.
        let accs: Vec<LweCiphertext> = activations
            .chunks(model.hidden.len())
            .map(|acts| {
                acts.iter()
                    .zip(&model.output)
                    .map(|(a, &v)| a.scalar_mul(v))
                    .reduce(|acc, term| acc.add(&term))
                    .expect("the shape check admits no empty hidden layer")
            })
            .collect();
        // Level 2: every threshold decision, one wave.
        let threshold = model.threshold;
        let decide = Lut::from_fn(n_poly, p, move |s| u64::from(s >= threshold));
        self.backend
            .try_bootstrap_batch(&BatchRequest::shared(accs, decide))
    }

    /// Classify one feature vector per entry of `feature_sets` in two
    /// waves. The first groups the node comparisons of every request by
    /// feature into one **fanout** wave: each distinct feature of each
    /// request blind-rotates once and all of its threshold LUTs extract
    /// from that rotation (multi-value bootstrapping; see
    /// [`DecisionTree::node_groups`]). The second is one leaf lookup per
    /// request on the packed decision index. Outputs line up with
    /// `feature_sets` and decrypt to [`DecisionTree::classify_clear`].
    ///
    /// A request costs `node_groups().len() + 1` rotations and 3 + 1
    /// extractions: a tree whose children share a feature rotates twice
    /// for its comparisons instead of three times. A fanout list of one
    /// LUT runs as the plain bootstrap, so on a tree whose tests read
    /// distinct features the wave is bit-identical to three comparisons
    /// in lists of one; a shared rotation adds bounded noise that the leaf
    /// lookup absorbs.
    ///
    /// # Errors
    ///
    /// Propagates any [`TfheError`] from the backend.
    ///
    /// # Panics
    ///
    /// If a feature set is shorter than the tree's highest feature index
    /// plus one (before any bootstrap is issued).
    pub fn classify_tree_wave_fused(
        &self,
        tree: &DecisionTree,
        feature_sets: &[Vec<LweCiphertext>],
    ) -> Result<Vec<LweCiphertext>, TfheError> {
        if feature_sets.is_empty() {
            return Ok(Vec::new());
        }
        let groups = tree.node_groups();
        // One ciphertext per (request, distinct feature); its fanout list
        // names every node test reading that feature.
        let cts: Vec<LweCiphertext> = feature_sets
            .iter()
            .flat_map(|f| groups.iter().map(|&(feat, _)| f[feat].clone()))
            .collect();
        let fanout: Vec<Vec<usize>> = feature_sets
            .iter()
            .flat_map(|_| groups.iter().map(|(_, nodes)| nodes.clone()))
            .collect();
        let luts = tree.node_luts(self.server.params());
        let outs = self
            .backend
            .try_bootstrap_batch(&BatchRequest::fanned_out(cts, luts, fanout)?)?;
        // Per request: three group-major outputs → node order → packed
        // index. Then one wave of leaf lookups.
        let order: Vec<usize> = groups.iter().flat_map(|(_, n)| n.iter().copied()).collect();
        let indices: Vec<LweCiphertext> = outs
            .chunks(order.len())
            .map(|outs| {
                let mut decisions = [&outs[0]; 3];
                for (&node, out) in order.iter().zip(outs) {
                    decisions[node] = out;
                }
                pack(decisions)
            })
            .collect();
        let leaf_lut = tree.leaf_lut(self.server.params());
        self.backend
            .try_bootstrap_batch(&BatchRequest::shared(indices, leaf_lut))
    }
}

/// The decision index `4·d0 + 2·d1 + d2` of three node-order decisions.
fn pack([d0, d1, d2]: [&LweCiphertext; 3]) -> LweCiphertext {
    d0.scalar_mul(4).add(&d1.scalar_mul(2)).add(d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::deep_cnn;
    use crate::xgboost::XgBoostModel;

    #[test]
    fn deep_cnn_times_land_on_table_vi() {
        let rt = AppRuntime::paper_default();
        // Paper: 0.34 / 0.84 / 1.72 s on Morphling; 33.3 / 74.9 / 180.1 s
        // on the CPU.
        for (x, paper_m, paper_c) in [(20, 0.34, 33.32), (50, 0.84, 74.94), (100, 1.72, 180.09)] {
            let est = estimate(&deep_cnn(x).workload(), &rt);
            let m_ratio = est.morphling_seconds / paper_m;
            let c_ratio = est.cpu_seconds / paper_c;
            assert!(
                (0.7..1.4).contains(&m_ratio),
                "DeepCNN-{x}: morphling {} vs {paper_m}",
                est.morphling_seconds
            );
            assert!(
                (0.7..1.4).contains(&c_ratio),
                "DeepCNN-{x}: cpu {} vs {paper_c}",
                est.cpu_seconds
            );
        }
    }

    #[test]
    fn speedups_are_in_the_papers_range() {
        // Paper: 88–144× across the five applications.
        let rt = AppRuntime::paper_default();
        let apps: Vec<morphling_core::sched::Workload> = vec![
            XgBoostModel::paper_benchmark().workload(),
            deep_cnn(20).workload(),
            deep_cnn(100).workload(),
            crate::models::vgg9().workload(),
        ];
        for w in &apps {
            let s = estimate(w, &rt).speedup();
            assert!((60.0..200.0).contains(&s), "speedup {s}");
        }
    }

    #[test]
    fn deep_cnn_runs_sub_second_up_to_50_layers() {
        // The paper's headline: "various deep learning models with
        // sub-second latency".
        let rt = AppRuntime::paper_default();
        assert!(estimate(&deep_cnn(20).workload(), &rt).morphling_seconds < 1.0);
        assert!(estimate(&deep_cnn(50).workload(), &rt).morphling_seconds < 1.0);
    }

    #[test]
    fn cpu_model_throughput() {
        let cpu = CpuModel::xeon_6226r_set_iii();
        assert!((cpu.bs_per_s() - 384.0).abs() < 1e-9);
    }

    use morphling_tfhe::{BootstrapEngine, ClientKey, Dispatcher, ServingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Children share feature 1: two comparison rotations per request.
    const SHARED: DecisionTree = DecisionTree {
        root: (0, 4),
        left: (1, 2),
        right: (1, 6),
        leaves: [0, 1, 2, 3],
    };

    /// A client key and the three backends over one server key built from
    /// it: the bare key, an engine pool and a dispatcher.
    fn backends(
        params: TfheParams,
        rng: &mut StdRng,
    ) -> (ClientKey, Arc<ServerKey>, BootstrapEngine, Dispatcher) {
        let ck = ClientKey::generate(params, rng);
        let sk = Arc::new(ServerKey::new(&ck, rng));
        let engine = BootstrapEngine::builder()
            .workers(2)
            .build(Arc::clone(&sk))
            .unwrap();
        let config = ServingConfig::builder().max_batch_size(16).build().unwrap();
        let dispatcher = Dispatcher::from_config(&config, Arc::clone(&sk)).unwrap();
        (ck, sk, engine, dispatcher)
    }

    /// The tree's exhaustive 4×4 grid at TestMedium, one wave per backend:
    /// the waves are bit-identical and decode to `classify_clear`; an empty
    /// wave is a no-op.
    #[test]
    fn the_tree_is_one_wave_on_every_backend() {
        let mut rng = StdRng::seed_from_u64(200);
        let (ck, sk, engine, dispatcher) = backends(ParamSet::TestMedium.params(), &mut rng);
        let table: [(&str, &dyn Bootstrapper); 3] = [
            ("server key", &*sk),
            ("engine", &engine),
            ("dispatcher", &dispatcher),
        ];
        let grid: Vec<[u64; 2]> = [0u64, 3, 4, 7]
            .iter()
            .flat_map(|&x0| [0u64, 2, 5, 7].map(|x1| [x0, x1]))
            .collect();
        let feats: Vec<Vec<_>> = grid
            .iter()
            .map(|x| x.iter().map(|&v| ck.encrypt(v, &mut rng)).collect())
            .collect();
        let mut reference = None;
        for (name, backend) in table {
            let driver = InferenceDriver::new(&sk, backend);
            let outs = driver.classify_tree_wave_fused(&SHARED, &feats).unwrap();
            let reference = reference.get_or_insert_with(|| outs.clone());
            assert_eq!(&outs, reference, "{name}");
            for (out, x) in outs.iter().zip(&grid) {
                assert_eq!(ck.decrypt(out), SHARED.classify_clear(x), "{name}: {x:?}");
            }
            assert!(driver
                .classify_tree_wave_fused(&SHARED, &[])
                .unwrap()
                .is_empty());
        }
    }

    /// The MLP's exhaustive 4×4 grid at p = 16, one wave per backend: the
    /// waves are bit-identical, decode to `infer_clear` and hit both
    /// classes; an empty wave is a no-op.
    #[test]
    fn the_mlp_is_one_wave_on_every_backend() {
        let mut rng = StdRng::seed_from_u64(201);
        let params = ParamSet::TestMedium.params().with_plaintext_modulus(16);
        let (ck, sk, engine, dispatcher) = backends(params, &mut rng);
        let table: [(&str, &dyn Bootstrapper); 3] = [
            ("server key", &*sk),
            ("engine", &engine),
            ("dispatcher", &dispatcher),
        ];
        let model = MlpModel::demo();
        // The hidden accumulator stays below the plaintext modulus for
        // inputs below 4.
        let max_acc = model
            .hidden
            .iter()
            .map(|&(w0, w1, b)| (w0 + w1) as u64 * 3 + b);
        assert!(max_acc.max() < Some(16), "accumulator must fit p");
        let grid: Vec<(u64, u64)> = (0..4u64)
            .flat_map(|x0| (0..4).map(move |x1| (x0, x1)))
            .collect();
        let pairs: Vec<_> = grid
            .iter()
            .map(|&(x0, x1)| (ck.encrypt(x0, &mut rng), ck.encrypt(x1, &mut rng)))
            .collect();
        let mut reference = None;
        for (name, backend) in table {
            let driver = InferenceDriver::new(&sk, backend);
            let outs = driver.infer_mlp_wave(&model, &pairs).unwrap();
            let reference = reference.get_or_insert_with(|| outs.clone());
            assert_eq!(&outs, reference, "{name}");
            let mut classes = [0u64; 2];
            for (out, &(x0, x1)) in outs.iter().zip(&grid) {
                let class = ck.decrypt(out);
                assert_eq!(class, model.infer_clear(x0, x1), "{name}: x0={x0} x1={x1}");
                classes[class as usize] += 1;
            }
            // Both classes occur — the demo model is not degenerate.
            assert!(classes[0] > 0 && classes[1] > 0);
            assert!(driver.infer_mlp_wave(&model, &[]).unwrap().is_empty());
        }
    }

    /// On a tree whose tests read distinct features every fanout list holds
    /// one LUT, which runs as the plain bootstrap: the fused wave equals a
    /// wave of the three comparisons in lists of one, rotating 3 + 1 times per
    /// request. A shared feature saves one rotation, no extraction.
    #[test]
    fn the_fused_tree_wave_rotates_once_per_distinct_feature() {
        let mut rng = StdRng::seed_from_u64(207);
        let (ck, sk, engine, _) = backends(ParamSet::TestMedium.params(), &mut rng);
        let disjoint = DecisionTree {
            right: (2, 6),
            ..SHARED
        };
        let inputs = [[0u64, 7, 3], [5, 1, 6], [4, 6, 0], [7, 0, 7]];
        let feats: Vec<Vec<_>> = inputs
            .iter()
            .map(|x| x.iter().map(|&v| ck.encrypt(v, &mut rng)).collect())
            .collect();
        let driver = InferenceDriver::new(&sk, &engine);
        let fused = driver.classify_tree_wave_fused(&disjoint, &feats).unwrap();
        let stats = engine.stats();
        assert_eq!(
            (stats.bootstraps, stats.extractions),
            (4 * (3 + 1), 4 * (3 + 1))
        );

        // Lists of one: one comparison per node, then the leaf lookups.
        let nodes = [disjoint.root, disjoint.left, disjoint.right];
        let cts = feats
            .iter()
            .flat_map(|f| nodes.map(|(feat, _)| f[feat].clone()))
            .collect();
        let lists = feats
            .iter()
            .flat_map(|_| [vec![0], vec![1], vec![2]])
            .collect();
        let luts = disjoint.node_luts(sk.params());
        let decisions = sk
            .try_bootstrap_batch(&BatchRequest::fanned_out(cts, luts, lists).unwrap())
            .unwrap();
        let indices = decisions
            .chunks(3)
            .map(|d| pack([&d[0], &d[1], &d[2]]))
            .collect();
        let leaf_lut = disjoint.leaf_lut(sk.params());
        let per_item = sk
            .try_bootstrap_batch(&BatchRequest::shared(indices, leaf_lut))
            .unwrap();
        assert_eq!(fused, per_item);
        for (out, x) in fused.iter().zip(&inputs) {
            assert_eq!(ck.decrypt(out), disjoint.classify_clear(x), "{x:?}");
        }

        let outs = driver.classify_tree_wave_fused(&SHARED, &feats).unwrap();
        let shared = engine.stats();
        assert_eq!(shared.bootstraps - stats.bootstraps, 4 * (2 + 1));
        assert_eq!(shared.extractions - stats.extractions, 4 * (3 + 1));
        for (out, x) in outs.iter().zip(&inputs) {
            assert_eq!(ck.decrypt(out), SHARED.classify_clear(x), "{x:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one output weight per hidden neuron")]
    fn an_mlp_with_a_short_output_layer_panics_at_entry() {
        let mut rng = StdRng::seed_from_u64(208);
        let ck = ClientKey::generate(ParamSet::Test.params(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let model = MlpModel {
            output: vec![1],
            ..MlpModel::demo()
        };
        let pair = (ck.encrypt(1, &mut rng), ck.encrypt(2, &mut rng));
        let _ = InferenceDriver::new(&sk, &sk).infer_mlp_wave(&model, &[pair]);
    }
}
