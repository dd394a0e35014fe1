//! The software scheduler (Fig 6, left side): application-level batching
//! and tiling into an instruction stream.

use morphling_tfhe::TfheParams;

use crate::config::ArchConfig;
use crate::isa::{DmaOp, GroupId, Op, Program, VpuOp, XpuOp};

/// An application's demand, expressed in scheduling "levels": all
/// bootstraps within a level are independent; level `i+1` depends on level
/// `i` (e.g. neural-network layers). Leveled P-ALU work (MACs) can be
/// attached per level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Workload {
    /// `(bootstraps, palu_macs)` per dependency level.
    pub levels: Vec<(u64, u64)>,
}

impl Workload {
    /// A single level of `count` independent bootstraps.
    pub fn independent(count: u64) -> Self {
        Self {
            levels: vec![(count, 0)],
        }
    }

    /// Append a level.
    pub fn then(mut self, bootstraps: u64, palu_macs: u64) -> Self {
        self.levels.push((bootstraps, palu_macs));
        self
    }

    /// Total bootstraps across all levels.
    pub fn total_bootstraps(&self) -> u64 {
        self.levels.iter().map(|&(b, _)| b).sum()
    }
}

/// The software scheduler: turns a [`Workload`] into a tiled, batched
/// [`Program`].
#[derive(Clone, Debug)]
pub struct SwScheduler {
    config: ArchConfig,
}

impl SwScheduler {
    /// Create a scheduler for one architecture.
    pub fn new(config: ArchConfig) -> Self {
        Self { config }
    }

    /// The group size: ciphertexts scheduled together per instruction
    /// (one per XPU set of rows — 16 in the default configuration; four
    /// groups make the 64-ciphertext super-group of §V-E).
    pub(crate) fn group_size(&self) -> u64 {
        self.config.bootstrap_cores() as u64
    }

    /// Compile a workload into an instruction program. Each group gets the
    /// Fig 6 chain `DMA(LWE) → VPU(MS) → XPU(BR) → VPU(SE) → VPU(KS) →
    /// DMA(out)`, with BSK window and KSK loads scheduled once per level,
    /// and levels serialized by dependencies.
    pub fn compile(&self, workload: &Workload, params: &TfheParams) -> Program {
        let mut prog = Program::new();
        let mut group_no = 0u32;
        let mut prev_level_last: Vec<u32> = Vec::new();
        for &(bootstraps, palu_macs) in &workload.levels {
            let mut this_level: Vec<u32> = Vec::new();
            let groups = bootstraps.div_ceil(self.group_size().max(1));
            for _ in 0..groups {
                let g = GroupId(group_no);
                group_no += 1;
                // Groups within a level are independent: each group's
                // LoadLwe waits only on the previous level's outputs.
                // (An earlier revision also pushed this group's StoreLwe
                // into a clone of that list after use — a dead store that
                // suggested cross-group chaining which never existed.)
                let load = prog.push(g, Op::Dma(DmaOp::LoadLwe), prev_level_last.clone());
                let bsk = prog.push(
                    g,
                    Op::Dma(DmaOp::LoadBskWindow {
                        from_iter: 0,
                        to_iter: params.lwe_dim as u32,
                    }),
                    vec![],
                );
                let ms = prog.push(g, Op::Vpu(VpuOp::ModSwitch), vec![load]);
                let br = prog.push(
                    g,
                    Op::Xpu(XpuOp::BlindRotate {
                        iterations: params.lwe_dim as u32,
                    }),
                    vec![ms, bsk],
                );
                let se = prog.push(g, Op::Vpu(VpuOp::SampleExtract), vec![br]);
                let ksk = prog.push(g, Op::Dma(DmaOp::LoadKsk), vec![]);
                let ks = prog.push(g, Op::Vpu(VpuOp::KeySwitch), vec![se, ksk]);
                let store = prog.push(g, Op::Dma(DmaOp::StoreLwe), vec![ks]);
                this_level.push(store);
            }
            if palu_macs > 0 {
                let g = GroupId(group_no);
                group_no += 1;
                let palu = prog.push(
                    g,
                    Op::Vpu(VpuOp::PAlu { macs: palu_macs }),
                    this_level.clone(),
                );
                this_level.push(palu);
            }
            prev_level_last = this_level;
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphling_tfhe::ParamSet;

    #[test]
    fn groups_of_sixteen_with_dependency_chain() {
        let sched = SwScheduler::new(ArchConfig::morphling_default());
        assert_eq!(sched.group_size(), 16);
        let prog = sched.compile(&Workload::independent(64), &ParamSet::I.params());
        // 4 groups × 8 instructions.
        assert_eq!(prog.len(), 32);
        // The BR of each group depends on its MS.
        let br = &prog.instructions()[3];
        assert!(matches!(br.op, Op::Xpu(_)));
        assert!(br.deps.contains(&2));
    }

    #[test]
    fn levels_serialize() {
        let sched = SwScheduler::new(ArchConfig::morphling_default());
        let w = Workload::independent(16).then(16, 1000);
        let prog = sched.compile(&w, &ParamSet::I.params());
        // The second level's LoadLwe depends on the first level's outputs.
        let second_load = prog
            .instructions()
            .iter()
            .filter(|i| matches!(i.op, Op::Dma(DmaOp::LoadLwe)))
            .nth(1)
            .unwrap();
        assert!(!second_load.deps.is_empty());
    }

    #[test]
    fn groups_within_a_level_do_not_chain_on_each_other() {
        // Regression for the dead `deps.push(store)`: within one level,
        // group g+1's LoadLwe must depend only on the *previous level's*
        // stores — never on sibling groups of its own level.
        let sched = SwScheduler::new(ArchConfig::morphling_default());
        let prog = sched.compile(
            &Workload::independent(64).then(64, 0),
            &ParamSet::I.params(),
        );
        let stores_of_level: Vec<Vec<u32>> = (0..2)
            .map(|level| {
                prog.instructions()
                    .iter()
                    .filter(|i| matches!(i.op, Op::Dma(DmaOp::StoreLwe)))
                    .skip(level * 4)
                    .take(4)
                    .map(|i| i.id)
                    .collect()
            })
            .collect();
        let loads: Vec<_> = prog
            .instructions()
            .iter()
            .filter(|i| matches!(i.op, Op::Dma(DmaOp::LoadLwe)))
            .collect();
        assert_eq!(loads.len(), 8);
        for load in &loads[..4] {
            assert!(load.deps.is_empty(), "level-0 load {load} has deps");
        }
        for load in &loads[4..] {
            assert_eq!(
                load.deps, stores_of_level[0],
                "level-1 load {load} must wait on exactly the level-0 stores"
            );
            for sibling_store in &stores_of_level[1] {
                assert!(!load.deps.contains(sibling_store));
            }
        }
    }

    #[test]
    fn workload_builders() {
        let w = Workload::independent(10).then(5, 0);
        assert_eq!(w.total_bootstraps(), 15);
        assert_eq!(w.levels.len(), 2);
    }
}
