//! The custom instruction set of §V-E.
//!
//! Morphling exposes three instruction classes — XPU, VPU, and DMA — that
//! the SW-scheduler emits and the HW-scheduler dispatches. Instructions
//! carry explicit dependencies (the `VPU(MS) → XPU → VPU(SE) → VPU(KS)`
//! chain of Fig 6), which is what lets the hardware overlap independent
//! groups while serializing dependent stages.

use std::fmt;

/// Identifier of a scheduled instruction within one program.
pub type InstrId = u32;

/// A group of ciphertexts scheduled together (the paper groups every 64
/// LWE ciphertexts into four 16-ciphertext groups).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// XPU instructions: blind rotation over a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XpuOp {
    /// Run `n` external-product iterations for every ciphertext slot of a
    /// group (Algorithm 1 lines 2–4).
    BlindRotate {
        /// Number of iterations (`n`, the LWE dimension).
        iterations: u32,
    },
}

/// VPU instructions: the memory-intensive stages plus programmable vector
/// arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VpuOp {
    /// Modulus switching of a group's LWE ciphertexts.
    ModSwitch,
    /// Sample extraction from the blind-rotation results.
    SampleExtract,
    /// Key switching back to the original key.
    KeySwitch,
    /// Programmable vector ALU work (leveled adds/multiplies between
    /// bootstraps), measured in MAC operations.
    PAlu {
        /// MAC operations to execute.
        macs: u64,
    },
}

/// DMA instructions: programmed data movement between HBM and the on-chip
/// buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmaOp {
    /// Stream a window of bootstrapping-key iterations into Private-A2.
    LoadBskWindow {
        /// First blind-rotation iteration covered.
        from_iter: u32,
        /// One past the last iteration covered.
        to_iter: u32,
    },
    /// Load the key-switching key (or a tile of it) into Private-B.
    LoadKsk,
    /// Load a group's input LWE ciphertexts into Private-A1.
    LoadLwe,
    /// Store a group's output LWE ciphertexts back to HBM.
    StoreLwe,
}

/// One instruction: an operation bound to a ciphertext group, plus its
/// dependencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instruction {
    /// Unique id within the program.
    pub id: InstrId,
    /// The group this instruction operates on.
    pub group: GroupId,
    /// The operation.
    pub op: Op,
    /// Ids of instructions that must complete first.
    pub deps: Vec<InstrId>,
}

/// The union of the three instruction classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// An XPU instruction.
    Xpu(XpuOp),
    /// A VPU instruction.
    Vpu(VpuOp),
    /// A DMA instruction.
    Dma(DmaOp),
}

impl Op {
    /// Which execution unit class runs this op.
    pub fn unit(&self) -> UnitClass {
        match self {
            Op::Xpu(_) => UnitClass::Xpu,
            Op::Vpu(_) => UnitClass::Vpu,
            Op::Dma(_) => UnitClass::Dma,
        }
    }
}

/// Execution unit classes the HW-scheduler arbitrates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// External product units.
    Xpu,
    /// The vector processing unit.
    Vpu,
    /// DMA engines.
    Dma,
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitClass::Xpu => f.write_str("XPU"),
            UnitClass::Vpu => f.write_str("VPU"),
            UnitClass::Dma => f.write_str("DMA"),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Xpu(XpuOp::BlindRotate { iterations }) => {
                write!(f, "XPU.BR    iters={iterations}")
            }
            Op::Vpu(VpuOp::ModSwitch) => f.write_str("VPU.MS"),
            Op::Vpu(VpuOp::SampleExtract) => f.write_str("VPU.SE"),
            Op::Vpu(VpuOp::KeySwitch) => f.write_str("VPU.KS"),
            Op::Vpu(VpuOp::PAlu { macs }) => write!(f, "VPU.PALU  macs={macs}"),
            Op::Dma(DmaOp::LoadBskWindow { from_iter, to_iter }) => {
                write!(f, "DMA.LDBSK [{from_iter}..{to_iter})")
            }
            Op::Dma(DmaOp::LoadKsk) => f.write_str("DMA.LDKSK"),
            Op::Dma(DmaOp::LoadLwe) => f.write_str("DMA.LDLWE"),
            Op::Dma(DmaOp::StoreLwe) => f.write_str("DMA.STLWE"),
        }
    }
}

impl fmt::Display for Instruction {
    /// Assembly-style disassembly: `id: op @group [deps]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>4}: {:<24} @g{}",
            self.id,
            self.op.to_string(),
            self.group.0
        )?;
        if !self.deps.is_empty() {
            write!(f, "  waits {:?}", self.deps)?;
        }
        Ok(())
    }
}

/// A complete instruction program for one workload.
#[derive(Clone, Debug, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an instruction, returning its id.
    pub fn push(&mut self, group: GroupId, op: Op, deps: Vec<InstrId>) -> InstrId {
        let id = self.instructions.len() as InstrId;
        for &d in &deps {
            assert!(d < id, "dependency {d} does not precede instruction {id}");
        }
        self.instructions.push(Instruction {
            id,
            group,
            op,
            deps,
        });
        id
    }

    /// All instructions in issue order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

impl fmt::Display for Program {
    /// Full disassembly listing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.instructions {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_assigns_sequential_ids() {
        let mut p = Program::new();
        let a = p.push(GroupId(0), Op::Vpu(VpuOp::ModSwitch), vec![]);
        let b = p.push(
            GroupId(0),
            Op::Xpu(XpuOp::BlindRotate { iterations: 500 }),
            vec![a],
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.instructions()[1].deps, vec![0]);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependencies_are_rejected() {
        let mut p = Program::new();
        p.push(GroupId(0), Op::Vpu(VpuOp::ModSwitch), vec![5]);
    }

    #[test]
    fn op_unit_classes() {
        assert_eq!(
            Op::Xpu(XpuOp::BlindRotate { iterations: 1 }).unit(),
            UnitClass::Xpu
        );
        assert_eq!(Op::Vpu(VpuOp::KeySwitch).unit(), UnitClass::Vpu);
        assert_eq!(Op::Dma(DmaOp::LoadKsk).unit(), UnitClass::Dma);
        assert_eq!(UnitClass::Dma.to_string(), "DMA");
    }

    #[test]
    fn disassembly_lists_every_instruction() {
        let mut p = Program::new();
        let ms = p.push(GroupId(0), Op::Vpu(VpuOp::ModSwitch), vec![]);
        p.push(
            GroupId(0),
            Op::Xpu(XpuOp::BlindRotate { iterations: 500 }),
            vec![ms],
        );
        let listing = p.to_string();
        assert!(listing.contains("VPU.MS"));
        assert!(listing.contains("XPU.BR    iters=500"));
        assert!(listing.contains("waits [0]"));
        let units: Vec<_> = p.instructions.iter().map(|i| i.op.unit()).collect();
        assert_eq!(units, [UnitClass::Vpu, UnitClass::Xpu]);
    }
}
