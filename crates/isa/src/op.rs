//! Opcodes and opcode classification.
//!
//! The timing model cares about *classes* of operations (which functional unit
//! an instruction needs, whether it touches memory, whether it can be
//! vectorized) much more than about individual opcodes, so every [`Opcode`]
//! maps onto an [`OpClass`] and, for memory operations, a [`MemWidth`].

use std::fmt;

/// Width in bytes of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl MemWidth {
    /// The access size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Broad operation classes used by the issue logic and functional-unit pool.
///
/// The latencies associated with each class are configuration of the timing
/// model (`sdv-uarch`), mirroring Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Simple integer ALU operation (1-cycle class in the paper).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Simple floating-point operation (add/sub/compare/convert).
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump / call / return.
    Jump,
    /// No operation.
    Nop,
    /// Stops the program.
    Halt,
}

impl OpClass {
    /// Whether the class accesses memory.
    #[must_use]
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the class transfers control.
    #[must_use]
    pub const fn is_control(self) -> bool {
        matches!(self, OpClass::Branch | OpClass::Jump)
    }

    /// Whether the class is integer or floating-point arithmetic (the
    /// instructions that execute on a scalar arithmetic unit).
    #[must_use]
    pub const fn is_arith(self) -> bool {
        matches!(
            self,
            OpClass::IntAlu
                | OpClass::IntMul
                | OpClass::IntDiv
                | OpClass::FpAdd
                | OpClass::FpMul
                | OpClass::FpDiv
        )
    }

    /// Whether instructions of this class are candidates for dynamic
    /// vectorization (loads and arithmetic, per §3.1/§3.2 of the paper).
    #[must_use]
    pub const fn is_vectorizable(self) -> bool {
        self.is_arith() || matches!(self, OpClass::Load)
    }
}

/// Every opcode of the SDV ISA.
///
/// Operand conventions (see [`crate::Inst`]):
/// * three-register ALU ops use `dst`, `src1`, `src2`;
/// * immediate ALU ops use `dst`, `src1` and `imm`;
/// * loads use `dst`, base register `src1` and displacement `imm`;
/// * stores use data register `src2`, base register `src1` and displacement `imm`;
/// * branches compare `src1` with `src2` and jump to the absolute target `imm`;
/// * `J`/`Jal` jump to the absolute target `imm`; `Jr`/`Jalr` jump to `src1 + imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are systematic; class/semantics documented above
pub enum Opcode {
    // Integer ALU (register-register).
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    // Integer ALU (register-immediate).
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    /// Load a 64-bit immediate into an integer register.
    Li,
    // Integer multiply / divide.
    Mul,
    Mulh,
    Div,
    Rem,
    // Floating point.
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    Fsqrt,
    Fneg,
    Fabs,
    Fmin,
    Fmax,
    /// Convert a signed 64-bit integer (`src1`, integer reg) to f64 (`dst`, fp reg).
    Fcvtlf,
    /// Convert an f64 (`src1`, fp reg) to a signed 64-bit integer (`dst`, integer reg).
    Fcvtfl,
    /// FP compare equal; writes 1/0 to an integer register.
    Feq,
    /// FP compare less-than; writes 1/0 to an integer register.
    Flt,
    /// FP compare less-or-equal; writes 1/0 to an integer register.
    Fle,
    // Loads.
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Lwu,
    Ld,
    Flw,
    Fld,
    // Stores.
    Sb,
    Sh,
    Sw,
    Sd,
    Fsw,
    Fsd,
    // Branches.
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    // Jumps.
    J,
    Jal,
    Jr,
    Jalr,
    // Misc.
    Nop,
    Halt,
}

impl Opcode {
    /// The operation class of this opcode.
    #[must_use]
    pub const fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Addi | Andi | Ori
            | Xori | Slli | Srli | Srai | Slti | Li => OpClass::IntAlu,
            Mul | Mulh => OpClass::IntMul,
            Div | Rem => OpClass::IntDiv,
            Fadd | Fsub | Fneg | Fabs | Fmin | Fmax | Fcvtlf | Fcvtfl | Feq | Flt | Fle => {
                OpClass::FpAdd
            }
            Fmul => OpClass::FpMul,
            Fdiv | Fsqrt => OpClass::FpDiv,
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Flw | Fld => OpClass::Load,
            Sb | Sh | Sw | Sd | Fsw | Fsd => OpClass::Store,
            Beq | Bne | Blt | Bge | Bltu | Bgeu => OpClass::Branch,
            J | Jal | Jr | Jalr => OpClass::Jump,
            Nop => OpClass::Nop,
            Halt => OpClass::Halt,
        }
    }

    /// The width of the memory access performed by this opcode, if any.
    #[must_use]
    pub const fn mem_width(self) -> Option<MemWidth> {
        use Opcode::*;
        match self {
            Lb | Lbu | Sb => Some(MemWidth::B1),
            Lh | Lhu | Sh => Some(MemWidth::B2),
            Lw | Lwu | Sw | Flw | Fsw => Some(MemWidth::B4),
            Ld | Fld | Sd | Fsd => Some(MemWidth::B8),
            _ => None,
        }
    }

    /// Whether this opcode is a load.
    #[must_use]
    pub const fn is_load(self) -> bool {
        matches!(self.class(), OpClass::Load)
    }

    /// Whether this opcode is a store.
    #[must_use]
    pub const fn is_store(self) -> bool {
        matches!(self.class(), OpClass::Store)
    }

    /// Whether this opcode is a conditional branch.
    #[must_use]
    pub const fn is_branch(self) -> bool {
        matches!(self.class(), OpClass::Branch)
    }

    /// Whether this opcode transfers control (branch or jump).
    #[must_use]
    pub const fn is_control(self) -> bool {
        self.class().is_control()
    }

    /// Whether the destination register (if any) is a floating-point register.
    #[must_use]
    pub const fn writes_fp(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fneg | Fabs | Fmin | Fmax | Fcvtlf | Flw | Fld
        )
    }

    /// A short lowercase mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Addi => "addi",
            Andi => "andi",
            Ori => "ori",
            Xori => "xori",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Slti => "slti",
            Li => "li",
            Mul => "mul",
            Mulh => "mulh",
            Div => "div",
            Rem => "rem",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fsqrt => "fsqrt",
            Fneg => "fneg",
            Fabs => "fabs",
            Fmin => "fmin",
            Fmax => "fmax",
            Fcvtlf => "fcvt.l.f",
            Fcvtfl => "fcvt.f.l",
            Feq => "feq",
            Flt => "flt",
            Fle => "fle",
            Lb => "lb",
            Lbu => "lbu",
            Lh => "lh",
            Lhu => "lhu",
            Lw => "lw",
            Lwu => "lwu",
            Ld => "ld",
            Flw => "flw",
            Fld => "fld",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Sd => "sd",
            Fsw => "fsw",
            Fsd => "fsd",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            J => "j",
            Jal => "jal",
            Jr => "jr",
            Jalr => "jalr",
            Nop => "nop",
            Halt => "halt",
        }
    }

    /// Iterates over every opcode (useful for exhaustive tests).
    pub fn all() -> impl Iterator<Item = Opcode> {
        use Opcode::*;
        [
            Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Addi, Andi, Ori, Xori, Slli, Srli,
            Srai, Slti, Li, Mul, Mulh, Div, Rem, Fadd, Fsub, Fmul, Fdiv, Fsqrt, Fneg, Fabs, Fmin,
            Fmax, Fcvtlf, Fcvtfl, Feq, Flt, Fle, Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld, Flw, Fld, Sb, Sh,
            Sw, Sd, Fsw, Fsd, Beq, Bne, Blt, Bge, Bltu, Bgeu, J, Jal, Jr, Jalr, Nop, Halt,
        ]
        .into_iter()
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_opcodes_have_widths() {
        for op in Opcode::all() {
            match op.class() {
                OpClass::Load | OpClass::Store => {
                    assert!(op.mem_width().is_some(), "{op} should have a width");
                }
                _ => assert!(op.mem_width().is_none(), "{op} should not have a width"),
            }
        }
    }

    #[test]
    fn class_predicates_are_consistent() {
        for op in Opcode::all() {
            assert_eq!(op.is_load(), op.class() == OpClass::Load);
            assert_eq!(op.is_store(), op.class() == OpClass::Store);
            assert_eq!(op.is_branch(), op.class() == OpClass::Branch);
            assert_eq!(op.is_control(), op.class().is_control());
            assert_eq!(
                op.class().is_arith(),
                op.class().is_vectorizable() && !op.is_load()
            );
        }
    }

    #[test]
    fn stores_and_branches_are_never_vectorizable() {
        assert!(!OpClass::Store.is_vectorizable());
        assert!(!OpClass::Branch.is_vectorizable());
        assert!(!OpClass::Jump.is_vectorizable());
        assert!(OpClass::Load.is_vectorizable());
        assert!(OpClass::IntAlu.is_vectorizable());
        assert!(OpClass::FpMul.is_vectorizable());
        assert!(OpClass::IntDiv.is_arith() && OpClass::FpAdd.is_arith());
        assert!(!OpClass::Load.is_arith() && !OpClass::Store.is_arith());
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
        assert_eq!(Opcode::Ld.mem_width(), Some(MemWidth::B8));
        assert_eq!(Opcode::Flw.mem_width(), Some(MemWidth::B4));
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }

    #[test]
    fn fp_destination_classification() {
        assert!(Opcode::Fadd.writes_fp());
        assert!(Opcode::Fld.writes_fp());
        assert!(!Opcode::Fcvtfl.writes_fp());
        assert!(!Opcode::Feq.writes_fp());
        assert!(!Opcode::Add.writes_fp());
    }
}
