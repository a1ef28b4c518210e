//! The architectural interpreter.

use crate::memory::SparseMemory;
use crate::trace::{MemAccess, Retired};
use sdv_isa::program::{text_index, STACK_TOP};
use sdv_isa::{ArchReg, Inst, Opcode, Program};
use std::fmt;

/// Errors raised while emulating a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuError {
    /// The program has executed a `halt` instruction; no further steps are possible.
    Halted,
    /// The PC left the text segment (usually a missing `halt` or a bad jump).
    InvalidPc(u64),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Halted => write!(f, "program has halted"),
            EmuError::InvalidPc(pc) => write!(f, "pc {pc:#x} is outside the text segment"),
        }
    }
}

impl std::error::Error for EmuError {}

/// Functional emulator over a [`Program`].
///
/// The emulator owns the architectural state: PC, 32 integer registers,
/// 32 floating-point registers and a sparse memory pre-loaded with the
/// program's data segments.  Of the [`Program`] itself it keeps only a copy
/// of the instructions.  `x0` always reads as zero.  The stack pointer
/// `x29` is initialised to [`STACK_TOP`].
#[derive(Debug, Clone)]
pub struct Emulator {
    insts: Box<[Inst]>,
    pc: u64,
    iregs: [u64; 32],
    fregs: [f64; 32],
    mem: SparseMemory,
    halted: bool,
    retired: u64,
}

impl Emulator {
    /// Creates an emulator positioned at the program entry point, with the
    /// data segments loaded into memory.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut mem = SparseMemory::new();
        for seg in program.data_segments() {
            mem.load_bytes(seg.addr, &seg.bytes);
        }
        let mut iregs = [0u64; 32];
        iregs[ArchReg::SP.flat_index()] = STACK_TOP;
        Emulator {
            insts: program.insts().into(),
            pc: program.entry_pc(),
            iregs,
            fregs: [0.0; 32],
            mem,
            halted: false,
            retired: 0,
        }
    }

    /// Whether the program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The current PC.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Number of instructions retired so far.
    #[must_use]
    pub fn retired_count(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not an integer register.
    #[must_use]
    pub fn int_reg(&self, reg: ArchReg) -> u64 {
        assert!(reg.is_int(), "{reg} is not an integer register");
        if reg.is_zero() {
            0
        } else {
            self.iregs[reg.number() as usize]
        }
    }

    /// Reads a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a floating-point register.
    #[must_use]
    pub fn fp_reg(&self, reg: ArchReg) -> f64 {
        assert!(reg.is_fp(), "{reg} is not a floating-point register");
        self.fregs[reg.number() as usize]
    }

    /// Bit pattern of any register (integer value, or the f64 bits).
    #[must_use]
    pub fn reg_bits(&self, reg: ArchReg) -> u64 {
        if reg.is_int() {
            self.int_reg(reg)
        } else {
            self.fp_reg(reg).to_bits()
        }
    }

    /// The emulated memory.
    #[must_use]
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    fn write_int(&mut self, reg: ArchReg, value: u64) {
        debug_assert!(reg.is_int());
        if !reg.is_zero() {
            self.iregs[reg.number() as usize] = value;
        }
    }

    fn write_fp(&mut self, reg: ArchReg, value: f64) {
        debug_assert!(reg.is_fp());
        self.fregs[reg.number() as usize] = value;
    }

    fn read_src(&self, reg: Option<ArchReg>) -> u64 {
        reg.map_or(0, |r| self.reg_bits(r))
    }

    /// Executes a single instruction.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Halted`] if the program has already halted and
    /// [`EmuError::InvalidPc`] if the PC points outside the text segment.
    pub fn step(&mut self) -> Result<Retired, EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        let pc = self.pc;
        let idx = text_index(pc, self.insts.len()).ok_or(EmuError::InvalidPc(pc))?;
        let inst = self.insts[idx];
        Ok(self.exec(pc, inst))
    }

    /// Retires up to `max_n` instructions in one call, appending the records
    /// to `out` and returning how many were executed.
    ///
    /// This is the batched front-end hand-off: the PC is translated to a text
    /// index **once** for the whole group and sequential flow advances the
    /// index directly, instead of re-deriving it from the PC on every
    /// instruction the way [`Self::step`] does.  The group ends after a taken
    /// control transfer, which aligns group boundaries with a fetch group (at
    /// most one taken branch per group).  It also ends when the program
    /// halts; the `halt` instruction itself is retired as the last record and
    /// [`Self::halted`] turns true.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Halted`] if the program had already halted before
    /// the call, and [`EmuError::InvalidPc`] if the PC is outside the text
    /// segment before any instruction of the group could execute.  A PC that
    /// leaves the text segment *mid*-group ends the group instead; the next
    /// call reports the error.
    pub fn step_group(&mut self, max_n: usize, out: &mut Vec<Retired>) -> Result<usize, EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        if max_n == 0 {
            return Ok(0);
        }
        let mut idx = text_index(self.pc, self.insts.len()).ok_or(EmuError::InvalidPc(self.pc))?;
        let mut n = 0;
        while n < max_n {
            let Some(&inst) = self.insts.get(idx) else {
                break; // ran off the text segment; the next call errors
            };
            let pc = Program::pc_of(idx);
            let r = self.exec(pc, inst);
            out.push(r);
            n += 1;
            if self.halted || r.taken {
                break;
            }
            idx += 1;
        }
        Ok(n)
    }

    /// Executes one already-fetched instruction at `pc` (the interpreter body
    /// shared by [`Self::step`] and [`Self::step_group`]).
    fn exec(&mut self, pc: u64, inst: Inst) -> Retired {
        let src1_value = self.read_src(inst.src1);
        let src2_value = self.read_src(inst.src2);
        let mut next_pc = pc + 4;
        let mut taken = false;
        let mut mem_access = None;
        let mut dst_value = 0u64;

        use Opcode::*;
        match inst.op {
            // ------------------------------------------------ integer ALU
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul | Mulh | Div | Rem => {
                let a = src1_value;
                let b = src2_value;
                let v = int_alu(inst.op, a, b);
                dst_value = v;
                self.write_int(inst.dst.expect("alu dst"), v);
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                let a = src1_value;
                let b = inst.imm as u64;
                let base = match inst.op {
                    Addi => Add,
                    Andi => And,
                    Ori => Or,
                    Xori => Xor,
                    Slli => Sll,
                    Srli => Srl,
                    Srai => Sra,
                    Slti => Slt,
                    _ => unreachable!(),
                };
                let v = int_alu(base, a, b);
                dst_value = v;
                self.write_int(inst.dst.expect("alu dst"), v);
            }
            Li => {
                dst_value = inst.imm as u64;
                self.write_int(inst.dst.expect("li dst"), inst.imm as u64);
            }
            // ------------------------------------------------ floating point
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
                let a = f64::from_bits(src1_value);
                let b = f64::from_bits(src2_value);
                let v = match inst.op {
                    Fadd => a + b,
                    Fsub => a - b,
                    Fmul => a * b,
                    Fdiv => a / b,
                    Fmin => a.min(b),
                    Fmax => a.max(b),
                    _ => unreachable!(),
                };
                dst_value = v.to_bits();
                self.write_fp(inst.dst.expect("fp dst"), v);
            }
            Fsqrt | Fneg | Fabs => {
                let a = f64::from_bits(src1_value);
                let v = match inst.op {
                    Fsqrt => a.sqrt(),
                    Fneg => -a,
                    Fabs => a.abs(),
                    _ => unreachable!(),
                };
                dst_value = v.to_bits();
                self.write_fp(inst.dst.expect("fp dst"), v);
            }
            Fcvtlf => {
                let v = src1_value as i64 as f64;
                dst_value = v.to_bits();
                self.write_fp(inst.dst.expect("fcvt dst"), v);
            }
            Fcvtfl => {
                let v = f64::from_bits(src1_value) as i64 as u64;
                dst_value = v;
                self.write_int(inst.dst.expect("fcvt dst"), v);
            }
            Feq | Flt | Fle => {
                let a = f64::from_bits(src1_value);
                let b = f64::from_bits(src2_value);
                let v = u64::from(match inst.op {
                    Feq => a == b,
                    Flt => a < b,
                    Fle => a <= b,
                    _ => unreachable!(),
                });
                dst_value = v;
                self.write_int(inst.dst.expect("fcmp dst"), v);
            }
            // ------------------------------------------------ memory
            Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Flw | Fld => {
                let addr = src1_value.wrapping_add(inst.imm as u64);
                let width = inst.op.mem_width().expect("load width").bytes();
                let raw = self.mem.read_uint(addr, width);
                let value = match inst.op {
                    Lb => raw as u8 as i8 as i64 as u64,
                    Lh => raw as u16 as i16 as i64 as u64,
                    Lw => raw as u32 as i32 as i64 as u64,
                    Lbu | Lhu | Lwu | Ld => raw,
                    Flw => f64::from(f32::from_bits(raw as u32)).to_bits(),
                    Fld => raw,
                    _ => unreachable!(),
                };
                let dst = inst.dst.expect("load dst");
                if dst.is_fp() {
                    self.write_fp(dst, f64::from_bits(value));
                } else {
                    self.write_int(dst, value);
                }
                dst_value = value;
                mem_access = Some(MemAccess {
                    addr,
                    width,
                    is_store: false,
                    value: raw,
                });
            }
            Sb | Sh | Sw | Sd | Fsw | Fsd => {
                let addr = src1_value.wrapping_add(inst.imm as u64);
                let width = inst.op.mem_width().expect("store width").bytes();
                let stored = if inst.op == Fsw {
                    u64::from((f64::from_bits(src2_value) as f32).to_bits())
                } else {
                    src2_value
                };
                self.mem.write_uint(addr, width, stored);
                mem_access = Some(MemAccess {
                    addr,
                    width,
                    is_store: true,
                    value: stored,
                });
            }
            // ------------------------------------------------ control
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let a = src1_value;
                let b = src2_value;
                taken = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blt => (a as i64) < (b as i64),
                    Bge => (a as i64) >= (b as i64),
                    Bltu => a < b,
                    Bgeu => a >= b,
                    _ => unreachable!(),
                };
                if taken {
                    next_pc = inst.imm as u64;
                }
            }
            J => {
                taken = true;
                next_pc = inst.imm as u64;
            }
            Jal => {
                taken = true;
                let link = pc + 4;
                dst_value = link;
                self.write_int(inst.dst.expect("jal link"), link);
                next_pc = inst.imm as u64;
            }
            Jr => {
                taken = true;
                next_pc = src1_value;
            }
            Jalr => {
                taken = true;
                let link = pc + 4;
                dst_value = link;
                self.write_int(inst.dst.expect("jalr link"), link);
                next_pc = src1_value.wrapping_add(inst.imm as u64);
            }
            Nop => {}
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        self.pc = next_pc;
        let seq = self.retired;
        self.retired += 1;
        Retired {
            seq,
            pc,
            inst,
            next_pc,
            taken,
            mem: mem_access,
            src1_value,
            src2_value,
            dst_value,
        }
    }

    /// Runs until the program halts or `max_insts` instructions have retired,
    /// collecting every retired record.
    ///
    /// # Panics
    ///
    /// Panics if the PC leaves the text segment (programs used with the
    /// simulator must be self-contained and end with `halt`).
    pub fn run(&mut self, max_insts: u64) -> Vec<Retired> {
        let mut out = Vec::new();
        for _ in 0..max_insts {
            match self.step() {
                Ok(r) => out.push(r),
                Err(EmuError::Halted) => break,
                Err(e) => panic!("emulation error: {e}"),
            }
        }
        out
    }

    /// Runs until the program halts or `max_insts` instructions have retired,
    /// invoking `f` for every retired instruction without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the PC leaves the text segment.
    pub fn run_with<F: FnMut(&Retired)>(&mut self, max_insts: u64, mut f: F) -> u64 {
        let mut n = 0;
        while n < max_insts {
            match self.step() {
                Ok(r) => {
                    f(&r);
                    n += 1;
                }
                Err(EmuError::Halted) => break,
                Err(e) => panic!("emulation error: {e}"),
            }
        }
        n
    }
}

fn int_alu(op: Opcode, a: u64, b: u64) -> u64 {
    use Opcode::*;
    match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Sll => a.wrapping_shl((b & 63) as u32),
        Srl => a.wrapping_shr((b & 63) as u32),
        Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        Slt => u64::from((a as i64) < (b as i64)),
        Sltu => u64::from(a < b),
        Mul => a.wrapping_mul(b),
        Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        _ => unreachable!("not an int alu opcode: {op:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_isa::Asm;

    fn x(n: u8) -> ArchReg {
        ArchReg::int(n)
    }
    fn f(n: u8) -> ArchReg {
        ArchReg::fp(n)
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Asm::new();
        a.li(x(1), 21);
        a.add(x(2), x(1), x(1));
        a.mul(x(3), x(2), x(1));
        a.div(x(4), x(3), x(1));
        a.rem(x(5), x(3), x(2));
        a.sub(x(6), x(1), x(2));
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        let retired = emu.run(100);
        assert!(emu.halted());
        assert_eq!(retired.len(), 7);
        assert_eq!(emu.int_reg(x(2)), 42);
        assert_eq!(emu.int_reg(x(3)), 882);
        assert_eq!(emu.int_reg(x(4)), 42);
        assert_eq!(emu.int_reg(x(5)), 0);
        assert_eq!(emu.int_reg(x(6)) as i64, -21);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut a = Asm::new();
        a.li(x(0), 99);
        a.addi(x(1), x(0), 5);
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        emu.run(10);
        assert_eq!(emu.int_reg(ArchReg::ZERO), 0);
        assert_eq!(emu.int_reg(x(1)), 5);
    }

    #[test]
    fn loads_and_stores_all_widths() {
        let mut a = Asm::new();
        let buf = a.alloc(64, 8);
        a.li(x(1), buf as i64);
        a.li(x(2), -2i64); // 0xff..fe
        a.sb(x(2), x(1), 0);
        a.sh(x(2), x(1), 8);
        a.sw(x(2), x(1), 16);
        a.sd(x(2), x(1), 24);
        a.lb(x(3), x(1), 0);
        a.lbu(x(4), x(1), 0);
        a.lh(x(5), x(1), 8);
        a.lhu(x(6), x(1), 8);
        a.lw(x(7), x(1), 16);
        a.lwu(x(8), x(1), 16);
        a.ld(x(9), x(1), 24);
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        emu.run(100);
        assert_eq!(emu.int_reg(x(3)) as i64, -2);
        assert_eq!(emu.int_reg(x(4)), 0xfe);
        assert_eq!(emu.int_reg(x(5)) as i64, -2);
        assert_eq!(emu.int_reg(x(6)), 0xfffe);
        assert_eq!(emu.int_reg(x(7)) as i64, -2);
        assert_eq!(emu.int_reg(x(8)), 0xffff_fffe);
        assert_eq!(emu.int_reg(x(9)) as i64, -2);
    }

    #[test]
    fn fp_arithmetic_and_memory() {
        let mut a = Asm::new();
        let buf = a.data_f64(&[1.5, 2.5]);
        a.li(x(1), buf as i64);
        a.fld(f(1), x(1), 0);
        a.fld(f(2), x(1), 8);
        a.fadd(f(3), f(1), f(2));
        a.fmul(f(4), f(1), f(2));
        a.fdiv(f(5), f(2), f(1));
        a.fsub(f(6), f(1), f(2));
        a.fsqrt(f(7), f(2));
        a.fneg(f(8), f(1));
        a.fabs(f(9), f(8));
        a.fsd(f(3), x(1), 16);
        a.fld(f(10), x(1), 16);
        a.flt(x(2), f(1), f(2));
        a.feq(x(3), f(1), f(1));
        a.fle(x(4), f(2), f(1));
        a.fcvt_to_int(x(5), f(4));
        a.fcvt_from_int(f(11), x(5));
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        emu.run(100);
        assert_eq!(emu.fp_reg(f(3)), 4.0);
        assert_eq!(emu.fp_reg(f(4)), 3.75);
        assert_eq!(emu.fp_reg(f(5)), 2.5 / 1.5);
        assert_eq!(emu.fp_reg(f(6)), -1.0);
        assert_eq!(emu.fp_reg(f(7)), 2.5f64.sqrt());
        assert_eq!(emu.fp_reg(f(8)), -1.5);
        assert_eq!(emu.fp_reg(f(9)), 1.5);
        assert_eq!(emu.fp_reg(f(10)), 4.0);
        assert_eq!(emu.int_reg(x(2)), 1);
        assert_eq!(emu.int_reg(x(3)), 1);
        assert_eq!(emu.int_reg(x(4)), 0);
        assert_eq!(emu.int_reg(x(5)), 3);
        assert_eq!(emu.fp_reg(f(11)), 3.0);
    }

    #[test]
    fn flw_fsw_round_to_f32() {
        let mut a = Asm::new();
        let buf = a.alloc(16, 8);
        a.li(x(1), buf as i64);
        a.li(x(2), 0);
        a.fcvt_from_int(f(1), x(2));
        a.fld(f(2), x(1), 8); // zero

        // store 1.1 (f64) as f32 then reload
        let c = a.data_f64(&[1.1]);
        a.li(x(3), c as i64);
        a.fld(f(3), x(3), 0);
        a.fsw(f(3), x(1), 0);
        a.flw(f(4), x(1), 0);
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        emu.run(100);
        assert_eq!(emu.fp_reg(f(4)), f64::from(1.1f32));
    }

    #[test]
    fn branches_and_jumps() {
        let mut a = Asm::new();
        a.li(x(1), 0);
        a.li(x(2), 5);
        a.label("loop");
        a.addi(x(1), x(1), 1);
        a.bne(x(1), x(2), "loop");
        a.jal(ArchReg::RA, "sub");
        a.j("end");
        a.label("sub");
        a.addi(x(3), x(0), 77);
        a.jr(ArchReg::RA);
        a.label("end");
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        emu.run(1000);
        assert!(emu.halted());
        assert_eq!(emu.int_reg(x(1)), 5);
        assert_eq!(emu.int_reg(x(3)), 77);
    }

    #[test]
    fn retired_records_contain_memory_and_branch_info() {
        let mut a = Asm::new();
        let buf = a.data_u64(&[7]);
        a.li(x(1), buf as i64);
        a.ld(x(2), x(1), 0);
        a.beq(x(2), x(0), "skip");
        a.addi(x(3), x(0), 1);
        a.label("skip");
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        let rs = emu.run(100);
        let ld = &rs[1];
        assert!(ld.inst.is_load());
        let mem = ld.mem.expect("load access");
        assert_eq!(mem.addr, buf);
        assert_eq!(mem.width, 8);
        assert_eq!(mem.value, 7);
        let br = &rs[2];
        assert!(!br.taken);
        assert_eq!(br.next_pc, br.pc + 4);
    }

    #[test]
    fn step_after_halt_errors() {
        let mut a = Asm::new();
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        assert!(emu.step().is_ok());
        assert_eq!(emu.step(), Err(EmuError::Halted));
    }

    #[test]
    fn invalid_pc_is_reported() {
        let mut a = Asm::new();
        a.nop(); // falls off the end of the text segment
        let mut emu = Emulator::new(&a.finish());
        assert!(emu.step().is_ok());
        assert_eq!(emu.step(), Err(EmuError::InvalidPc(0x1004)));
    }

    #[test]
    fn run_with_counts_without_allocating() {
        let mut a = Asm::new();
        a.li(x(1), 3);
        a.label("l");
        a.addi(x(1), x(1), -1);
        a.bne(x(1), x(0), "l");
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        let mut loads = 0u64;
        let n = emu.run_with(1_000, |r| {
            if r.inst.is_load() {
                loads += 1;
            }
        });
        assert_eq!(n, 8);
        assert_eq!(loads, 0);
        assert_eq!(emu.retired_count(), 8);
    }

    #[test]
    fn step_group_matches_per_instruction_stepping() {
        let build = || {
            let mut a = Asm::new();
            let buf = a.data_u64(&[5, 6, 7, 8]);
            a.li(x(1), buf as i64);
            a.li(x(2), 0);
            a.li(x(3), 4);
            a.label("loop");
            a.ld(x(4), x(1), 0);
            a.add(x(2), x(2), x(4));
            a.addi(x(1), x(1), 8);
            a.addi(x(3), x(3), -1);
            a.bne(x(3), x(0), "loop");
            a.halt();
            a.finish()
        };
        let program = build();
        let mut reference = Emulator::new(&program);
        let expected = reference.run(1_000);

        for group in [1usize, 3, 4, 8] {
            let mut emu = Emulator::new(&program);
            let mut got = Vec::new();
            loop {
                match emu.step_group(group, &mut got) {
                    Ok(_) => {}
                    Err(EmuError::Halted) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
                if emu.halted() {
                    break;
                }
            }
            assert_eq!(got, expected, "group={group}");
            assert_eq!(emu.int_reg(x(2)), reference.int_reg(x(2)));
        }
    }

    #[test]
    fn step_group_stops_on_taken_transfers_when_asked() {
        let mut a = Asm::new();
        a.li(x(1), 2);
        a.label("loop");
        a.addi(x(1), x(1), -1);
        a.bne(x(1), x(0), "loop");
        a.halt();
        let program = a.finish();
        let mut emu = Emulator::new(&program);
        let mut out = Vec::new();
        // First group: li, addi, bne (taken) — stops at the redirect.
        let n = emu.step_group(16, &mut out).unwrap();
        assert_eq!(n, 3);
        assert!(out[2].taken);
        // Second group runs to the halt and retires it.
        let n = emu.step_group(16, &mut out).unwrap();
        assert_eq!(n, 3, "addi, bne (not taken), halt");
        assert!(emu.halted());
        assert_eq!(emu.step_group(16, &mut out), Err(EmuError::Halted));
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn step_group_zero_budget_is_a_no_op() {
        let mut a = Asm::new();
        a.halt();
        let mut emu = Emulator::new(&a.finish());
        let mut out = Vec::new();
        assert_eq!(emu.step_group(0, &mut out), Ok(0));
        assert!(out.is_empty());
        assert!(!emu.halted());
    }

    #[test]
    fn stack_pointer_initialised() {
        let mut a = Asm::new();
        a.halt();
        let emu = Emulator::new(&a.finish());
        assert_eq!(emu.int_reg(ArchReg::SP), STACK_TOP);
    }
}
