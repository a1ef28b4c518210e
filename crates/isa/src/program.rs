//! Program container: an instruction image plus initial data segments.

use crate::inst::Inst;
use std::collections::HashMap;
use std::fmt;

/// Base address of the text (instruction) segment.
pub const TEXT_BASE: u64 = 0x0000_1000;

/// Size of one instruction slot in bytes.
pub const INST_BYTES: u64 = 4;

/// Default base address for data allocated by the assembler.
pub const DATA_BASE: u64 = 0x0010_0000;

/// Default address of the top of the downward-growing stack.
pub const STACK_TOP: u64 = 0x7fff_0000;

/// The index of the instruction at `pc` in a text segment of `len`
/// instructions, if `pc` falls inside it.
#[must_use]
pub fn text_index(pc: u64, len: usize) -> Option<usize> {
    if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(INST_BYTES) {
        return None;
    }
    let idx = ((pc - TEXT_BASE) / INST_BYTES) as usize;
    (idx < len).then_some(idx)
}

/// A contiguous chunk of initialised memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// First byte address of the segment.
    pub addr: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

impl DataSegment {
    /// The exclusive end address of the segment.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.addr + self.bytes.len() as u64
    }
}

/// A complete program: instructions, label map and initial data image.
///
/// Instructions occupy consecutive 4-byte slots starting at [`TEXT_BASE`];
/// the PC of instruction `i` is `TEXT_BASE + 4 * i`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    data: Vec<DataSegment>,
}

impl Program {
    /// Creates a program from raw parts.  Normally produced by [`crate::Asm::finish`].
    #[must_use]
    pub fn new(insts: Vec<Inst>, labels: HashMap<String, usize>, data: Vec<DataSegment>) -> Self {
        Program {
            insts,
            labels,
            data,
        }
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The entry PC (the address of the first instruction).
    #[must_use]
    pub fn entry_pc(&self) -> u64 {
        TEXT_BASE
    }

    /// The PC of the instruction at index `idx`.
    #[must_use]
    pub fn pc_of(idx: usize) -> u64 {
        TEXT_BASE + idx as u64 * INST_BYTES
    }

    /// The instruction index corresponding to `pc`, if `pc` falls inside the
    /// text segment.
    #[must_use]
    pub fn index_of_pc(&self, pc: u64) -> Option<usize> {
        text_index(pc, self.insts.len())
    }

    /// The instruction stored at `pc`, if any.
    #[must_use]
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        self.index_of_pc(pc).map(|i| &self.insts[i])
    }

    /// All instructions in text order.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The PC a label resolves to, if the label exists.
    #[must_use]
    pub fn label_pc(&self, name: &str) -> Option<u64> {
        self.labels.get(name).map(|&i| Self::pc_of(i))
    }

    /// Initial data segments.
    #[must_use]
    pub fn data_segments(&self) -> &[DataSegment] {
        &self.data
    }

    /// Iterates over `(pc, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (Self::pc_of(i), inst))
    }

    /// Total number of initialised data bytes.
    #[must_use]
    pub fn data_bytes(&self) -> usize {
        self.data.iter().map(|d| d.bytes.len()).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pc_labels: HashMap<usize, Vec<&str>> = HashMap::new();
        for (name, &idx) in &self.labels {
            pc_labels.entry(idx).or_default().push(name);
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(names) = pc_labels.get(&i) {
                for name in names {
                    writeln!(f, "{name}:")?;
                }
            }
            writeln!(f, "  {:#06x}:  {inst}", Self::pc_of(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use crate::reg::ArchReg;

    fn tiny() -> Program {
        let insts = vec![
            Inst::ri(Opcode::Li, ArchReg::int(1), 7),
            Inst::rrr(
                Opcode::Add,
                ArchReg::int(2),
                ArchReg::int(1),
                ArchReg::int(1),
            ),
            Inst::halt(),
        ];
        let mut labels = HashMap::new();
        labels.insert("start".to_string(), 0);
        labels.insert("end".to_string(), 2);
        Program::new(
            insts,
            labels,
            vec![DataSegment {
                addr: 0x0001_0000,
                bytes: vec![1, 2, 3],
            }],
        )
    }

    #[test]
    fn pc_index_round_trip() {
        let p = tiny();
        for i in 0..p.len() {
            let pc = Program::pc_of(i);
            assert_eq!(p.index_of_pc(pc), Some(i));
            assert_eq!(p.inst_at(pc), Some(&p.insts()[i]));
        }
        assert_eq!(p.index_of_pc(TEXT_BASE + 2), None, "misaligned pc");
        assert_eq!(p.index_of_pc(TEXT_BASE - 4), None, "pc below text");
        assert_eq!(p.index_of_pc(Program::pc_of(p.len())), None, "pc past end");
    }

    #[test]
    fn labels_resolve_to_pcs() {
        let p = tiny();
        assert_eq!(p.label_pc("start"), Some(TEXT_BASE));
        assert_eq!(p.label_pc("end"), Some(TEXT_BASE + 8));
        assert_eq!(p.label_pc("missing"), None);
    }

    #[test]
    fn iteration_and_sizes() {
        let p = tiny();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 3);
        assert_eq!(p.entry_pc(), TEXT_BASE);
        assert_eq!(p.data_bytes(), 3);
        assert_eq!(p.data_segments()[0].end(), 0x0001_0000 + 3);
    }

    #[test]
    fn display_contains_labels_and_mnemonics() {
        let text = tiny().to_string();
        assert!(text.contains("start:"));
        assert!(text.contains("end:"));
        assert!(text.contains("add x2, x1, x1"));
        assert!(text.contains("halt"));
    }
}
