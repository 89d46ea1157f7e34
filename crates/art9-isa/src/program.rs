//! Assembled ART-9 programs: instruction/data images plus symbols.

use std::collections::BTreeMap;
use std::fmt;

use ternary::Word9;

use crate::encode::encode;
use crate::instr::Instruction;

/// Which memory a symbol or item lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Ternary instruction memory (TIM).
    Text,
    /// Ternary data memory (TDM).
    Data,
}

/// A named address produced by the assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbol {
    /// The section the symbol points into.
    pub section: Section,
    /// Word address within that section.
    pub address: usize,
}

/// An assembled ART-9 program: the TIM instruction list, the initial TDM
/// image, and the symbol table.
///
/// Memory-cell accounting (the unit of the paper's Fig. 5) counts *trits*:
/// each instruction is 9 trits of TIM, each data word 9 trits of TDM.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
///
/// let p = assemble("LI t3, 42\nADDI t3, 1\n")?;
/// assert_eq!(p.instruction_cells(), 18); // 2 instructions x 9 trits
/// assert_eq!(p.tim_image().len(), 2);
/// # Ok::<(), art9_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text: Vec<Instruction>,
    data: Vec<Word9>,
    symbols: BTreeMap<String, Symbol>,
}

impl Program {
    /// Builds a program from its parts (used by the assembler and by the
    /// compiling framework).
    pub fn new(
        text: Vec<Instruction>,
        data: Vec<Word9>,
        symbols: BTreeMap<String, Symbol>,
    ) -> Self {
        Self {
            text,
            data,
            symbols,
        }
    }

    /// Builds a program from a bare instruction list with no data or
    /// symbols.
    pub fn from_instructions(text: Vec<Instruction>) -> Self {
        Self {
            text,
            data: Vec::new(),
            symbols: BTreeMap::new(),
        }
    }

    /// The instruction sequence (TIM contents, in order).
    pub fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// The initial data image (TDM contents, in order).
    pub fn data(&self) -> &[Word9] {
        &self.data
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name).copied()
    }

    /// The full symbol table.
    pub fn symbols(&self) -> &BTreeMap<String, Symbol> {
        &self.symbols
    }

    /// Encodes the text section into 9-trit TIM words.
    pub fn tim_image(&self) -> Vec<Word9> {
        self.text.iter().map(encode).collect()
    }

    /// TIM storage in ternary memory cells (trits): 9 per instruction.
    pub fn instruction_cells(&self) -> usize {
        self.text.len() * 9
    }
}

impl fmt::Display for Program {
    /// Renders the program as assembly text (labels are re-attached at
    /// their addresses).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text_labels: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        let mut data_labels: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, sym) in &self.symbols {
            match sym.section {
                Section::Text => text_labels.entry(sym.address).or_default().push(name),
                Section::Data => data_labels.entry(sym.address).or_default().push(name),
            }
        }
        for (pc, instr) in self.text.iter().enumerate() {
            if let Some(names) = text_labels.get(&pc) {
                for n in names {
                    writeln!(f, "{n}:")?;
                }
            }
            writeln!(f, "    {instr}")?;
        }
        if !self.data.is_empty() {
            writeln!(f, "    .data")?;
            for (addr, w) in self.data.iter().enumerate() {
                if let Some(names) = data_labels.get(&addr) {
                    for n in names {
                        writeln!(f, "{n}:")?;
                    }
                }
                writeln!(f, "    .word {}", w.to_i64())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::reg::TReg;

    #[test]
    fn cell_accounting() {
        let p = assemble(".data\n.word 1, 2, 3\n.text\nNOP\nNOP\n").unwrap();
        assert_eq!(p.instruction_cells(), 18);
        assert_eq!(p.data().len(), 3);
    }

    #[test]
    fn tim_image_round_trips_through_decode() {
        let p = assemble("LI t3, 7\nADD t3, t4\nSTORE t3, t2, 1\n").unwrap();
        let img = p.tim_image();
        assert_eq!(img.len(), 3);
        for (w, i) in img.iter().zip(p.text()) {
            assert_eq!(crate::decode::decode(*w).unwrap(), *i);
        }
    }

    #[test]
    fn display_reassembles() {
        let src = "
        start:
            LI t3, 5
        loop:
            ADDI t3, -1
            BNE t3, 0, loop
            .data
        v:  .word 9, -9
        ";
        let p = assemble(src).unwrap();
        let rendered = p.to_string();
        let p2 = assemble(&rendered).unwrap();
        assert_eq!(p.text(), p2.text());
        assert_eq!(p.data(), p2.data());
    }

    #[test]
    fn from_instructions_is_bare() {
        let p = Program::from_instructions(vec![Instruction::Mv {
            a: TReg::T3,
            b: TReg::T4,
        }]);
        assert_eq!(p.text().len(), 1);
        assert!(p.data().is_empty());
        assert_eq!(p.instruction_cells(), 9);
    }
}
