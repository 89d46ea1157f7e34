//! RV32 assembler: the subset of GNU-as syntax the workloads use, plus
//! the standard pseudo-instructions a C compiler's output leans on.
//!
//! Supported:
//!
//! * labels, `.text` / `.data`, `.word v, …`, `.zero n`
//! * all RV32I/RV32IM instructions with `off(base)` memory syntax
//! * pseudo-instructions: `nop`, `li`, `la`, `mv`, `not`, `neg`, `seqz`,
//!   `snez`, `sltz`, `sgtz`, `beqz`, `bnez`, `blez`, `bgez`, `bltz`,
//!   `bgtz`, `bgt`, `ble`, `bgtu`, `bleu`, `j`, `jr`, `call`, `ret`
//!
//! The memory map is fixed (DESIGN.md §3.3): text at byte 0, data at
//! [`DATA_BASE`]; `la` materializes absolute data addresses.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::error::Rv32Error;
use crate::instr::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};
use crate::reg::Reg;

/// Byte address where the data section starts.
pub const DATA_BASE: u32 = 0x2000;

/// An assembled RV32 program: text, initial data words and symbols.
///
/// # Examples
///
/// ```
/// use rv32::parse_program;
///
/// let p = parse_program("
///     li   a0, 10
///     li   a1, 0
/// loop:
///     add  a1, a1, a0
///     addi a0, a0, -1
///     bnez a0, loop
///     ebreak
/// ")?;
/// assert!(p.text().len() >= 6);
/// # Ok::<(), rv32::Rv32Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rv32Program {
    text: Vec<Instr>,
    data: Vec<u32>,
    symbols: BTreeMap<String, u32>,
}

impl Rv32Program {
    /// The instruction sequence.
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// Initial data words (placed from [`DATA_BASE`]).
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Symbol table: text symbols are byte addresses of instructions,
    /// data symbols are absolute byte addresses (≥ [`DATA_BASE`]).
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Text storage in bits (32 per instruction) — Fig. 5's unit for
    /// binary ISAs.
    pub fn instruction_bits(&self) -> usize {
        self.text.len() * 32
    }

    /// Data storage in bits (32 per word).
    fn data_bits(&self) -> usize {
        self.data.len() * 32
    }

    /// Total memory bits (Fig. 5's metric for the RV-32I column).
    pub fn memory_bits(&self) -> usize {
        self.instruction_bits() + self.data_bits()
    }
}

struct Line<'a> {
    number: usize,
    /// Lowercased; borrowed from the source unless it had uppercase.
    mnemonic: Cow<'a, str>,
    /// The operand list as written, split when the line is lowered.
    operands: &'a str,
    addr: u32,
}

enum Item<'a> {
    Text(Line<'a>),
    /// A symbolic `.word` value: (line, index into the data words,
    /// symbol name), resolved once every label is known.
    DataSymbol(usize, usize, &'a str),
}

/// The most operands any mnemonic takes.
const MAX_OPERANDS: usize = 3;

/// Splits a comma-separated operand list: the first [`MAX_OPERANDS`]
/// operands (trimmed) and the total count.
fn split_operands(ops: &str) -> ([&str; MAX_OPERANDS], usize) {
    let mut out = [""; MAX_OPERANDS];
    if ops.is_empty() {
        return (out, 0);
    }
    let mut n = 0;
    for op in ops.split(',') {
        if let Some(slot) = out.get_mut(n) {
            *slot = trim(op);
        }
        n += 1;
    }
    (out, n)
}

fn err(line: usize, message: impl Into<String>) -> Rv32Error {
    Rv32Error::Assembly {
        line,
        message: message.into(),
    }
}

/// `str::trim` with a fast path: ASCII whitespace goes byte by byte,
/// and only an end that is not plainly ASCII (a vertical tab or a
/// multi-byte character, which may be Unicode whitespace) takes the
/// general path.
fn trim(s: &str) -> &str {
    let t = s.trim_ascii();
    let plain = |b: Option<&u8>| b.is_none_or(|&b| b.is_ascii() && b != 0x0b);
    if plain(t.as_bytes().first()) && plain(t.as_bytes().last()) {
        t
    } else {
        t.trim()
    }
}

/// `s.find(char::is_whitespace)`, scanning bytes until a possible
/// multi-byte character.
fn find_whitespace(s: &str) -> Option<usize> {
    let i = s
        .bytes()
        .position(|b| b.is_ascii_whitespace() || b == 0x0b || !b.is_ascii())?;
    if s.as_bytes()[i].is_ascii() {
        Some(i)
    } else {
        s[i..].find(char::is_whitespace).map(|j| i + j)
    }
}

/// The line up to its first comment marker (`#`, `;` or `//`), and
/// whether that part has a `:` (so may start with labels).
fn strip_comment(line: &str) -> (&str, bool) {
    let bytes = line.as_bytes();
    let mut colon = false;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' || b == b';' || (b == b'/' && bytes.get(i + 1) == Some(&b'/')) {
            return (&line[..i], colon);
        }
        colon |= b == b':';
    }
    (line, colon)
}

/// How many instructions a (possibly pseudo) mnemonic expands to.
///
/// `li` is 1 when the constant fits 12 bits signed, otherwise 2
/// (`lui`+`addi`); `la` is always 2; `call` is 1 (`jal ra`).
fn expansion_len(mnemonic: &str, operands: &str) -> usize {
    match mnemonic {
        "li" => {
            let v = operands
                .split(',')
                .nth(1)
                .and_then(parse_int)
                .unwrap_or(i64::MAX);
            if (-2048..=2047).contains(&v) {
                1
            } else {
                2
            }
        }
        "la" => 2,
        _ => 1,
    }
}

fn parse_int(s: &str) -> Option<i64> {
    let s = trim(s);
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16).ok();
    }
    if let Some(hex) = s.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| -v);
    }
    s.parse::<i64>().ok()
}

/// Assembles RV32 source text.
///
/// # Errors
///
/// Returns [`Rv32Error::Assembly`] with a line number for any syntax,
/// label or range problem.
pub fn parse_program(source: &str) -> Result<Rv32Program, Rv32Error> {
    // Pass 1: collect items, assign addresses, build symbol table.
    let mut symbols = BTreeMap::new();
    // Capacity hints: at most one text item per line, and no more data
    // words than values in `.word` lists, unless `.zero` adds some.
    let (mut lines, mut commas) = (1, 0);
    for b in source.bytes() {
        lines += usize::from(b == b'\n');
        commas += usize::from(b == b',');
    }
    let mut items: Vec<Item<'_>> = Vec::with_capacity(lines);
    let mut data: Vec<u32> = Vec::with_capacity(lines + commas);
    let mut in_data = false;
    let mut text_addr = 0u32;

    for (lineno, raw) in source.lines().enumerate() {
        let number = lineno + 1;
        let (code, has_colon) = strip_comment(raw);
        let mut rest = trim(code);

        while let Some(colon) = has_colon.then(|| rest.find(':')).flatten() {
            let (head, tail) = rest.split_at(colon);
            let label = trim(head);
            if label.is_empty()
                || !label
                    .bytes()
                    .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
            {
                break;
            }
            let value = if in_data {
                DATA_BASE + 4 * data.len() as u32
            } else {
                text_addr
            };
            if symbols.insert(label.to_string(), value).is_some() {
                return Err(err(number, format!("label {label:?} defined twice")));
            }
            rest = trim(&tail[1..]);
        }
        if rest.is_empty() {
            continue;
        }

        if let Some(directive) = rest.strip_prefix('.') {
            let (name, args) = match find_whitespace(directive) {
                Some(p) => (&directive[..p], trim(&directive[p..])),
                None => (directive, ""),
            };
            match name {
                "text" => in_data = false,
                "data" => in_data = true,
                "word" => {
                    for v in args.split(',').map(trim) {
                        if v.is_empty() {
                            return Err(err(number, "malformed .word"));
                        }
                        // Numbers land now, symbols once every label is
                        // known.
                        let value = parse_int(v).unwrap_or_else(|| {
                            items.push(Item::DataSymbol(number, data.len(), v));
                            0
                        });
                        data.push(value as u32);
                    }
                }
                "zero" | "space" => {
                    let n: u32 = args.parse().map_err(|_| err(number, "malformed .zero"))?;
                    // .zero counts bytes in GNU as; round up to words.
                    data.resize(data.len() + n.div_ceil(4) as usize, 0);
                }
                other => return Err(err(number, format!("unsupported directive .{other}"))),
            }
            continue;
        }

        let (mnemonic, operands) = match find_whitespace(rest) {
            Some(p) => (&rest[..p], trim(&rest[p..])),
            None => (rest, ""),
        };
        let mnemonic = if mnemonic.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(mnemonic.to_ascii_lowercase())
        } else {
            Cow::Borrowed(mnemonic)
        };
        let len = expansion_len(&mnemonic, operands) as u32;
        items.push(Item::Text(Line {
            number,
            mnemonic,
            operands,
            addr: text_addr,
        }));
        text_addr += 4 * len;
    }

    // Pass 2: lower.
    let mut text = Vec::with_capacity(text_addr as usize / 4);
    for item in items {
        match item {
            Item::DataSymbol(line, index, name) => {
                let value = symbols
                    .get(name)
                    .ok_or_else(|| err(line, format!("bad data value {name:?}")))?;
                data[index] = *value;
            }
            Item::Text(l) => lower(&l, &symbols, &mut text)?,
        }
    }

    Ok(Rv32Program {
        text,
        data,
        symbols,
    })
}

struct Ctx<'a> {
    line: usize,
    symbols: &'a BTreeMap<String, u32>,
    addr: u32,
}

impl Ctx<'_> {
    fn reg(&self, s: &str) -> Result<Reg, Rv32Error> {
        s.parse::<Reg>()
            .map_err(|_| err(self.line, format!("unknown register {s:?}")))
    }

    fn value(&self, s: &str) -> Result<i64, Rv32Error> {
        if let Some(inner) = s.strip_prefix("%hi(").and_then(|r| r.strip_suffix(')')) {
            let v = self.value(inner)?;
            return Ok(((v + 0x800) >> 12) & 0xfffff);
        }
        if let Some(inner) = s.strip_prefix("%lo(").and_then(|r| r.strip_suffix(')')) {
            let v = self.value(inner)?;
            return Ok(((v & 0xfff) ^ 0x800) - 0x800); // sign-extended low 12
        }
        parse_int(s)
            .or_else(|| self.symbols.get(s).map(|a| *a as i64))
            .ok_or_else(|| err(self.line, format!("bad operand {s:?}")))
    }

    /// Branch/jump target: label or absolute byte address → relative offset.
    fn target(&self, s: &str) -> Result<i32, Rv32Error> {
        let abs = self.value(s)?;
        Ok((abs - self.addr as i64) as i32)
    }

    /// Parses `offset(base)` memory operands.
    fn mem_operand(&self, s: &str) -> Result<(i32, Reg), Rv32Error> {
        let open = s
            .find('(')
            .ok_or_else(|| err(self.line, format!("expected off(base), got {s:?}")))?;
        let close = s
            .rfind(')')
            .ok_or_else(|| err(self.line, format!("expected off(base), got {s:?}")))?;
        let off_str = trim(&s[..open]);
        let off = if off_str.is_empty() {
            0
        } else {
            self.value(off_str)? as i32
        };
        let base = self.reg(trim(&s[open + 1..close]))?;
        Ok((off, base))
    }
}

fn lower(
    l: &Line<'_>,
    symbols: &BTreeMap<String, u32>,
    out: &mut Vec<Instr>,
) -> Result<(), Rv32Error> {
    use Instr::*;
    let ctx = Ctx {
        line: l.number,
        symbols,
        addr: l.addr,
    };
    let (ops, n) = split_operands(l.operands);
    let need = |k: usize| -> Result<(), Rv32Error> {
        if n != k {
            return Err(err(
                l.number,
                format!("{} expects {k} operand(s), found {n}", l.mnemonic),
            ));
        }
        Ok(())
    };

    let alu3 = |op: AluOp| -> Result<Instr, Rv32Error> {
        need(3)?;
        Ok(Alu {
            op,
            rd: ctx.reg(ops[0])?,
            rs1: ctx.reg(ops[1])?,
            rs2: ctx.reg(ops[2])?,
        })
    };
    let alui = |op: AluOp| -> Result<Instr, Rv32Error> {
        need(3)?;
        Ok(AluImm {
            op,
            rd: ctx.reg(ops[0])?,
            rs1: ctx.reg(ops[1])?,
            imm: ctx.value(ops[2])? as i32,
        })
    };
    let muldiv = |op: MulOp| -> Result<Instr, Rv32Error> {
        need(3)?;
        Ok(MulDiv {
            op,
            rd: ctx.reg(ops[0])?,
            rs1: ctx.reg(ops[1])?,
            rs2: ctx.reg(ops[2])?,
        })
    };
    let branch = |op: BranchOp, swap: bool| -> Result<Instr, Rv32Error> {
        need(3)?;
        let (i, j) = if swap { (1, 0) } else { (0, 1) };
        Ok(Branch {
            op,
            rs1: ctx.reg(ops[i])?,
            rs2: ctx.reg(ops[j])?,
            offset: ctx.target(ops[2])?,
        })
    };
    let branch_zero = |op: BranchOp, swap: bool| -> Result<Instr, Rv32Error> {
        need(2)?;
        let r = ctx.reg(ops[0])?;
        let (rs1, rs2) = if swap { (Reg::ZERO, r) } else { (r, Reg::ZERO) };
        Ok(Branch {
            op,
            rs1,
            rs2,
            offset: ctx.target(ops[1])?,
        })
    };
    let load = |op: LoadOp| -> Result<Instr, Rv32Error> {
        need(2)?;
        let (offset, rs1) = ctx.mem_operand(ops[1])?;
        Ok(Load {
            op,
            rd: ctx.reg(ops[0])?,
            rs1,
            offset,
        })
    };
    let store = |op: StoreOp| -> Result<Instr, Rv32Error> {
        need(2)?;
        let (offset, rs1) = ctx.mem_operand(ops[1])?;
        Ok(Store {
            op,
            rs2: ctx.reg(ops[0])?,
            rs1,
            offset,
        })
    };

    let instr = match &*l.mnemonic {
        // --- real instructions ---------------------------------------
        "lui" => {
            need(2)?;
            Lui {
                rd: ctx.reg(ops[0])?,
                imm20: ctx.value(ops[1])? as i32,
            }
        }
        "auipc" => {
            need(2)?;
            Auipc {
                rd: ctx.reg(ops[0])?,
                imm20: ctx.value(ops[1])? as i32,
            }
        }
        "jal" => match n {
            1 => Jal {
                rd: Reg::RA,
                offset: ctx.target(ops[0])?,
            },
            2 => Jal {
                rd: ctx.reg(ops[0])?,
                offset: ctx.target(ops[1])?,
            },
            _ => return Err(err(l.number, "jal expects 1 or 2 operands")),
        },
        "jalr" => match n {
            1 => Jalr {
                rd: Reg::RA,
                rs1: ctx.reg(ops[0])?,
                offset: 0,
            },
            3 => Jalr {
                rd: ctx.reg(ops[0])?,
                rs1: ctx.reg(ops[1])?,
                offset: ctx.value(ops[2])? as i32,
            },
            2 => {
                let (offset, rs1) = ctx.mem_operand(ops[1])?;
                Jalr {
                    rd: ctx.reg(ops[0])?,
                    rs1,
                    offset,
                }
            }
            _ => return Err(err(l.number, "jalr operand count")),
        },
        "beq" => branch(BranchOp::Eq, false)?,
        "bne" => branch(BranchOp::Ne, false)?,
        "blt" => branch(BranchOp::Lt, false)?,
        "bge" => branch(BranchOp::Ge, false)?,
        "bltu" => branch(BranchOp::Ltu, false)?,
        "bgeu" => branch(BranchOp::Geu, false)?,
        "bgt" => branch(BranchOp::Lt, true)?,
        "ble" => branch(BranchOp::Ge, true)?,
        "bgtu" => branch(BranchOp::Ltu, true)?,
        "bleu" => branch(BranchOp::Geu, true)?,
        "lb" => load(LoadOp::Lb)?,
        "lh" => load(LoadOp::Lh)?,
        "lw" => load(LoadOp::Lw)?,
        "lbu" => load(LoadOp::Lbu)?,
        "lhu" => load(LoadOp::Lhu)?,
        "sb" => store(StoreOp::Sb)?,
        "sh" => store(StoreOp::Sh)?,
        "sw" => store(StoreOp::Sw)?,
        "addi" => alui(AluOp::Add)?,
        "slti" => alui(AluOp::Slt)?,
        "sltiu" => alui(AluOp::Sltu)?,
        "xori" => alui(AluOp::Xor)?,
        "ori" => alui(AluOp::Or)?,
        "andi" => alui(AluOp::And)?,
        "slli" => alui(AluOp::Sll)?,
        "srli" => alui(AluOp::Srl)?,
        "srai" => alui(AluOp::Sra)?,
        "add" => alu3(AluOp::Add)?,
        "sub" => alu3(AluOp::Sub)?,
        "sll" => alu3(AluOp::Sll)?,
        "slt" => alu3(AluOp::Slt)?,
        "sltu" => alu3(AluOp::Sltu)?,
        "xor" => alu3(AluOp::Xor)?,
        "srl" => alu3(AluOp::Srl)?,
        "sra" => alu3(AluOp::Sra)?,
        "or" => alu3(AluOp::Or)?,
        "and" => alu3(AluOp::And)?,
        "mul" => muldiv(MulOp::Mul)?,
        "mulh" => muldiv(MulOp::Mulh)?,
        "mulhsu" => muldiv(MulOp::Mulhsu)?,
        "mulhu" => muldiv(MulOp::Mulhu)?,
        "div" => muldiv(MulOp::Div)?,
        "divu" => muldiv(MulOp::Divu)?,
        "rem" => muldiv(MulOp::Rem)?,
        "remu" => muldiv(MulOp::Remu)?,
        "fence" => Fence,
        "ecall" => Ecall,
        "ebreak" => Ebreak,

        // --- pseudo-instructions --------------------------------------
        "nop" => {
            need(0)?;
            AluImm {
                op: AluOp::Add,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                imm: 0,
            }
        }
        "li" => {
            need(2)?;
            let rd = ctx.reg(ops[0])?;
            let v = ctx.value(ops[1])?;
            if (-2048..=2047).contains(&v) {
                AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: Reg::ZERO,
                    imm: v as i32,
                }
            } else {
                let v32 = v as i32;
                let lo = ((v32 & 0xfff) ^ 0x800) - 0x800;
                let hi = (v32.wrapping_sub(lo)) >> 12;
                out.push(Lui { rd, imm20: hi });
                AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                }
            }
        }
        "la" => {
            need(2)?;
            let rd = ctx.reg(ops[0])?;
            let v = ctx.value(ops[1])? as i32;
            let lo = ((v & 0xfff) ^ 0x800) - 0x800;
            let hi = (v.wrapping_sub(lo)) >> 12;
            out.push(Lui { rd, imm20: hi });
            AluImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm: lo,
            }
        }
        "mv" => {
            need(2)?;
            AluImm {
                op: AluOp::Add,
                rd: ctx.reg(ops[0])?,
                rs1: ctx.reg(ops[1])?,
                imm: 0,
            }
        }
        "not" => {
            need(2)?;
            AluImm {
                op: AluOp::Xor,
                rd: ctx.reg(ops[0])?,
                rs1: ctx.reg(ops[1])?,
                imm: -1,
            }
        }
        "neg" => {
            need(2)?;
            Alu {
                op: AluOp::Sub,
                rd: ctx.reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(ops[1])?,
            }
        }
        "seqz" => {
            need(2)?;
            AluImm {
                op: AluOp::Sltu,
                rd: ctx.reg(ops[0])?,
                rs1: ctx.reg(ops[1])?,
                imm: 1,
            }
        }
        "snez" => {
            need(2)?;
            Alu {
                op: AluOp::Sltu,
                rd: ctx.reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(ops[1])?,
            }
        }
        "sltz" => {
            need(2)?;
            Alu {
                op: AluOp::Slt,
                rd: ctx.reg(ops[0])?,
                rs1: ctx.reg(ops[1])?,
                rs2: Reg::ZERO,
            }
        }
        "sgtz" => {
            need(2)?;
            Alu {
                op: AluOp::Slt,
                rd: ctx.reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: ctx.reg(ops[1])?,
            }
        }
        "beqz" => branch_zero(BranchOp::Eq, false)?,
        "bnez" => branch_zero(BranchOp::Ne, false)?,
        "bltz" => branch_zero(BranchOp::Lt, false)?,
        "bgez" => branch_zero(BranchOp::Ge, false)?,
        "bgtz" => branch_zero(BranchOp::Lt, true)?,
        "blez" => branch_zero(BranchOp::Ge, true)?,
        "j" => {
            need(1)?;
            Jal {
                rd: Reg::ZERO,
                offset: ctx.target(ops[0])?,
            }
        }
        "jr" => {
            need(1)?;
            Jalr {
                rd: Reg::ZERO,
                rs1: ctx.reg(ops[0])?,
                offset: 0,
            }
        }
        "call" => {
            need(1)?;
            Jal {
                rd: Reg::RA,
                offset: ctx.target(ops[0])?,
            }
        }
        "ret" => {
            need(0)?;
            Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            }
        }
        other => return Err(err(l.number, format!("unknown mnemonic {other:?}"))),
    };
    out.push(instr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_program_with_labels() {
        let p = parse_program(
            "
            li a0, 5
            li a1, 0
            loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            ebreak
            ",
        )
        .unwrap();
        assert_eq!(p.text().len(), 6);
        match p.text()[4] {
            Instr::Branch { offset, .. } => assert_eq!(offset, -8),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn li_expansion_width() {
        let p = parse_program("li a0, 100\nli a1, 100000\n").unwrap();
        // small li = 1 instr; big li = lui+addi.
        assert_eq!(p.text().len(), 3);
        // Verify the lui+addi reconstruct 100000.
        match (p.text()[1], p.text()[2]) {
            (Instr::Lui { imm20, .. }, Instr::AluImm { imm, .. }) => {
                assert_eq!((imm20 << 12) + imm, 100_000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_addresses_account_for_pseudo_expansion() {
        let p = parse_program(
            "
            li a0, 100000   # 2 instructions
            target:
            nop
            j target
            ",
        )
        .unwrap();
        assert_eq!(p.symbols()["target"], 8);
        match p.text()[3] {
            Instr::Jal { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn data_section_and_la() {
        let p = parse_program(
            "
            .data
            arr: .word 1, 2, 3
            buf: .zero 8
            .text
            la a0, arr
            lw a1, 0(a0)
            ",
        )
        .unwrap();
        assert_eq!(p.data().len(), 5);
        assert_eq!(p.symbols()["arr"], DATA_BASE);
        assert_eq!(p.symbols()["buf"], DATA_BASE + 12);
        // la(2) + lw(1) = 3 instructions, plus 5 data words.
        assert_eq!(p.memory_bits(), 3 * 32 + 5 * 32);
    }

    #[test]
    fn mem_operand_forms() {
        let p = parse_program("lw a0, 8(sp)\nsw a0, (sp)\nlw a1, -4(s0)\n").unwrap();
        match p.text()[1] {
            Instr::Store { offset, .. } => assert_eq!(offset, 0),
            ref other => panic!("{other}"),
        }
        match p.text()[2] {
            Instr::Load { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn pseudo_branches_swap_operands() {
        let p = parse_program("x: bgt a0, a1, x\nble a0, a1, x\n").unwrap();
        match p.text()[0] {
            Instr::Branch {
                op: BranchOp::Lt,
                rs1,
                rs2,
                ..
            } => {
                assert_eq!((rs1, rs2), (Reg::A1, Reg::A0));
            }
            ref other => panic!("{other}"),
        }
        match p.text()[1] {
            Instr::Branch {
                op: BranchOp::Ge,
                rs1,
                rs2,
                ..
            } => {
                assert_eq!((rs1, rs2), (Reg::A1, Reg::A0));
            }
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn hi_lo_relocations() {
        let p = parse_program(
            ".data\nv: .word 7\n.text\nlui a0, %hi(v)\naddi a0, a0, %lo(v)\nlw a1, 0(a0)\n",
        )
        .unwrap();
        match (p.text()[0], p.text()[1]) {
            (Instr::Lui { imm20, .. }, Instr::AluImm { imm, .. }) => {
                assert_eq!(((imm20 << 12) + imm) as u32, DATA_BASE);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_have_line_numbers() {
        let e = parse_program("nop\nfrobnicate a0\n").unwrap_err();
        match e {
            Rv32Error::Assembly { line, .. } => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
        assert!(parse_program("x: nop\nx: nop\n").is_err());
        assert!(parse_program("lw a0, nope\n").is_err());
    }
}
