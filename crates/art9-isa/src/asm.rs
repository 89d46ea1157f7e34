//! Two-pass assembler for ART-9 assembly source.
//!
//! The syntax mirrors Table I of the paper with conventional extensions
//! (labels, sections, data directives) so that the software-level
//! compiling framework can emit readable intermediate text:
//!
//! ```text
//! ; bubble-sort inner loop (comments with ';', '#' or '//')
//!         .text
//! loop:   LOAD  t5, t2, 0        ; t5 = TDM[t2 + 0]
//!         LOAD  t6, t2, 1
//!         COMP  t7, t5           ; t7 already holds t5's neighbour
//!         BEQ   t7, +, swap      ; branch when LST(t7) == +1
//!         ADDI  t2, 1
//!         BNE   t3, 0, loop
//!         JAL   t1, done
//! swap:   STORE t5, t2, 1
//!         STORE t6, t2, 0
//! done:   JALR  t0, t1, 0
//!
//!         .data
//! nums:   .word 5, -3, 121, 0
//!         .zero 4
//! ```
//!
//! * Labels in `.text` name instruction addresses; in `.data` they name
//!   TDM word addresses.
//! * Branch (`BEQ`/`BNE`) and `JAL` targets may be labels (the assembler
//!   computes the PC-relative offset and range-checks it) or explicit
//!   numeric offsets.
//! * `hi(sym)`/`lo(sym)` split an address or constant into the LUI/LI
//!   pair: `value = hi·3⁵ + lo` with `lo` the balanced low 5 trits.
//! * Immediates are decimal, or balanced-ternary literals prefixed with
//!   `0t` (e.g. `0t+-0` = 6).

use std::collections::BTreeMap;

use ternary::{Trit, Word9};

use crate::error::{AsmErrorKind, IsaError};
use crate::instr::Instruction;
use crate::program::{Program, Section, Symbol};
use crate::reg::TReg;

/// Splits `value` into the `(hi, lo)` pair used by a LUI/LI sequence:
/// `value = hi·243 + lo`, with `lo ∈ [−121, 121]` the balanced low five
/// trits and `hi ∈ [−40, 40]`.
///
/// # Panics
///
/// Panics if `value` is outside the 9-trit range (−9841..=9841) — split
/// your constants before calling.
///
/// # Examples
///
/// ```
/// use art9_isa::asm::split_hi_lo;
/// let (hi, lo) = split_hi_lo(1000);
/// assert_eq!(hi * 243 + lo, 1000);
/// assert!((-121..=121).contains(&lo));
/// ```
pub fn split_hi_lo(value: i64) -> (i64, i64) {
    assert!(
        (-9841..=9841).contains(&value),
        "value {value} outside 9-trit range"
    );
    let w = Word9::from_i64(value).expect("checked above");
    let lo = w.field::<5>(0).to_i64();
    let hi = w.field::<4>(5).to_i64();
    debug_assert_eq!(hi * 243 + lo, value);
    (hi, lo)
}

/// Assembles ART-9 source text into a [`Program`].
///
/// # Errors
///
/// Returns [`IsaError::Assembly`] with the offending line number for
/// syntax errors, unknown mnemonics/registers, duplicate or undefined
/// labels, and out-of-range immediates or branch targets.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
///
/// let program = assemble("
///     LI   t3, 5
/// loop:
///     ADDI t3, -1
///     BNE  t3, 0, loop
/// ")?;
/// assert_eq!(program.text().len(), 3);
/// # Ok::<(), art9_isa::IsaError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, IsaError> {
    let items = parse_items(source)?;
    let symbols = collect_symbols(&items)?;
    lower(&items, &symbols)
}

// --- pass 0: line parsing ---------------------------------------------

#[derive(Debug, Clone)]
struct RawItem {
    line: usize,
    section: Section,
    /// Address within its section (instruction index or data word index).
    addr: usize,
    body: RawBody,
}

#[derive(Debug, Clone)]
enum RawBody {
    Instr {
        mnemonic: String,
        operands: Vec<String>,
    },
    Words(Vec<String>),
    Zeros(usize),
    Label(String),
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in [";", "#", "//"] {
        if let Some(pos) = line.find(marker) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

fn parse_items(source: &str) -> Result<Vec<RawItem>, IsaError> {
    let mut items = Vec::new();
    let mut section = Section::Text;
    let mut text_addr = 0usize;
    let mut data_addr = 0usize;

    for (lineno, raw_line) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut rest = strip_comment(raw_line).trim();

        // Peel leading labels (there may be several on one line).
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let label = head.trim();
            if label.is_empty() || !is_ident(label) {
                break;
            }
            let addr = if section == Section::Text {
                text_addr
            } else {
                data_addr
            };
            items.push(RawItem {
                line,
                section,
                addr,
                body: RawBody::Label(label.to_string()),
            });
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        if let Some(directive) = rest.strip_prefix('.') {
            let (name, args) = match directive.find(char::is_whitespace) {
                Some(pos) => (&directive[..pos], directive[pos..].trim()),
                None => (directive, ""),
            };
            match name.to_ascii_lowercase().as_str() {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "word" => {
                    let vals: Vec<String> = args.split(',').map(|s| s.trim().to_string()).collect();
                    if vals.iter().any(String::is_empty) {
                        return Err(asm_err(line, AsmErrorKind::BadDirective(rest.into())));
                    }
                    let n = vals.len();
                    items.push(RawItem {
                        line,
                        section: Section::Data,
                        addr: data_addr,
                        body: RawBody::Words(vals),
                    });
                    data_addr += n;
                }
                "zero" | "space" => {
                    let n: usize = args
                        .parse()
                        .map_err(|_| asm_err(line, AsmErrorKind::BadDirective(rest.into())))?;
                    items.push(RawItem {
                        line,
                        section: Section::Data,
                        addr: data_addr,
                        body: RawBody::Zeros(n),
                    });
                    data_addr += n;
                }
                _ => return Err(asm_err(line, AsmErrorKind::BadDirective(rest.into()))),
            }
            continue;
        }

        // Instruction line: mnemonic then comma-separated operands.
        let (mnemonic, ops) = match rest.find(char::is_whitespace) {
            Some(pos) => (&rest[..pos], rest[pos..].trim()),
            None => (rest, ""),
        };
        let operands: Vec<String> = if ops.is_empty() {
            Vec::new()
        } else {
            ops.split(',').map(|s| s.trim().to_string()).collect()
        };
        if operands.iter().any(String::is_empty) {
            return Err(asm_err(line, AsmErrorKind::BadOperand(ops.into())));
        }
        items.push(RawItem {
            line,
            section: Section::Text,
            addr: text_addr,
            body: RawBody::Instr {
                mnemonic: mnemonic.to_ascii_uppercase(),
                operands,
            },
        });
        text_addr += 1;
    }
    Ok(items)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn asm_err(line: usize, kind: AsmErrorKind) -> IsaError {
    IsaError::Assembly { line, kind }
}

// --- pass 1: symbol collection ----------------------------------------

fn collect_symbols(items: &[RawItem]) -> Result<BTreeMap<String, Symbol>, IsaError> {
    let mut symbols = BTreeMap::new();
    for item in items {
        if let RawBody::Label(name) = &item.body {
            let sym = Symbol {
                section: item.section,
                address: item.addr,
            };
            if symbols.insert(name.clone(), sym).is_some() {
                return Err(asm_err(
                    item.line,
                    AsmErrorKind::DuplicateLabel(name.clone()),
                ));
            }
        }
    }
    Ok(symbols)
}

// --- pass 2: lowering ---------------------------------------------------

struct Ctx<'a> {
    symbols: &'a BTreeMap<String, Symbol>,
    line: usize,
    pc: usize,
}

impl Ctx<'_> {
    fn err(&self, kind: AsmErrorKind) -> IsaError {
        asm_err(self.line, kind)
    }

    fn reg(&self, s: &str) -> Result<TReg, IsaError> {
        s.parse::<TReg>()
            .map_err(|_| self.err(AsmErrorKind::UnknownRegister(s.into())))
    }

    /// Parses a numeric operand: decimal, `0t` ternary literal, or
    /// `hi(sym)` / `lo(sym)` of a symbol or constant.
    fn value(&self, s: &str) -> Result<i64, IsaError> {
        if let Some(inner) = call_arg(s, "hi") {
            return Ok(split_hi_lo(self.value(inner)?).0);
        }
        if let Some(inner) = call_arg(s, "lo") {
            return Ok(split_hi_lo(self.value(inner)?).1);
        }
        if let Some(lit) = s.strip_prefix("0t") {
            return parse_ternary_literal(lit)
                .ok_or_else(|| self.err(AsmErrorKind::BadOperand(s.into())));
        }
        if let Ok(v) = s.parse::<i64>() {
            return Ok(v);
        }
        if let Some(sym) = self.symbols.get(s) {
            return Ok(sym.address as i64);
        }
        if is_ident(s) {
            Err(self.err(AsmErrorKind::UndefinedLabel(s.into())))
        } else {
            Err(self.err(AsmErrorKind::BadOperand(s.into())))
        }
    }

    /// Parses an immediate that must fit `N` trits.
    fn imm<const N: usize>(&self, s: &str) -> Result<ternary::Trits<N>, IsaError> {
        let v = self.value(s)?;
        ternary::Trits::<N>::from_i64(v)
            .map_err(|_| self.err(AsmErrorKind::ImmediateRange { value: v, width: N }))
    }

    /// Parses a control-flow target: a label (PC-relative delta) or an
    /// explicit numeric offset.
    fn target<const N: usize>(&self, s: &str) -> Result<ternary::Trits<N>, IsaError> {
        let offset = if let Some(sym) = self.symbols.get(s) {
            if sym.section != Section::Text {
                return Err(self.err(AsmErrorKind::BadOperand(format!(
                    "{s} is a data label, not a branch target"
                ))));
            }
            sym.address as i64 - self.pc as i64
        } else if let Ok(v) = s.parse::<i64>() {
            v
        } else {
            return Err(self.err(AsmErrorKind::UndefinedLabel(s.into())));
        };
        ternary::Trits::<N>::from_i64(offset).map_err(|_| {
            self.err(AsmErrorKind::TargetOutOfRange {
                target: s.into(),
                offset,
                width: N,
            })
        })
    }

    /// Parses the 1-trit branch constant: `-`, `0` or `+` (or n/z/p).
    fn branch_trit(&self, s: &str) -> Result<Trit, IsaError> {
        if s.len() == 1 {
            if let Ok(t) = Trit::try_from_char(s.chars().next().expect("len 1")) {
                return Ok(t);
            }
        }
        Err(self.err(AsmErrorKind::BadBranchTrit(s.into())))
    }
}

fn call_arg<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    s.strip_prefix(name)?
        .trim_start()
        .strip_prefix('(')?
        .trim_end()
        .strip_suffix(')')
        .map(str::trim)
}

fn parse_ternary_literal(s: &str) -> Option<i64> {
    if s.is_empty() {
        return None;
    }
    let mut acc = 0i64;
    for c in s.chars() {
        if c == '_' {
            continue;
        }
        acc = acc * 3 + Trit::try_from_char(c).ok()?.value() as i64;
    }
    Some(acc)
}

fn expect_operands(
    line: usize,
    mnemonic: &str,
    operands: &[String],
    expected: usize,
) -> Result<(), IsaError> {
    if operands.len() != expected {
        return Err(asm_err(
            line,
            AsmErrorKind::OperandCount {
                mnemonic: mnemonic.into(),
                expected,
                found: operands.len(),
            },
        ));
    }
    Ok(())
}

fn lower(items: &[RawItem], symbols: &BTreeMap<String, Symbol>) -> Result<Program, IsaError> {
    let mut text = Vec::new();
    let mut data = Vec::new();

    for item in items {
        match &item.body {
            RawBody::Label(_) => {}
            RawBody::Zeros(n) => data.extend(std::iter::repeat_n(Word9::ZERO, *n)),
            RawBody::Words(vals) => {
                let ctx = Ctx {
                    symbols,
                    line: item.line,
                    pc: 0,
                };
                for v in vals {
                    let value = ctx.value(v)?;
                    let w = Word9::from_i64(value)
                        .map_err(|_| ctx.err(AsmErrorKind::ImmediateRange { value, width: 9 }))?;
                    data.push(w);
                }
            }
            RawBody::Instr { mnemonic, operands } => {
                let ctx = Ctx {
                    symbols,
                    line: item.line,
                    pc: item.addr,
                };
                let instr = lower_instr(&ctx, mnemonic, operands)?;
                text.push(instr);
            }
        }
    }

    Ok(Program::new(text, data, symbols.clone()))
}

fn lower_instr(ctx: &Ctx<'_>, mnemonic: &str, ops: &[String]) -> Result<Instruction, IsaError> {
    use Instruction::*;
    let n = ops.len();
    let need = |expected| expect_operands(ctx.line, mnemonic, ops, expected);

    Ok(match mnemonic {
        "MV" => {
            need(2)?;
            Mv {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "PTI" => {
            need(2)?;
            Pti {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "NTI" => {
            need(2)?;
            Nti {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "STI" => {
            need(2)?;
            Sti {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "AND" => {
            need(2)?;
            And {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "OR" => {
            need(2)?;
            Or {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "XOR" => {
            need(2)?;
            Xor {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "ADD" => {
            need(2)?;
            Add {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "SUB" => {
            need(2)?;
            Sub {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "SR" => {
            need(2)?;
            Sr {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "SL" => {
            need(2)?;
            Sl {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "COMP" => {
            need(2)?;
            Comp {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
            }
        }
        "ANDI" => {
            need(2)?;
            Andi {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<3>(&ops[1])?,
            }
        }
        "ADDI" => {
            need(2)?;
            Addi {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<3>(&ops[1])?,
            }
        }
        "SRI" => {
            need(2)?;
            Sri {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<2>(&ops[1])?,
            }
        }
        "SLI" => {
            need(2)?;
            Sli {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<2>(&ops[1])?,
            }
        }
        "LUI" => {
            need(2)?;
            Lui {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<4>(&ops[1])?,
            }
        }
        "LI" => {
            need(2)?;
            Li {
                a: ctx.reg(&ops[0])?,
                imm: ctx.imm::<5>(&ops[1])?,
            }
        }
        "BEQ" => {
            need(3)?;
            Beq {
                b: ctx.reg(&ops[0])?,
                cond: ctx.branch_trit(&ops[1])?,
                offset: ctx.target::<4>(&ops[2])?,
            }
        }
        "BNE" => {
            need(3)?;
            Bne {
                b: ctx.reg(&ops[0])?,
                cond: ctx.branch_trit(&ops[1])?,
                offset: ctx.target::<4>(&ops[2])?,
            }
        }
        "JAL" => {
            need(2)?;
            Jal {
                a: ctx.reg(&ops[0])?,
                offset: ctx.target::<5>(&ops[1])?,
            }
        }
        "JALR" => {
            need(3)?;
            Jalr {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
                offset: ctx.imm::<3>(&ops[2])?,
            }
        }
        "LOAD" => {
            need(3)?;
            Load {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
                offset: ctx.imm::<3>(&ops[2])?,
            }
        }
        "STORE" => {
            need(3)?;
            Store {
                a: ctx.reg(&ops[0])?,
                b: ctx.reg(&ops[1])?,
                offset: ctx.imm::<3>(&ops[2])?,
            }
        }
        "NOP" => {
            need(0)?;
            let _ = n;
            crate::instr::NOP
        }
        other => {
            return Err(ctx.err(AsmErrorKind::UnknownMnemonic(other.into())));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_each_mnemonic() {
        let src = "
            MV t3, t4
            PTI t3, t4
            NTI t3, t4
            STI t3, t4
            AND t3, t4
            OR t3, t4
            XOR t3, t4
            ADD t3, t4
            SUB t3, t4
            SR t3, t4
            SL t3, t4
            COMP t3, t4
            ANDI t3, -13
            ADDI t3, 13
            SRI t3, 2
            SLI t3, -2
            LUI t3, 40
            LI t3, -121
            BEQ t3, +, 1
            BNE t3, -, -1
            JAL t1, 2
            JALR t1, t2, 0
            LOAD t5, t2, 3
            STORE t5, t2, -3
        ";
        let p = assemble(src).unwrap();
        assert_eq!(p.text().len(), 24);
    }

    #[test]
    fn label_branch_offsets() {
        let src = "
            LI t3, 3
        loop:
            ADDI t3, -1
            BNE t3, 0, loop
            NOP
        ";
        let p = assemble(src).unwrap();
        // BNE at pc=2, loop at pc=1 => offset -1.
        match p.text()[2] {
            Instruction::Bne { offset, .. } => assert_eq!(offset.to_i64(), -1),
            ref other => panic!("expected BNE, got {other}"),
        }
    }

    #[test]
    fn forward_jump_and_multiple_labels() {
        let src = "
        start: first: JAL t1, end
            NOP
        end:
            NOP
        ";
        let p = assemble(src).unwrap();
        match p.text()[0] {
            Instruction::Jal { offset, .. } => assert_eq!(offset.to_i64(), 2),
            ref other => panic!("expected JAL, got {other}"),
        }
        assert_eq!(p.symbol("start").unwrap().address, 0);
        assert_eq!(p.symbol("first").unwrap().address, 0);
        assert_eq!(p.symbol("end").unwrap().address, 2);
    }

    #[test]
    fn data_section_words_and_labels() {
        let src = "
            .data
        nums: .word 5, -3, 0t+-0
            .zero 2
        more: .word 9841
            .text
            LI t3, lo(nums)
            LI t4, lo(more)
        ";
        let p = assemble(src).unwrap();
        assert_eq!(p.data().len(), 6);
        assert_eq!(p.data()[0].to_i64(), 5);
        assert_eq!(p.data()[1].to_i64(), -3);
        assert_eq!(p.data()[2].to_i64(), 6); // 0t+-0
        assert_eq!(p.data()[5].to_i64(), 9841);
        assert_eq!(p.symbol("more").unwrap().address, 5);
        match p.text()[1] {
            Instruction::Li { imm, .. } => assert_eq!(imm.to_i64(), 5),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn hi_lo_reconstruct() {
        for v in [-9841i64, -1000, -122, -121, 0, 121, 122, 1000, 9841] {
            let (hi, lo) = split_hi_lo(v);
            assert_eq!(hi * 243 + lo, v, "value {v}");
            assert!((-121..=121).contains(&lo));
            assert!((-40..=40).contains(&hi));
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("NOP\nFROB t1, t2\n").unwrap_err();
        match e {
            IsaError::Assembly {
                line,
                kind: AsmErrorKind::UnknownMnemonic(m),
            } => {
                assert_eq!(line, 2);
                assert_eq!(m, "FROB");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_register_operand_count_and_range() {
        assert!(matches!(
            assemble("MV t3, x9").unwrap_err(),
            IsaError::Assembly {
                kind: AsmErrorKind::UnknownRegister(_),
                ..
            }
        ));
        assert!(matches!(
            assemble("MV t3").unwrap_err(),
            IsaError::Assembly {
                kind: AsmErrorKind::OperandCount { .. },
                ..
            }
        ));
        assert!(matches!(
            assemble("ADDI t3, 14").unwrap_err(),
            IsaError::Assembly {
                kind: AsmErrorKind::ImmediateRange { .. },
                ..
            }
        ));
    }

    #[test]
    fn rejects_duplicate_and_undefined_labels() {
        assert!(matches!(
            assemble("x: NOP\nx: NOP").unwrap_err(),
            IsaError::Assembly {
                kind: AsmErrorKind::DuplicateLabel(_),
                ..
            }
        ));
        assert!(matches!(
            assemble("JAL t1, nowhere").unwrap_err(),
            IsaError::Assembly {
                kind: AsmErrorKind::UndefinedLabel(_),
                ..
            }
        ));
    }

    #[test]
    fn branch_out_of_range_is_reported() {
        // Branch target 50 instructions away: outside imm4 (±40).
        let mut src = String::from("BEQ t3, 0, far\n");
        for _ in 0..60 {
            src.push_str("NOP\n");
        }
        src.push_str("far: NOP\n");
        let e = assemble(&src).unwrap_err();
        assert!(matches!(
            e,
            IsaError::Assembly {
                kind: AsmErrorKind::TargetOutOfRange { .. },
                ..
            }
        ));
    }

    #[test]
    fn branch_condition_spellings() {
        let p = assemble("BEQ t3, +, 0\nBEQ t3, -, 0\nBEQ t3, 0, 0").unwrap();
        let conds: Vec<Trit> = p
            .text()
            .iter()
            .map(|i| match i {
                Instruction::Beq { cond, .. } => *cond,
                other => panic!("{other}"),
            })
            .collect();
        assert_eq!(conds, vec![Trit::P, Trit::N, Trit::Z]);
    }

    #[test]
    fn comments_everywhere() {
        let p = assemble("NOP ; tail\n# full line\n// also full\nNOP # tail 2\n").unwrap();
        assert_eq!(p.text().len(), 2);
    }
}
