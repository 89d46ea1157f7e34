//! Functional RV32IM simulator.
//!
//! A Harvard-style model matching the ART-9 setup: instructions live in
//! their own text array (PC is a byte address, always 4-aligned here),
//! data in a flat little-endian byte memory with the program's data
//! image at [`DATA_BASE`](crate::parse::DATA_BASE) and the stack at the
//! top.
//!
//! ## Halt convention
//!
//! `ebreak`/`ecall` halt, and — like the ART-9 simulators — any control
//! transfer that targets its own address halts (bare-metal idle loop).

use crate::error::Rv32Error;
use crate::instr::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp};
use crate::parse::{Rv32Program, DATA_BASE};
use crate::reg::Reg;

/// Default data-memory size in bytes (64 KiB: data + heap + stack).
pub const DEFAULT_MEM_BYTES: usize = 64 * 1024;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// `ebreak` or `ecall` executed.
    Break,
    /// A control transfer targeted itself.
    JumpToSelf,
    /// Execution fell off the end of the text section.
    FellOffEnd,
}

/// Everything a cycle model needs to know about one retired instruction.
#[derive(Debug, Clone, Copy)]
pub struct Retire {
    /// The instruction.
    pub instr: Instr,
    /// For branches: whether it was taken.
    pub taken: bool,
    /// For shifts: the effective shift amount (0..=31).
    pub shift_amount: u32,
}

/// The RV32 machine state and functional executor.
///
/// # Examples
///
/// ```
/// use rv32::{parse_program, Machine, Reg};
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
/// let mut m = Machine::new(&p);
/// m.run(10_000)?;
/// assert_eq!(m.reg(Reg::A1), 55);
/// # Ok::<(), rv32::Rv32Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    text: Vec<Instr>,
    regs: [u32; 32],
    pc: u32,
    mem: Vec<u8>,
    instret: u64,
    halted: Option<HaltReason>,
}

impl Machine {
    /// Builds a machine with the default 64 KiB data memory, the data
    /// image at `DATA_BASE` and `sp` at the top of memory.
    pub fn new(program: &Rv32Program) -> Self {
        Self::with_mem_size(program, DEFAULT_MEM_BYTES)
    }

    /// Builds a machine with an explicit data-memory size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the data image does not fit below `mem_bytes`.
    pub fn with_mem_size(program: &Rv32Program, mem_bytes: usize) -> Self {
        let mut mem = vec![0u8; mem_bytes];
        let base = DATA_BASE as usize;
        assert!(
            base + 4 * program.data().len() <= mem_bytes,
            "data image does not fit memory"
        );
        for (i, w) in program.data().iter().enumerate() {
            mem[base + 4 * i..base + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = mem_bytes as u32;
        Self {
            text: program.text().to_vec(),
            regs,
            pc: 0,
            mem,
            instret: 0,
            halted: None,
        }
    }

    /// Reads a register (`x0` is always 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The program counter (byte address).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// All 32 registers by index (`x0` is kept 0) — the whole-file view
    /// the differential harnesses snapshot.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// The first architectural difference between two machines, as a
    /// human-readable description — PC, then the 31 writable registers,
    /// then memory word by word. `None` when the states agree.
    ///
    /// The RV32-side counterpart of
    /// `art9_sim::CoreState::first_difference`, for A/B debugging of
    /// the binary substrate itself.
    pub fn first_difference(&self, other: &Machine) -> Option<String> {
        if self.pc != other.pc {
            return Some(format!("pc {:#x} vs {:#x}", self.pc, other.pc));
        }
        for i in 1..32 {
            if self.regs[i] != other.regs[i] {
                let r = Reg::from_index(i).expect("index < 32");
                return Some(format!(
                    "{r} = {} vs {}",
                    self.regs[i] as i32, other.regs[i] as i32
                ));
            }
        }
        if self.mem.len() != other.mem.len() {
            return Some(format!(
                "memory sizes {} vs {}",
                self.mem.len(),
                other.mem.len()
            ));
        }
        for (addr, (a, b)) in self.mem.iter().zip(other.mem.iter()).enumerate() {
            if a != b {
                return Some(format!("mem[{addr:#x}] = {a:#04x} vs {b:#04x}"));
            }
        }
        None
    }

    /// Whether (and why) the machine halted.
    pub fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Reads a 32-bit little-endian word from data memory.
    ///
    /// # Errors
    ///
    /// [`Rv32Error::MemoryFault`] when out of range or misaligned.
    pub fn load_word(&self, address: u32) -> Result<u32, Rv32Error> {
        self.check(address, 4, "load")?;
        let a = address as usize;
        Ok(u32::from_le_bytes(
            self.mem[a..a + 4].try_into().expect("4 bytes"),
        ))
    }

    /// Writes a 32-bit little-endian word to data memory.
    ///
    /// # Errors
    ///
    /// [`Rv32Error::MemoryFault`] when out of range or misaligned.
    pub fn store_word(&mut self, address: u32, value: u32) -> Result<(), Rv32Error> {
        self.check(address, 4, "store")?;
        let a = address as usize;
        self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check(&self, address: u32, width: u32, what: &'static str) -> Result<(), Rv32Error> {
        if address as usize + width as usize > self.mem.len() {
            return Err(Rv32Error::MemoryFault {
                pc: self.pc,
                address,
                cause: "address out of range",
            });
        }
        if !address.is_multiple_of(width) {
            let cause = if what == "load" {
                "misaligned load"
            } else {
                "misaligned store"
            };
            return Err(Rv32Error::MemoryFault {
                pc: self.pc,
                address,
                cause,
            });
        }
        Ok(())
    }

    /// Executes one instruction; returns retirement info for cycle
    /// models, or the halt reason.
    ///
    /// # Errors
    ///
    /// Propagates memory faults and PC range errors.
    pub fn step(&mut self) -> Result<Result<Retire, HaltReason>, Rv32Error> {
        if let Some(reason) = self.halted {
            return Ok(Err(reason));
        }
        let index = (self.pc / 4) as usize;
        if !self.pc.is_multiple_of(4) || index > self.text.len() {
            return Err(Rv32Error::PcOutOfRange {
                pc: self.pc,
                text_bytes: self.text.len() * 4,
            });
        }
        if index == self.text.len() {
            self.halted = Some(HaltReason::FellOffEnd);
            return Ok(Err(HaltReason::FellOffEnd));
        }
        let instr = self.text[index];
        self.instret += 1;
        let pc = self.pc;
        let mut next = pc.wrapping_add(4);
        let mut taken = false;
        let mut shift_amount = 0u32;

        use Instr::*;
        match instr {
            Lui { rd, imm20 } => self.set_reg(rd, (imm20 as u32) << 12),
            Auipc { rd, imm20 } => self.set_reg(rd, pc.wrapping_add((imm20 as u32) << 12)),
            Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next = pc.wrapping_add(offset as u32);
                taken = true;
            }
            Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next = target;
                taken = true;
            }
            Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next = pc.wrapping_add(offset as u32);
                }
            }
            Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = match op {
                    LoadOp::Lw => self.load_word(addr)?,
                    LoadOp::Lb | LoadOp::Lbu => {
                        self.check(addr, 1, "load")?;
                        let b = self.mem[addr as usize];
                        if matches!(op, LoadOp::Lb) {
                            b as i8 as i32 as u32
                        } else {
                            b as u32
                        }
                    }
                    LoadOp::Lh | LoadOp::Lhu => {
                        self.check(addr, 2, "load")?;
                        let h = u16::from_le_bytes(
                            self.mem[addr as usize..addr as usize + 2]
                                .try_into()
                                .expect("2 bytes"),
                        );
                        if matches!(op, LoadOp::Lh) {
                            h as i16 as i32 as u32
                        } else {
                            h as u32
                        }
                    }
                };
                self.set_reg(rd, value);
            }
            Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let v = self.reg(rs2);
                match op {
                    StoreOp::Sw => self.store_word(addr, v)?,
                    StoreOp::Sb => {
                        self.check(addr, 1, "store")?;
                        self.mem[addr as usize] = v as u8;
                    }
                    StoreOp::Sh => {
                        self.check(addr, 2, "store")?;
                        self.mem[addr as usize..addr as usize + 2]
                            .copy_from_slice(&(v as u16).to_le_bytes());
                    }
                }
            }
            AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let b = imm as u32;
                if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                    shift_amount = b & 0x1f;
                }
                self.set_reg(rd, alu(op, a, b));
            }
            Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                    shift_amount = b & 0x1f;
                }
                self.set_reg(rd, alu(op, a, b));
            }
            MulDiv { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                self.set_reg(rd, muldiv(op, a, b));
            }
            Fence => {}
            Ecall | Ebreak => {
                self.halted = Some(HaltReason::Break);
                return Ok(Err(HaltReason::Break));
            }
        }

        if next == pc {
            self.halted = Some(HaltReason::JumpToSelf);
            return Ok(Err(HaltReason::JumpToSelf));
        }
        self.pc = next;
        if next as usize == self.text.len() * 4 {
            self.halted = Some(HaltReason::FellOffEnd);
        }
        Ok(Ok(Retire {
            instr,
            taken,
            shift_amount,
        }))
    }

    /// Runs until halt, up to `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// [`Rv32Error::Timeout`] when the budget is exhausted, plus any
    /// fault from [`Machine::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<HaltReason, Rv32Error> {
        for _ in 0..max_steps {
            if let Err(reason) = self.step()? {
                return Ok(reason);
            }
        }
        Err(Rv32Error::Timeout { limit: max_steps })
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow case per spec
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn run_src(src: &str) -> Machine {
        let p = parse_program(src).unwrap();
        let mut m = Machine::new(&p);
        m.run(1_000_000).unwrap();
        m
    }

    #[test]
    fn arithmetic_loop() {
        let m = run_src(
            "li a0, 10\nli a1, 0\nloop:\nadd a1, a1, a0\naddi a0, a0, -1\nbnez a0, loop\nebreak\n",
        );
        assert_eq!(m.reg(Reg::A1), 55);
        assert_eq!(m.halted(), Some(HaltReason::Break));
    }

    #[test]
    fn memory_bytes_halves_words() {
        let m = run_src(
            "
            .data
            buf: .zero 16
            .text
            la   a0, buf
            li   a1, -2
            sw   a1, 0(a0)
            lb   a2, 0(a0)      # 0xfe sign-extended
            lbu  a3, 0(a0)
            lh   a4, 0(a0)
            lhu  a5, 0(a0)
            ebreak
            ",
        );
        assert_eq!(m.reg(Reg::A2), (-2i32) as u32);
        assert_eq!(m.reg(Reg::A3), 0xfe);
        assert_eq!(m.reg(Reg::A4), (-2i32) as u32);
        assert_eq!(m.reg(Reg::A5), 0xfffe);
    }

    #[test]
    fn signed_unsigned_compares() {
        let m = run_src(
            "
            li a0, -1
            li a1, 1
            slt  a2, a0, a1     # signed: -1 < 1 -> 1
            sltu a3, a0, a1     # unsigned: 0xffffffff < 1 -> 0
            ebreak
            ",
        );
        assert_eq!(m.reg(Reg::A2), 1);
        assert_eq!(m.reg(Reg::A3), 0);
    }

    #[test]
    fn shifts_match_spec() {
        let m = run_src(
            "
            li a0, -16
            srai a1, a0, 2      # -4
            srli a2, a0, 28     # high bits
            slli a3, a0, 1      # -32
            ebreak
            ",
        );
        assert_eq!(m.reg(Reg::A1) as i32, -4);
        assert_eq!(m.reg(Reg::A2), 0xf);
        assert_eq!(m.reg(Reg::A3) as i32, -32);
    }

    #[test]
    fn muldiv_semantics() {
        let m = run_src(
            "
            li a0, -7
            li a1, 2
            mul  a2, a0, a1
            div  a3, a0, a1
            rem  a4, a0, a1
            li   a5, 0
            div  a6, a0, a5     # div by zero -> -1
            ebreak
            ",
        );
        assert_eq!(m.reg(Reg::A2) as i32, -14);
        assert_eq!(m.reg(Reg::A3) as i32, -3);
        assert_eq!(m.reg(Reg::A4) as i32, -1);
        assert_eq!(m.reg(Reg::A6), u32::MAX);
    }

    #[test]
    fn call_ret_stack() {
        let m = run_src(
            "
            li   a0, 5
            call double
            ebreak
            double:
            addi sp, sp, -4
            sw   ra, 0(sp)
            add  a0, a0, a0
            lw   ra, 0(sp)
            addi sp, sp, 4
            ret
            ",
        );
        assert_eq!(m.reg(Reg::A0), 10);
    }

    #[test]
    fn x0_is_immutable() {
        let m = run_src("li zero, 42\naddi zero, zero, 7\nebreak\n");
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn jump_to_self_halts() {
        let m = run_src("nop\nx: j x\n");
        assert_eq!(m.halted(), Some(HaltReason::JumpToSelf));
    }

    #[test]
    fn misaligned_and_oob_fault() {
        let p = parse_program("li a0, 3\nlw a1, 0(a0)\n").unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.run(10), Err(Rv32Error::MemoryFault { .. })));
        let p2 = parse_program("li a0, -8\nlw a1, 0(a0)\n").unwrap();
        let mut m2 = Machine::new(&p2);
        assert!(matches!(m2.run(10), Err(Rv32Error::MemoryFault { .. })));
    }

    #[test]
    fn state_helpers_and_first_difference() {
        let p = parse_program("li a0, 5\nebreak\n").unwrap();
        let mut a = Machine::new(&p);
        let mut b = Machine::new(&p);
        assert_eq!(a.regs()[Reg::SP.index()], DEFAULT_MEM_BYTES as u32);
        a.run(10).unwrap();
        b.run(10).unwrap();
        assert_eq!(a.first_difference(&b), None);

        b.set_reg(Reg::A1, 9);
        let d = a.first_difference(&b).expect("register diff");
        assert!(d.contains("a1") && d.contains('9'), "{d}");

        b.set_reg(Reg::A1, 0);
        b.store_word(0x2000, 7).unwrap();
        let d = a.first_difference(&b).expect("memory diff");
        assert!(d.contains("mem[0x2000]"), "{d}");
    }

    #[test]
    fn timeout() {
        let p = parse_program("a: nop\nj a\n").unwrap();
        let mut m = Machine::new(&p);
        assert!(matches!(m.run(10), Err(Rv32Error::Timeout { .. })));
    }
}
