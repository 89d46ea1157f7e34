//! RV32 integer registers `x0..x31` with ABI names.

use std::fmt;
use std::str::FromStr;

use crate::error::Rv32Error;

/// One of the 32 RV32I integer registers. `x0` reads as zero and ignores
/// writes.
///
/// # Examples
///
/// ```
/// use rv32::Reg;
///
/// let a0: Reg = "a0".parse()?;
/// assert_eq!(a0.index(), 10);
/// assert_eq!(a0.abi_name(), "a0");
/// # Ok::<(), rv32::Rv32Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// ABI register names indexed by register number.
const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl Reg {
    /// `x0` / `zero`.
    pub const ZERO: Reg = Reg(0);
    /// `x1` / `ra` — return address.
    pub const RA: Reg = Reg(1);
    /// `x2` / `sp` — stack pointer.
    pub const SP: Reg = Reg(2);
    /// `x10` / `a0` — first argument / return value.
    pub const A0: Reg = Reg(10);
    /// `x11` / `a1`.
    pub const A1: Reg = Reg(11);
    /// `x12` / `a2`.
    pub const A2: Reg = Reg(12);
    /// `x13` / `a3`.
    pub const A3: Reg = Reg(13);
    /// `x14` / `a4`.
    pub const A4: Reg = Reg(14);
    /// `x15` / `a5`.
    pub const A5: Reg = Reg(15);
    /// `x16` / `a6`.
    pub const A6: Reg = Reg(16);
    /// `x5` / `t0`.
    pub const T0: Reg = Reg(5);

    /// Builds a register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`Rv32Error::RegisterIndex`] when `index > 31`.
    pub fn from_index(index: usize) -> Result<Self, Rv32Error> {
        if index > 31 {
            return Err(Rv32Error::RegisterIndex { index });
        }
        Ok(Reg(index as u8))
    }

    /// The register number (0..=31).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The ABI name (`zero`, `ra`, `sp`, `a0`, …).
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// `true` for `x0`.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

impl FromStr for Reg {
    type Err = Rv32Error;

    /// Accepts `x<N>` numeric names and all ABI names (plus `fp` for
    /// `s0`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = s.as_bytes();
        if let (Some(b'x' | b'X'), Some(rest)) = (bytes.first(), s.get(1..)) {
            if let Ok(i) = rest.parse::<usize>() {
                return Reg::from_index(i);
            }
        }
        let key = name_key(bytes);
        let index = if key == name_key(b"fp") {
            Some(8)
        } else {
            ABI_KEYS.iter().position(|k| *k == key)
        };
        index
            .map(|i| Reg(i as u8))
            .ok_or_else(|| Rv32Error::UnknownRegister {
                name: s.to_string(),
            })
    }
}

/// A register name folded to lowercase and packed into one integer:
/// the length above the (at most four) bytes, so that names compare
/// with one `==` and no allocation. Longer names get a key no ABI name
/// has.
const fn name_key(name: &[u8]) -> u64 {
    if name.len() > 4 {
        return u64::MAX;
    }
    let mut key = (name.len() as u64) << 32;
    let mut i = 0;
    while i < name.len() {
        key |= (name[i].to_ascii_lowercase() as u64) << (8 * i);
        i += 1;
    }
    key
}

/// [`name_key`] of every ABI name, by register number.
const ABI_KEYS: [u64; 32] = {
    let mut keys = [0; 32];
    let mut i = 0;
    while i < 32 {
        keys[i] = name_key(ABI_NAMES[i].as_bytes());
        i += 1;
    }
    keys
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_numeric_and_abi() {
        assert_eq!("x0".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("x31".parse::<Reg>().unwrap().abi_name(), "t6");
        assert_eq!("fp".parse::<Reg>().unwrap().index(), 8);
        assert_eq!("s0".parse::<Reg>().unwrap().index(), 8);
        assert!("x32".parse::<Reg>().is_err());
        assert!("q1".parse::<Reg>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for i in 0..32 {
            let r = Reg::from_index(i).unwrap();
            assert_eq!(r.to_string().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn zero_is_special() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::RA.is_zero());
    }
}
