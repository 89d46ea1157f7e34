//! Error types of the `ternary` crate.

use std::error::Error;
use std::fmt;

/// Errors produced by balanced-ternary conversions and memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TernaryError {
    /// A numeric value was outside the trit domain {−1, 0, +1}.
    TritRange {
        /// The offending value.
        value: i64,
    },
    /// A character did not name a trit.
    TritChar {
        /// The offending character.
        found: char,
    },
    /// An integer did not fit the symmetric range of an `N`-trit word.
    WordRange {
        /// The offending value.
        value: i64,
        /// Word width in trits.
        width: usize,
        /// Largest magnitude representable, (3^width − 1)/2.
        max: i64,
    },
    /// A string had the wrong number of trit characters for the word width.
    WordLength {
        /// Characters found.
        found: usize,
        /// Width expected.
        expected: usize,
    },
    /// A memory access fell outside the address space.
    AddressRange {
        /// The decimal address used.
        address: i64,
        /// Number of valid words (addresses 0..size).
        size: usize,
    },
    /// A binary-coded-ternary bit pair was the invalid encoding `11`.
    InvalidBctPair {
        /// Position of the trit whose encoding was invalid.
        index: usize,
    },
    /// Division by zero in word arithmetic.
    DivisionByZero,
}

impl fmt::Display for TernaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TernaryError::TritRange { value } => {
                write!(f, "value {value} is not a balanced trit (-1, 0 or 1)")
            }
            TernaryError::TritChar { found } => {
                write!(f, "character {found:?} does not name a trit")
            }
            TernaryError::WordRange { value, width, max } => write!(
                f,
                "value {value} does not fit a {width}-trit balanced word (range is -{max}..={max})"
            ),
            TernaryError::WordLength { found, expected } => {
                write!(f, "expected {expected} trit characters, found {found}")
            }
            TernaryError::AddressRange { address, size } => write!(
                f,
                "address {address} is outside the memory (size {size} words)"
            ),
            TernaryError::InvalidBctPair { index } => write!(
                f,
                "invalid binary-coded-ternary bit pair 11 at trit index {index}"
            ),
            TernaryError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl Error for TernaryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TernaryError::WordRange {
            value: 99999,
            width: 9,
            max: 9841,
        };
        let s = e.to_string();
        assert!(s.contains("99999"));
        assert!(s.contains("9841"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TernaryError>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(TernaryError::DivisionByZero);
        assert_eq!(e.to_string(), "division by zero");
    }
}
