//! Error types of the ART-9 ISA crate.

use std::error::Error;
use std::fmt;

use ternary::{TernaryError, Word9};

/// Errors from instruction decoding and assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// A 9-trit word did not decode to any ART-9 instruction (reserved
    /// opcode space, §3.1 of DESIGN.md).
    IllegalInstruction {
        /// The word that failed to decode.
        word: Word9,
    },
    /// A register index was outside T0..T8.
    RegisterIndex {
        /// The offending index.
        index: i64,
    },
    /// An immediate did not fit its field.
    ImmediateRange {
        /// The mnemonic whose field overflowed.
        mnemonic: &'static str,
        /// The offending value.
        value: i64,
        /// Field width in trits.
        width: usize,
    },
    /// An assembly-source error, tagged with its 1-based line number.
    Assembly {
        /// Line where the problem was found.
        line: usize,
        /// What went wrong.
        kind: AsmErrorKind,
    },
    /// A ternary-domain error surfaced through the ISA layer.
    Ternary(TernaryError),
}

/// The specific assembly-source problems [`IsaError::Assembly`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// Unknown mnemonic or directive.
    UnknownMnemonic(String),
    /// Unknown register name.
    UnknownRegister(String),
    /// Malformed operand.
    BadOperand(String),
    /// Wrong number of operands for the mnemonic.
    OperandCount {
        /// The mnemonic being assembled.
        mnemonic: String,
        /// Operands expected.
        expected: usize,
        /// Operands found.
        found: usize,
    },
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A branch/jump target was out of the immediate's reach.
    TargetOutOfRange {
        /// The label or offset that is unreachable.
        target: String,
        /// The required offset in instructions.
        offset: i64,
        /// The immediate width available.
        width: usize,
    },
    /// An immediate literal was out of range for its field.
    ImmediateRange {
        /// The offending value.
        value: i64,
        /// Field width in trits.
        width: usize,
    },
    /// A 1-trit branch constant was not `-`, `0` or `+`.
    BadBranchTrit(String),
    /// A directive was malformed.
    BadDirective(String),
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic {m:?}"),
            AsmErrorKind::UnknownRegister(r) => write!(f, "unknown register {r:?}"),
            AsmErrorKind::BadOperand(o) => write!(f, "malformed operand {o:?}"),
            AsmErrorKind::OperandCount {
                mnemonic,
                expected,
                found,
            } => write!(f, "{mnemonic} expects {expected} operand(s), found {found}"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "label {l:?} defined twice"),
            AsmErrorKind::UndefinedLabel(l) => write!(f, "label {l:?} is not defined"),
            AsmErrorKind::TargetOutOfRange {
                target,
                offset,
                width,
            } => write!(
                f,
                "target {target:?} needs offset {offset}, outside a {width}-trit immediate"
            ),
            AsmErrorKind::ImmediateRange { value, width } => {
                write!(f, "immediate {value} does not fit {width} trits")
            }
            AsmErrorKind::BadBranchTrit(s) => {
                write!(f, "branch constant must be '-', '0' or '+', found {s:?}")
            }
            AsmErrorKind::BadDirective(d) => write!(f, "malformed directive {d:?}"),
        }
    }
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::IllegalInstruction { word } => {
                write!(f, "illegal instruction word {word}")
            }
            IsaError::RegisterIndex { index } => {
                write!(f, "register index {index} is outside T0..T8")
            }
            IsaError::ImmediateRange {
                mnemonic,
                value,
                width,
            } => write!(f, "{mnemonic} immediate {value} does not fit {width} trits"),
            IsaError::Assembly { line, kind } => write!(f, "line {line}: {kind}"),
            IsaError::Ternary(e) => write!(f, "{e}"),
        }
    }
}

impl Error for IsaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IsaError::Ternary(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TernaryError> for IsaError {
    fn from(e: TernaryError) -> Self {
        IsaError::Ternary(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line() {
        let e = IsaError::Assembly {
            line: 7,
            kind: AsmErrorKind::UnknownMnemonic("FOO".into()),
        };
        let s = e.to_string();
        assert!(s.contains("line 7"));
        assert!(s.contains("FOO"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IsaError>();
    }

    #[test]
    fn source_chains_to_ternary() {
        let e = IsaError::from(TernaryError::TritChar { found: 'x' });
        assert!(Error::source(&e).is_some());
    }
}
