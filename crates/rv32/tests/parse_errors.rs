//! The assembler's error table and register-name table: every
//! rejection names its exact message and 1-based source line, and
//! every accepted register spelling resolves to its index.

use rv32::{parse_program, Reg, Rv32Error};

/// (source, line, message) for every assembly error class.
const ERRORS: &[(&str, usize, &str)] = &[
    // Unknown mnemonics, reported lowercased.
    ("nop\nfrobnicate a0\n", 2, "unknown mnemonic \"frobnicate\""),
    ("FROB a0, a1\n", 1, "unknown mnemonic \"frob\""),
    ("x:\n  y: .text\n  bogus\n", 3, "unknown mnemonic \"bogus\""),
    // Wrong operand counts.
    ("add a0, a1\n", 1, "add expects 3 operand(s), found 2"),
    ("ADD a0, a1\n", 1, "add expects 3 operand(s), found 2"),
    ("li a0\n", 1, "li expects 2 operand(s), found 1"),
    ("nop a0\n", 1, "nop expects 0 operand(s), found 1"),
    ("ret a0, a1\n", 1, "ret expects 0 operand(s), found 2"),
    (
        "sw a0, 0(sp), a1, a2\n",
        1,
        "sw expects 2 operand(s), found 4",
    ),
    ("beqz a0\n", 1, "beqz expects 2 operand(s), found 1"),
    ("jal a0, a1, a2\n", 1, "jal expects 1 or 2 operands"),
    ("jalr a0, a1, 0, 4\n", 1, "jalr operand count"),
    // Bad operands.
    ("lw a0, nope\n", 1, "expected off(base), got \"nope\""),
    ("sw a0, 4(sp\n", 1, "expected off(base), got \"4(sp\""),
    ("addi a0, a0, zz\n", 1, "bad operand \"zz\""),
    ("j nowhere\n", 1, "bad operand \"nowhere\""),
    ("lui a0, %hi(gone)\n", 1, "bad operand \"gone\""),
    ("add a0, a1, q1\n", 1, "unknown register \"q1\""),
    ("add a0, a1, x32\n", 1, "unknown register \"x32\""),
    ("nop\nmv a0, \n", 2, "unknown register \"\""),
    ("lw a0, 0(q9)\n", 1, "unknown register \"q9\""),
    // Duplicate labels, also two on one line.
    ("x: nop\nx: nop\n", 2, "label \"x\" defined twice"),
    ("a: a: nop\n", 1, "label \"a\" defined twice"),
    // Unsupported directives.
    (".globl main\n", 1, "unsupported directive .globl"),
    ("nop\n.align 2\n", 2, "unsupported directive .align"),
    // Malformed data directives.
    (".data\n.word 1,,2\n", 2, "malformed .word"),
    (".data\n.word\n", 2, "malformed .word"),
    (".data\n.word 1, nope\n", 2, "bad data value \"nope\""),
    (".data\n.zero x\n", 2, "malformed .zero"),
    (".data\n.zero -4\n", 2, "malformed .zero"),
    (".data\n.space\n", 2, "malformed .zero"),
];

#[test]
fn every_error_names_its_message_and_line() {
    for &(src, line, message) in ERRORS {
        let err = parse_program(src).expect_err(src);
        assert_eq!(
            err,
            Rv32Error::Assembly {
                line,
                message: message.into()
            },
            "{src:?}"
        );
        assert_eq!(err.to_string(), format!("line {line}: {message}"));
    }
}

#[test]
fn comments_and_case_do_not_change_the_program() {
    let plain = parse_program("li a0, 5\nloop: addi a0, a0, -1\nbnez a0, loop\nebreak\n").unwrap();
    let decorated = parse_program(
        "  LI A0, 5   # hash comment\n\
         loop: ADDI a0, A0, -1 ; semicolon comment\n\
         BNEZ a0, loop // slash comment\n\
         // a whole-line comment\n\
         EBREAK\n",
    )
    .unwrap();
    assert_eq!(plain, decorated);
    // Unicode whitespace (no-break space, em space, vertical tab)
    // separates and trims like ASCII whitespace.
    let unicode = parse_program(
        "\u{a0}li\u{2003}a0,\u{a0}5\u{b}\n\
         loop:\u{2003}addi a0,\u{b}a0, -1\n\
         bnez\u{b}a0, loop\u{3000}\n\
         ebreak\u{a0}\n",
    )
    .unwrap();
    assert_eq!(plain, unicode);
    // A lone slash is not a comment marker.
    assert!(parse_program("addi a0, a0, 1 / 2\n").is_err());
}

#[test]
fn zero_directive_rounds_bytes_up_to_words() {
    let p = parse_program(".data\na: .zero 5\nb: .space 0\nc: .word 7\n").unwrap();
    assert_eq!(p.data(), &[0, 0, 7]);
    assert_eq!(p.symbols()["b"], rv32::DATA_BASE + 8);
    assert_eq!(p.symbols()["c"], rv32::DATA_BASE + 8);
}

const ABI: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

#[test]
fn every_register_spelling_resolves() {
    for (i, name) in ABI.iter().enumerate() {
        assert_eq!(name.parse::<Reg>().unwrap().index(), i, "{name}");
        let upper = name.to_ascii_uppercase();
        assert_eq!(upper.parse::<Reg>().unwrap().index(), i, "{upper}");
        let numeric = format!("x{i}");
        assert_eq!(numeric.parse::<Reg>().unwrap().index(), i, "{numeric}");
        assert_eq!(Reg::from_index(i).unwrap().abi_name(), *name);
    }
    for (spelling, index) in [("fp", 8), ("FP", 8), ("X5", 5), ("x05", 5), ("x+7", 7)] {
        assert_eq!(
            spelling.parse::<Reg>().unwrap().index(),
            index,
            "{spelling}"
        );
    }
}

#[test]
fn bad_register_names_keep_their_error_variants() {
    assert_eq!(
        "x32".parse::<Reg>(),
        Err(Rv32Error::RegisterIndex { index: 32 })
    );
    assert_eq!(
        "X99".parse::<Reg>(),
        Err(Rv32Error::RegisterIndex { index: 99 })
    );
    for name in ["q1", "", "x", "x-1", "zeroo", "s12", "a 0", "Q1"] {
        assert_eq!(
            name.parse::<Reg>(),
            Err(Rv32Error::UnknownRegister { name: name.into() }),
            "{name:?}"
        );
    }
    assert_eq!(
        "Q1".parse::<Reg>().unwrap_err().to_string(),
        "unknown register \"Q1\""
    );
}
