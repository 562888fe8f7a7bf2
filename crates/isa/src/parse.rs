//! Textual assembly: a parser for `.s`-style sources and a program-level
//! disassembler.
//!
//! The builder API ([`crate::asm::Asm`]) is the primary way workloads are
//! written, but a textual format makes the toolchain complete: programs can
//! be dumped, hand-edited and reloaded, and the disassembler gives
//! human-readable views of fetched instruction streams.
//!
//! Syntax:
//!
//! ```text
//! ; comments run to end of line            # or with '#'
//! .name my_program                          ; program name
//! .mem 1048576                              ; data memory size
//! .data 0x100                               ; set data cursor
//! .u64 1 2 0xdeadbeef                       ; 64-bit little-endian words
//! .bytes 0xde 0xad 7                        ; raw bytes
//!
//! start:                                    ; labels end with ':'
//!     li   r1, 10
//!     addi r2, r1, -5
//!     ld   r3, 8(r2)                        ; memory operands: imm(reg)
//!     st   r3, 0(r2)
//!     beq  r1, r2, start
//!     jal  r1, start
//!     jalr r2, r1, 0
//!     out  r1
//!     halt
//! ```

use crate::inst::{AluOp, BrCond, Inst};
use crate::program::{Program, DEFAULT_MEM_SIZE, MAX_MEM_SIZE};
use crate::reg::{ArchReg, NUM_ARCH_REGS};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with the 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<ArchReg, ParseError> {
    let idx: usize = tok
        .strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| err(line, format!("expected register, got `{tok}`")))?;
    if idx >= NUM_ARCH_REGS {
        return Err(err(line, format!("register out of range: `{tok}`")));
    }
    Ok(ArchReg::new(idx))
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, ParseError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let magnitude = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    } else {
        body.parse::<u64>()
            .map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    };
    // Positive magnitudes up to u64::MAX are accepted as the i64 bit
    // pattern (so `0xffff_ffff_ffff_ffff` works); negative ones up to
    // 2^63, so `-9223372036854775808` (i64::MIN) round-trips without the
    // negation overflowing.
    if neg {
        if magnitude > 1u64 << 63 {
            return Err(err(line, format!("immediate out of range `{tok}`")));
        }
        Ok((magnitude as i64).wrapping_neg())
    } else {
        Ok(magnitude as i64)
    }
}

/// Splits `imm(reg)` memory-operand syntax.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(i64, ArchReg), ParseError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected imm(reg), got `{tok}`")))?;
    if !tok.ends_with(')') {
        return Err(err(line, format!("unterminated memory operand `{tok}`")));
    }
    let imm = if open == 0 {
        0
    } else {
        parse_imm(&tok[..open], line)?
    };
    let reg = parse_reg(&tok[open + 1..tok.len() - 1], line)?;
    Ok((imm, reg))
}

const ALU_R: [(&str, AluOp); 13] = [
    ("add", AluOp::Add),
    ("sub", AluOp::Sub),
    ("mul", AluOp::Mul),
    ("divu", AluOp::Divu),
    ("remu", AluOp::Remu),
    ("and", AluOp::And),
    ("or", AluOp::Or),
    ("xor", AluOp::Xor),
    ("sll", AluOp::Sll),
    ("srl", AluOp::Srl),
    ("sra", AluOp::Sra),
    ("slt", AluOp::Slt),
    ("sltu", AluOp::Sltu),
];

const ALU_I: [(&str, AluOp); 13] = [
    ("addi", AluOp::Add),
    ("subi", AluOp::Sub),
    ("muli", AluOp::Mul),
    ("divui", AluOp::Divu),
    ("remui", AluOp::Remu),
    ("andi", AluOp::And),
    ("ori", AluOp::Or),
    ("xori", AluOp::Xor),
    ("slli", AluOp::Sll),
    ("srli", AluOp::Srl),
    ("srai", AluOp::Sra),
    ("slti", AluOp::Slt),
    ("sltiu", AluOp::Sltu),
];

const BRANCHES: [(&str, BrCond); 6] = [
    ("beq", BrCond::Eq),
    ("bne", BrCond::Ne),
    ("blt", BrCond::Lt),
    ("bge", BrCond::Ge),
    ("bltu", BrCond::Ltu),
    ("bgeu", BrCond::Geu),
];

/// Parses a textual assembly source into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for any syntax
/// problem, unknown mnemonic, bad operand or undefined label, for a
/// `.mem` size outside `1..=`[`MAX_MEM_SIZE`], for a data cursor that
/// overflows, and for a `.u64`/`.bytes` image not wholly inside memory —
/// so a parsed program always builds its memory.
pub fn parse_asm(source: &str) -> Result<Program, ParseError> {
    struct PendingTarget {
        at: usize,
        label: String,
        line: usize,
    }
    let mut insts: Vec<Inst> = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut fixups: Vec<PendingTarget> = Vec::new();
    let mut image: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut image_lines: Vec<usize> = Vec::new();
    let mut mem_size = DEFAULT_MEM_SIZE;
    let mut name = String::new();
    let mut data_cursor: u64 = 0;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split([';', '#']).next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        // Label definitions (possibly followed by an instruction).
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if labels.insert(label.to_string(), insts.len()).is_some() {
                return Err(err(line, format!("label `{label}` redefined")));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let mut parts = rest.split_whitespace();
        let mnemonic = parts.next().expect("non-empty");
        let operands: Vec<String> = parts
            .collect::<Vec<_>>()
            .join(" ")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let nops = operands.len();
        let want = |n: usize| -> Result<(), ParseError> {
            if nops == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("`{mnemonic}` takes {n} operands, got {nops}"),
                ))
            }
        };

        // Directives.
        match mnemonic {
            ".name" => {
                name = rest[".name".len()..].trim().to_string();
                continue;
            }
            ".mem" => {
                want(1)?;
                let size = parse_imm(&operands[0], line)?;
                if !(1..=MAX_MEM_SIZE as i64).contains(&size) {
                    return Err(err(
                        line,
                        format!("memory size {size} not in 1..={MAX_MEM_SIZE}"),
                    ));
                }
                mem_size = size as usize;
                continue;
            }
            ".data" => {
                want(1)?;
                data_cursor = parse_imm(&operands[0], line)? as u64;
                continue;
            }
            ".u64" | ".bytes" => {
                let mut bytes = Vec::new();
                for tok in rest[mnemonic.len()..].split_whitespace() {
                    let v = parse_imm(tok, line)?;
                    if mnemonic == ".u64" {
                        bytes.extend_from_slice(&(v as u64).to_le_bytes());
                    } else if (0..=255).contains(&v) {
                        bytes.push(v as u8);
                    } else {
                        return Err(err(line, format!("byte out of range: `{tok}`")));
                    }
                }
                let start = data_cursor;
                data_cursor = data_cursor
                    .checked_add(bytes.len() as u64)
                    .ok_or_else(|| err(line, "data cursor overflows"))?;
                image.push((start, bytes));
                image_lines.push(line);
                continue;
            }
            _ => {}
        }

        // Instructions.
        let inst = if let Some(&(_, op)) = ALU_R.iter().find(|(m, _)| *m == mnemonic) {
            want(3)?;
            Inst::Alu {
                op,
                rd: parse_reg(&operands[0], line)?,
                rs1: parse_reg(&operands[1], line)?,
                rs2: parse_reg(&operands[2], line)?,
            }
        } else if let Some(&(_, op)) = ALU_I.iter().find(|(m, _)| *m == mnemonic) {
            want(3)?;
            Inst::AluI {
                op,
                rd: parse_reg(&operands[0], line)?,
                rs1: parse_reg(&operands[1], line)?,
                imm: parse_imm(&operands[2], line)?,
            }
        } else if let Some(&(_, cond)) = BRANCHES.iter().find(|(m, _)| *m == mnemonic) {
            want(3)?;
            fixups.push(PendingTarget {
                at: insts.len(),
                label: operands[2].clone(),
                line,
            });
            Inst::Br {
                cond,
                rs1: parse_reg(&operands[0], line)?,
                rs2: parse_reg(&operands[1], line)?,
                target: 0,
            }
        } else {
            match mnemonic {
                "li" => {
                    want(2)?;
                    Inst::Li {
                        rd: parse_reg(&operands[0], line)?,
                        imm: parse_imm(&operands[1], line)?,
                    }
                }
                "mv" => {
                    want(2)?;
                    Inst::AluI {
                        op: AluOp::Add,
                        rd: parse_reg(&operands[0], line)?,
                        rs1: parse_reg(&operands[1], line)?,
                        imm: 0,
                    }
                }
                "ld" | "ldw" | "ldb" => {
                    want(2)?;
                    let rd = parse_reg(&operands[0], line)?;
                    let (imm, rs1) = parse_mem_operand(&operands[1], line)?;
                    match mnemonic {
                        "ld" => Inst::Ld { rd, rs1, imm },
                        "ldw" => Inst::Ldw { rd, rs1, imm },
                        _ => Inst::Ldb { rd, rs1, imm },
                    }
                }
                "st" | "stw" | "stb" => {
                    want(2)?;
                    let rs2 = parse_reg(&operands[0], line)?;
                    let (imm, rs1) = parse_mem_operand(&operands[1], line)?;
                    match mnemonic {
                        "st" => Inst::St { rs1, rs2, imm },
                        "stw" => Inst::Stw { rs1, rs2, imm },
                        _ => Inst::Stb { rs1, rs2, imm },
                    }
                }
                "jal" => {
                    want(2)?;
                    fixups.push(PendingTarget {
                        at: insts.len(),
                        label: operands[1].clone(),
                        line,
                    });
                    Inst::Jal {
                        rd: parse_reg(&operands[0], line)?,
                        target: 0,
                    }
                }
                "j" => {
                    want(1)?;
                    fixups.push(PendingTarget {
                        at: insts.len(),
                        label: operands[0].clone(),
                        line,
                    });
                    let zero = ArchReg::new(0);
                    Inst::Br {
                        cond: BrCond::Eq,
                        rs1: zero,
                        rs2: zero,
                        target: 0,
                    }
                }
                "jalr" => {
                    want(3)?;
                    Inst::Jalr {
                        rd: parse_reg(&operands[0], line)?,
                        rs1: parse_reg(&operands[1], line)?,
                        imm: parse_imm(&operands[2], line)?,
                    }
                }
                "out" => {
                    want(1)?;
                    Inst::Out {
                        rs1: parse_reg(&operands[0], line)?,
                    }
                }
                "halt" => {
                    want(0)?;
                    Inst::Halt
                }
                "nop" => {
                    want(0)?;
                    Inst::Nop
                }
                other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
            }
        };
        insts.push(inst);
    }

    for f in fixups {
        // Numeric targets are allowed alongside labels (the disassembler
        // emits labels, but hand-written sources may jump by index).
        let pc = match labels.get(&f.label) {
            Some(&pc) => pc,
            None => parse_imm(&f.label, f.line)
                .ok()
                .filter(|&v| v >= 0 && (v as usize) <= insts.len())
                .map(|v| v as usize)
                .ok_or_else(|| err(f.line, format!("undefined label `{}`", f.label)))?,
        };
        match &mut insts[f.at] {
            Inst::Br { target, .. } | Inst::Jal { target, .. } => *target = pc,
            other => unreachable!("fixup on non-control {other}"),
        }
    }

    // Checked once `.mem` is final: it may follow the data directives.
    for ((addr, bytes), &line) in image.iter().zip(&image_lines) {
        let len = bytes.len();
        if addr + len as u64 > mem_size as u64 {
            let msg = format!("{len} bytes at {addr:#x} lie outside the {mem_size}-byte memory");
            return Err(err(line, msg));
        }
    }

    Ok(Program {
        insts,
        image,
        mem_size,
        name,
    })
}

/// Disassembles a program into parseable text, with generated labels
/// (`L<pc>:`) at every branch/jump target.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut targets: Vec<usize> = program
        .insts
        .iter()
        .filter_map(|i| match *i {
            Inst::Br { target, .. } | Inst::Jal { target, .. } => Some(target),
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let label_of = |pc: usize| format!("L{pc}");

    let mut s = String::new();
    if !program.name.is_empty() {
        let _ = writeln!(s, ".name {}", program.name);
    }
    if program.mem_size != DEFAULT_MEM_SIZE {
        let _ = writeln!(s, ".mem {}", program.mem_size);
    }
    for (addr, bytes) in &program.image {
        let _ = writeln!(s, ".data {addr:#x}");
        let _ = write!(s, ".bytes");
        for b in bytes {
            let _ = write!(s, " {b:#04x}");
        }
        let _ = writeln!(s);
    }
    for (pc, inst) in program.insts.iter().enumerate() {
        if targets.binary_search(&pc).is_ok() {
            let _ = writeln!(s, "{}:", label_of(pc));
        }
        let text = match *inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let m = ALU_R.iter().find(|(_, o)| *o == op).expect("known op").0;
                format!("{m} {rd}, {rs1}, {rs2}")
            }
            Inst::AluI { op, rd, rs1, imm } => {
                let m = ALU_I.iter().find(|(_, o)| *o == op).expect("known op").0;
                format!("{m} {rd}, {rs1}, {imm}")
            }
            Inst::Li { rd, imm } => format!("li {rd}, {imm}"),
            Inst::Ld { rd, rs1, imm } => format!("ld {rd}, {imm}({rs1})"),
            Inst::Ldw { rd, rs1, imm } => format!("ldw {rd}, {imm}({rs1})"),
            Inst::Ldb { rd, rs1, imm } => format!("ldb {rd}, {imm}({rs1})"),
            Inst::St { rs1, rs2, imm } => format!("st {rs2}, {imm}({rs1})"),
            Inst::Stw { rs1, rs2, imm } => format!("stw {rs2}, {imm}({rs1})"),
            Inst::Stb { rs1, rs2, imm } => format!("stb {rs2}, {imm}({rs1})"),
            Inst::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let m = BRANCHES
                    .iter()
                    .find(|(_, c)| *c == cond)
                    .expect("known cond")
                    .0;
                format!("{m} {rs1}, {rs2}, {}", label_of(target))
            }
            Inst::Jal { rd, target } => format!("jal {rd}, {}", label_of(target)),
            Inst::Jalr { rd, rs1, imm } => format!("jalr {rd}, {rs1}, {imm}"),
            Inst::Out { rs1 } => format!("out {rs1}"),
            Inst::Halt => "halt".to_string(),
            Inst::Nop => "nop".to_string(),
        };
        let _ = writeln!(s, "    {text}");
    }
    // A trailing label for end-of-program targets.
    if targets.binary_search(&program.insts.len()).is_ok() {
        let _ = writeln!(s, "{}:", label_of(program.insts.len()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::{Emulator, StopReason};

    #[test]
    fn parse_and_run_a_program() {
        let src = r#"
            ; triangular numbers
            .name tri
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            bne r2, r0, loop
            out r1
            halt
        "#;
        let p = parse_asm(src).expect("parses");
        assert_eq!(p.name, "tri");
        let res = Emulator::new(&p).run(1000);
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(res.output, vec![55]);
    }

    #[test]
    fn data_directives() {
        let src = r#"
            .data 0x40
            .u64 41 0x2a
            .bytes 0xff 1
            li r1, 0x40
            ld r2, 8(r1)
            out r2
            ldb r3, 16(r1)
            out r3
            halt
        "#;
        let p = parse_asm(src).expect("parses");
        let res = Emulator::new(&p).run(100);
        assert_eq!(res.output, vec![0x2a, 0xff]);
    }

    #[test]
    fn memory_operand_forms() {
        let p = parse_asm("ld r1, (r2)\nst r1, -8(r3)\nhalt").expect("parses");
        assert_eq!(
            p.insts[0],
            Inst::Ld {
                rd: ArchReg::new(1),
                rs1: ArchReg::new(2),
                imm: 0
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::St {
                rs1: ArchReg::new(3),
                rs2: ArchReg::new(1),
                imm: -8
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_asm("nop\nbogus r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = parse_asm("li r99, 0").unwrap_err();
        assert!(e.message.contains("out of range"));

        let e = parse_asm("beq r1, r2, nowhere").unwrap_err();
        assert!(e.message.contains("undefined label"));

        let e = parse_asm("add r1, r2").unwrap_err();
        assert!(e.message.contains("3 operands"));
    }

    #[test]
    fn sources_that_cannot_build_their_memory_are_rejected() {
        for (src, line, what) in [
            (".data 0x200000\n.u64 1\nhalt", 2, "outside"),
            (".mem 16\n.u64 1 2 3\nhalt", 2, "outside"),
            (".mem -1\nhalt", 1, "memory size"),
            (".data -8\n.u64 1\nhalt", 2, "overflows"),
            // Never built: the parser alone must refuse a 64 GiB memory.
            (".mem 0x1000000000\nhalt", 1, "memory size"),
        ] {
            let e = parse_asm(src).expect_err(src);
            assert_eq!(e.line, line, "{src}: {e}");
            assert!(e.message.contains(what), "{src}: {e}");
        }
        // An image that ends exactly at the end of memory still builds,
        // whichever order `.mem` and the data come in.
        for src in [".mem 16\n.u64 0 1\nhalt", ".data 8\n.u64 1\n.mem 16\nhalt"] {
            let p = parse_asm(src).expect(src);
            assert_eq!(p.build_memory().read_image(8, 8), 1u64.to_le_bytes());
        }
    }

    #[test]
    fn numeric_branch_targets_allowed() {
        let p = parse_asm("nop\nbeq r0, r0, 0\nhalt").expect("parses");
        assert_eq!(
            p.insts[1],
            Inst::Br {
                cond: BrCond::Eq,
                rs1: ArchReg::new(0),
                rs2: ArchReg::new(0),
                target: 0
            }
        );
    }

    #[test]
    fn disassemble_then_reparse_is_identity() {
        // Round-trip every workload program through text.
        {
            let w = crate::asm::Asm::new()
                .li(ArchReg::new(1), 7)
                .out(ArchReg::new(1))
                .halt()
                .clone();
            let p = w.finish();
            let text = disassemble(&p);
            let q = parse_asm(&text).expect("reparses");
            assert_eq!(p.insts, q.insts);
        }
    }

    #[test]
    fn alu_immediate_mnemonics_round_trip() {
        // Fuzz regression: `subi`, `divui` and `remui` were missing from
        // the mnemonic table, so disassembling an `AluI` carrying those
        // ops panicked and the emitted text could not be reparsed.
        for op in [AluOp::Sub, AluOp::Divu, AluOp::Remu] {
            let p = Program::from_insts(vec![Inst::AluI {
                op,
                rd: ArchReg::new(1),
                rs1: ArchReg::new(2),
                imm: -3,
            }]);
            let text = disassemble(&p);
            let q = parse_asm(&text).expect("reparses");
            assert_eq!(p.insts, q.insts, "{op:?}");
        }
    }

    #[test]
    fn extreme_immediates_round_trip() {
        // Fuzz regression: `-9223372036854775808` (i64::MIN) was rejected
        // because the magnitude was parsed into i64 before negation, and
        // the hex spelling would have panicked on `-i64::MIN`.
        for (src, want) in [
            ("li r1, -9223372036854775808", i64::MIN),
            ("li r1, -0x8000000000000000", i64::MIN),
            ("li r1, 9223372036854775807", i64::MAX),
            ("li r1, 0xffffffffffffffff", -1),
        ] {
            let p = parse_asm(src).expect(src);
            assert_eq!(
                p.insts[0],
                Inst::Li {
                    rd: ArchReg::new(1),
                    imm: want
                },
                "{src}"
            );
        }
        // One past i64::MIN must be a diagnostic, not a panic.
        let e = parse_asm("li r1, -9223372036854775809").unwrap_err();
        assert!(e.message.contains("out of range") || e.message.contains("immediate"));
        // Round-trip i64::MIN through the disassembler too.
        let p = parse_asm("li r1, -9223372036854775808").unwrap();
        let q = parse_asm(&disassemble(&p)).expect("reparses");
        assert_eq!(p.insts, q.insts);
    }

    #[test]
    fn label_and_inline_instruction() {
        let p = parse_asm("start: nop\nj start").expect("parses");
        assert_eq!(p.insts.len(), 2);
        assert_eq!(
            p.insts[1],
            Inst::Br {
                cond: BrCond::Eq,
                rs1: ArchReg::new(0),
                rs2: ArchReg::new(0),
                target: 0
            }
        );
    }
}
