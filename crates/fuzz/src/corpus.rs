//! A line-based text format for programs, and the regression corpus built on
//! it.
//!
//! The workspace has no serde, so the corpus speaks a deliberately boring
//! format: one directive or instruction per line, whitespace-separated
//! fields, `#` comments.  Every [`Insn`] variant round-trips, so any program
//! the generator or shrinker produces can be committed under
//! `crates/fuzz/corpus/` and replayed by the `cg-fuzz` bin or the
//! corpus-regression test.
//!
//! ```text
//! # cg-fuzz case
//! name fuzz/store-heavy/0x2a
//! class 3 K0            # field count, then name
//! statics 2
//! method 1 main         # arg count, then name (max_locals is derived)
//!   new 0 4             # class, dst
//!   putfield 4 2 0      # object, field, value
//!   call 1 3 0 2        # method, dst (or -), then args
//!   return -            # local or -
//! entry 1
//! ```
//!
//! Operands are `l<n>` (local) or `i<n>` (immediate; `#` would collide with
//! comments).

use cg_vm::{
    ArithOp, ClassDef, ClassId, Cond, Insn, LocalIdx, MethodDef, MethodId, Operand, Program,
    StaticId,
};

/// A corpus parse error: the offending line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn op_to_string(op: &Operand) -> String {
    match op {
        Operand::Local(l) => format!("l{l}"),
        Operand::Imm(i) => format!("i{i}"),
    }
}

fn arith_name(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "add",
        ArithOp::Sub => "sub",
        ArithOp::Mul => "mul",
        ArithOp::Div => "div",
        ArithOp::Rem => "rem",
        ArithOp::Xor => "xor",
    }
}

fn cond_name(cond: Cond) -> &'static str {
    match cond {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Lt => "lt",
        Cond::Le => "le",
        Cond::Gt => "gt",
        Cond::Ge => "ge",
    }
}

/// Serialises a program into the corpus text format.
pub fn serialize(program: &Program) -> String {
    let mut out = String::from("# cg-fuzz case\n");
    out.push_str(&format!("name {}\n", program.name()));
    for i in 0..program.class_count() {
        let class = program.class(ClassId::new(i as u32)).expect("dense ids");
        out.push_str(&format!("class {} {}\n", class.field_count(), class.name()));
    }
    if program.static_count() > 0 {
        out.push_str(&format!("statics {}\n", program.static_count()));
    }
    for m in 0..program.method_count() {
        let method = program.method(MethodId::new(m as u32)).expect("dense ids");
        out.push_str(&format!(
            "method {} {}\n",
            method.arg_count(),
            method.name()
        ));
        for insn in method.code() {
            out.push_str("  ");
            out.push_str(&insn_to_string(insn));
            out.push('\n');
        }
    }
    if let Some(entry) = program.entry() {
        out.push_str(&format!("entry {}\n", entry.index()));
    }
    out
}

fn insn_to_string(insn: &Insn) -> String {
    match insn {
        Insn::New { class, dst } => format!("new {} {dst}", class.index()),
        Insn::NewArray { class, length, dst } => {
            format!("newarr {} {} {dst}", class.index(), op_to_string(length))
        }
        Insn::PutField {
            object,
            field,
            value,
        } => format!("putfield {object} {field} {value}"),
        Insn::GetField { object, field, dst } => format!("getfield {object} {field} {dst}"),
        Insn::PutStatic { static_id, value } => {
            format!("putstatic {} {value}", static_id.index())
        }
        Insn::GetStatic { static_id, dst } => format!("getstatic {} {dst}", static_id.index()),
        Insn::ArrayStore {
            array,
            index,
            value,
        } => format!("arrstore {array} {} {value}", op_to_string(index)),
        Insn::ArrayLoad { array, index, dst } => {
            format!("arrload {array} {} {dst}", op_to_string(index))
        }
        Insn::Move { dst, src } => format!("move {dst} {src}"),
        Insn::LoadNull { dst } => format!("null {dst}"),
        Insn::Const { dst, value } => format!("const {dst} {value}"),
        Insn::Arith { op, dst, a, b } => format!(
            "arith {} {dst} {} {}",
            arith_name(*op),
            op_to_string(a),
            op_to_string(b)
        ),
        Insn::Jump { target } => format!("jump {target}"),
        Insn::Branch { cond, a, b, target } => format!(
            "branch {} {} {} {target}",
            cond_name(*cond),
            op_to_string(a),
            op_to_string(b)
        ),
        Insn::Call { method, args, dst } => {
            let dst = dst.map_or("-".to_string(), |d| d.to_string());
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("call {} {dst} {}", method.index(), args.join(" "))
                .trim_end()
                .to_string()
        }
        Insn::Return { value } => {
            format!(
                "return {}",
                value.map_or("-".to_string(), |l| l.to_string())
            )
        }
        Insn::SpawnThread { method, args } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("spawn {} {}", method.index(), args.join(" "))
                .trim_end()
                .to_string()
        }
        Insn::Intern { key, src, dst } => format!("intern {key} {src} {dst}"),
        Insn::NativeStaticRef { src } => format!("nativeref {src}"),
        Insn::Nop => "nop".to_string(),
        Insn::CallCached {
            method,
            args,
            dst,
            site,
        } => {
            let dst = dst.map_or("-".to_string(), |d| d.to_string());
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            format!("call.c {} {site} {dst} {}", method.index(), args.join(" "))
                .trim_end()
                .to_string()
        }
    }
}

struct Parser<'a> {
    line: usize,
    fields: Vec<&'a str>,
    cursor: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<&'a str, ParseError> {
        let field = self
            .fields
            .get(self.cursor)
            .copied()
            .ok_or_else(|| self.err("missing field"))?;
        self.cursor += 1;
        Ok(field)
    }

    fn rest(&mut self) -> Vec<&'a str> {
        let rest = self.fields[self.cursor..].to_vec();
        self.cursor = self.fields.len();
        rest
    }

    fn usize(&mut self) -> Result<usize, ParseError> {
        let field = self.next()?;
        field
            .parse()
            .map_err(|_| self.err(format!("expected a number, got '{field}'")))
    }

    fn u32(&mut self) -> Result<u32, ParseError> {
        let field = self.next()?;
        field
            .parse()
            .map_err(|_| self.err(format!("expected a 32-bit number, got '{field}'")))
    }

    fn i64(&mut self) -> Result<i64, ParseError> {
        let field = self.next()?;
        field
            .parse()
            .map_err(|_| self.err(format!("expected an integer, got '{field}'")))
    }

    fn local(&mut self) -> Result<LocalIdx, ParseError> {
        let field = self.next()?;
        field
            .parse()
            .map_err(|_| self.err(format!("expected a local index, got '{field}'")))
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        let field = self.next()?;
        if let Some(local) = field.strip_prefix('l') {
            local
                .parse()
                .map(Operand::Local)
                .map_err(|_| self.err(format!("bad local operand '{field}'")))
        } else if let Some(imm) = field.strip_prefix('i') {
            imm.parse()
                .map(Operand::Imm)
                .map_err(|_| self.err(format!("bad immediate operand '{field}'")))
        } else {
            Err(self.err(format!("operand must be l<n> or i<n>, got '{field}'")))
        }
    }

    fn opt_local(&mut self) -> Result<Option<LocalIdx>, ParseError> {
        let field = self.next()?;
        if field == "-" {
            return Ok(None);
        }
        field
            .parse()
            .map(Some)
            .map_err(|_| self.err(format!("expected a local or '-', got '{field}'")))
    }

    fn done(&self) -> Result<(), ParseError> {
        if self.cursor == self.fields.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "trailing fields: {:?}",
                &self.fields[self.cursor..]
            )))
        }
    }
}

/// Parses a corpus-format program.
///
/// The parsed program is also structurally validated, and every `call.c`
/// site must be below its instruction count, so a committed case can never
/// crash the replayer with an out-of-range id.
///
/// # Errors
///
/// Returns the first [`ParseError`] (validation failures point at line 0).
pub fn parse(text: &str) -> Result<Program, ParseError> {
    let mut name = "corpus".to_string();
    let mut classes: Vec<ClassDef> = Vec::new();
    let mut statics = 0usize;
    // (arg_count, name, code) per method, in order.
    let mut methods: Vec<(usize, String, Vec<Insn>)> = Vec::new();
    let mut entry: Option<u32> = None;
    // (line, site) of every cached call, checked once the size is known.
    let mut sites: Vec<(usize, u32)> = Vec::new();

    for (index, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut p = Parser {
            line: index + 1,
            fields: line.split_whitespace().collect(),
            cursor: 0,
        };
        let keyword = p.next()?;
        match keyword {
            "name" => {
                name = p.rest().join(" ");
                if name.is_empty() {
                    return Err(p.err("name requires a value"));
                }
            }
            "class" => {
                let fields = p.usize()?;
                let class_name = p.next()?.to_string();
                p.done()?;
                classes.push(ClassDef::new(class_name, fields));
            }
            "statics" => {
                statics = p.usize()?;
                p.done()?;
            }
            "method" => {
                let args = p.usize()?;
                let method_name = p.next()?.to_string();
                p.done()?;
                methods.push((args, method_name, Vec::new()));
            }
            "entry" => {
                entry = Some(p.u32()?);
                p.done()?;
            }
            _ => {
                let insn = parse_insn(keyword, &mut p)?;
                p.done()?;
                sites.extend(insn.call_site().map(|site| (p.line, site)));
                methods
                    .last_mut()
                    .ok_or_else(|| p.err("instruction before any 'method'"))?
                    .2
                    .push(insn);
            }
        }
    }

    // A site sizes the interpreter's inline-cache table; capping it at the
    // program's instruction count caps the table at the program's size.
    let instructions: usize = methods.iter().map(|(_, _, code)| code.len()).sum();
    if let Some(&(line, site)) = sites
        .iter()
        .find(|&&(_, site)| site as usize >= instructions)
    {
        return Err(ParseError {
            line,
            message: format!(
                "call site {site} out of range: the program has {instructions} instructions"
            ),
        });
    }

    let mut program = Program::named(name);
    for class in classes {
        program.add_class(class);
    }
    for _ in 0..statics {
        program.add_static();
    }
    for (args, method_name, code) in methods {
        program.add_method(MethodDef::from_code(method_name, args, code));
    }
    if let Some(entry) = entry {
        program.set_entry(MethodId::new(entry));
    }
    program.validate().map_err(|e| ParseError {
        line: 0,
        message: format!("parsed program is invalid: {e}"),
    })?;
    Ok(program)
}

fn parse_call_args(p: &mut Parser<'_>) -> Result<Vec<LocalIdx>, ParseError> {
    p.rest()
        .into_iter()
        .map(|a| {
            a.parse().map_err(|_| ParseError {
                line: p.line,
                message: format!("bad call argument '{a}'"),
            })
        })
        .collect()
}

fn parse_insn(keyword: &str, p: &mut Parser<'_>) -> Result<Insn, ParseError> {
    let insn = match keyword {
        "new" => Insn::New {
            class: ClassId::new(p.u32()?),
            dst: p.local()?,
        },
        "newarr" => Insn::NewArray {
            class: ClassId::new(p.u32()?),
            length: p.operand()?,
            dst: p.local()?,
        },
        "putfield" => Insn::PutField {
            object: p.local()?,
            field: p.usize()?,
            value: p.local()?,
        },
        "getfield" => Insn::GetField {
            object: p.local()?,
            field: p.usize()?,
            dst: p.local()?,
        },
        "putstatic" => Insn::PutStatic {
            static_id: StaticId::new(p.u32()?),
            value: p.local()?,
        },
        "getstatic" => Insn::GetStatic {
            static_id: StaticId::new(p.u32()?),
            dst: p.local()?,
        },
        "arrstore" => Insn::ArrayStore {
            array: p.local()?,
            index: p.operand()?,
            value: p.local()?,
        },
        "arrload" => Insn::ArrayLoad {
            array: p.local()?,
            index: p.operand()?,
            dst: p.local()?,
        },
        "move" => Insn::Move {
            dst: p.local()?,
            src: p.local()?,
        },
        "null" => Insn::LoadNull { dst: p.local()? },
        "const" => Insn::Const {
            dst: p.local()?,
            value: p.i64()?,
        },
        "arith" => {
            let op = match p.next()? {
                "add" => ArithOp::Add,
                "sub" => ArithOp::Sub,
                "mul" => ArithOp::Mul,
                "div" => ArithOp::Div,
                "rem" => ArithOp::Rem,
                "xor" => ArithOp::Xor,
                other => return Err(p.err(format!("unknown arith op '{other}'"))),
            };
            Insn::Arith {
                op,
                dst: p.local()?,
                a: p.operand()?,
                b: p.operand()?,
            }
        }
        "jump" => Insn::Jump { target: p.usize()? },
        "branch" => {
            let cond = match p.next()? {
                "eq" => Cond::Eq,
                "ne" => Cond::Ne,
                "lt" => Cond::Lt,
                "le" => Cond::Le,
                "gt" => Cond::Gt,
                "ge" => Cond::Ge,
                other => return Err(p.err(format!("unknown condition '{other}'"))),
            };
            Insn::Branch {
                cond,
                a: p.operand()?,
                b: p.operand()?,
                target: p.usize()?,
            }
        }
        "call" => {
            let method = MethodId::new(p.u32()?);
            let dst = p.opt_local()?;
            Insn::Call {
                method,
                args: parse_call_args(p)?,
                dst,
            }
        }
        "return" => Insn::Return {
            value: p.opt_local()?,
        },
        "spawn" => {
            let method = MethodId::new(p.u32()?);
            let args: Result<Vec<LocalIdx>, ParseError> = p
                .rest()
                .into_iter()
                .map(|a| {
                    a.parse().map_err(|_| ParseError {
                        line: p.line,
                        message: format!("bad spawn argument '{a}'"),
                    })
                })
                .collect();
            Insn::SpawnThread {
                method,
                args: args?,
            }
        }
        "intern" => Insn::Intern {
            key: p.u32()?,
            src: p.local()?,
            dst: p.local()?,
        },
        "nativeref" => Insn::NativeStaticRef { src: p.local()? },
        "nop" => Insn::Nop,
        "call.c" => {
            let method = MethodId::new(p.u32()?);
            let site = p.u32()?;
            let dst = p.opt_local()?;
            Insn::CallCached {
                method,
                args: parse_call_args(p)?,
                dst,
                site,
            }
        }
        other => return Err(p.err(format!("unknown instruction '{other}'"))),
    };
    Ok(insn)
}

/// Total instruction count of a program (the shrinker's size metric and the
/// fixture budget in the acceptance criteria).
pub fn instruction_count(program: &Program) -> usize {
    (0..program.method_count())
        .map(|m| {
            program
                .method(MethodId::new(m as u32))
                .expect("dense ids")
                .code()
                .len()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenProfile};
    use cg_vm::{NoopCollector, Vm, VmConfig};

    #[test]
    fn generated_programs_round_trip() {
        for profile in GenProfile::all() {
            for seed in 0..10u64 {
                let program = generate(seed, profile);
                let text = serialize(&program);
                let parsed = parse(&text).unwrap_or_else(|e| {
                    panic!("{}/{seed}: parse failed: {e}\n{text}", profile.name)
                });
                assert_eq!(parsed, program, "{}/{seed}", profile.name);
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# header\nname t  # trailing\nclass 1 K0\nmethod 0 main\n  new 0 0\n  return -\nentry 0\n";
        let program = parse(text).expect("parses");
        assert_eq!(program.name(), "t");
        assert_eq!(instruction_count(&program), 2);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse("name t\nclass one K0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("number"));
        let err = parse("  new 0 0\n").unwrap_err();
        assert!(err.message.contains("before any 'method'"));
    }

    #[test]
    fn invalid_programs_are_rejected_at_parse_time() {
        // Class 7 does not exist: validation catches it.
        let err = parse("name t\nclass 1 K0\nmethod 0 main\n  new 7 0\n  return -\nentry 0\n")
            .unwrap_err();
        assert!(err.message.contains("invalid"));
    }

    #[test]
    fn every_insn_variant_round_trips() {
        let text = "\
name all-insns
class 2 K0
statics 1
method 0 helper
  return -
method 0 main
  new 0 0
  newarr 0 i3 1
  newarr 0 l2 1
  const 2 5
  putfield 0 1 2
  getfield 0 0 3
  putstatic 0 0
  getstatic 0 4
  arrstore 1 i0 0
  arrload 1 i0 3
  move 5 0
  null 6
  arith div 2 l2 i3
  jump 15
  branch le i1 i2 16
  call 0 -
  call 0 7
  spawn 0
  intern 3 0 7
  nativeref 0
  nop
  call.c 0 1 -
  call.c 0 2 7
  return 2
entry 1
";
        let program = parse(text).expect("parses");
        let reserialized = serialize(&program);
        let reparsed = parse(&reserialized).expect("round trip");
        assert_eq!(reparsed, program);
        assert_eq!(instruction_count(&program), 24 + 1);
    }

    #[test]
    fn out_of_range_call_sites_are_refused_with_their_line() {
        // The inline-cache table is sized from the largest site, so a site
        // the parser lets through reaches `Vm::new` unchecked.
        let case = |site: &str| {
            format!(
                "name t\nmethod 0 leaf\n  return -\nmethod 0 main\n  call.c 0 {site} -\n  return -\nentry 1\n"
            )
        };
        for (site, accepted) in [
            ("4294967295", false),
            ("3000000000", false),
            ("4294967296", false),
            ("2", true),
        ] {
            match parse(&case(site)) {
                Ok(program) => {
                    let outcome = Vm::new(program, VmConfig::small(), NoopCollector::new()).run();
                    assert!(accepted, "site {site} was accepted");
                    outcome.expect("a program with an in-range site runs");
                }
                Err(e) => {
                    assert!(!accepted, "site {site} was refused: {e}");
                    assert_eq!(e.line, 5, "site {site}: {e}");
                }
            }
        }
    }
}
