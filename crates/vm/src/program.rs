//! Programs: classes, methods and static variables.

use crate::insn::Insn;
use cg_heap::ClassId;

/// Identifier of a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// Creates a method id from a raw index.
    pub const fn new(index: u32) -> Self {
        MethodId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a static variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StaticId(u32);

impl StaticId {
    /// Creates a static id from a raw index.
    pub const fn new(index: u32) -> Self {
        StaticId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StaticId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A class definition: a name and a field count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    name: String,
    field_count: usize,
}

impl ClassDef {
    /// Creates a class definition.
    pub fn new(name: impl Into<String>, field_count: usize) -> Self {
        Self {
            name: name.into(),
            field_count,
        }
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of reference/primitive fields per instance.
    pub fn field_count(&self) -> usize {
        self.field_count
    }
}

/// A method definition: name, arity, local-slot count and bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    name: String,
    arg_count: usize,
    max_locals: usize,
    code: Vec<Insn>,
}

impl MethodDef {
    /// Creates a method definition.
    ///
    /// Arguments are copied into locals `0..arg_count` when the method is
    /// called; `max_locals` must cover both the arguments and every local the
    /// bytecode touches.
    pub fn new(
        name: impl Into<String>,
        arg_count: usize,
        max_locals: usize,
        code: Vec<Insn>,
    ) -> Self {
        Self {
            name: name.into(),
            arg_count,
            max_locals,
            code,
        }
    }

    /// Creates a method definition whose `max_locals` is derived from the
    /// code itself: one past the highest local any instruction touches, but
    /// at least `arg_count`.
    ///
    /// Program generators (the fuzzer, the workload synthesiser) build code
    /// first and rarely know the local high-water mark up front; deriving it
    /// here keeps generated methods valid by construction.
    pub fn from_code(name: impl Into<String>, arg_count: usize, code: Vec<Insn>) -> Self {
        let max_locals = code
            .iter()
            .filter_map(Insn::max_local)
            .map(|l| l as usize + 1)
            .max()
            .unwrap_or(0)
            .max(arg_count);
        Self::new(name, arg_count, max_locals, code)
    }

    /// The method name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arguments the method expects.
    pub fn arg_count(&self) -> usize {
        self.arg_count
    }

    /// Number of local variable slots.
    pub fn max_locals(&self) -> usize {
        self.max_locals
    }

    /// The method's bytecode.
    pub fn code(&self) -> &[Insn] {
        &self.code
    }
}

/// Errors found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no entry method.
    NoEntry,
    /// A method id is out of range.
    BadMethod {
        /// The offending method id.
        method: MethodId,
    },
    /// A class id used by an instruction is out of range.
    BadClass {
        /// The method containing the instruction.
        method: MethodId,
        /// The instruction index.
        pc: usize,
    },
    /// A static id used by an instruction is out of range.
    BadStatic {
        /// The method containing the instruction.
        method: MethodId,
        /// The instruction index.
        pc: usize,
    },
    /// An instruction touches a local outside `max_locals`.
    BadLocal {
        /// The method containing the instruction.
        method: MethodId,
        /// The instruction index.
        pc: usize,
    },
    /// A jump or branch targets an instruction index outside the method.
    BadJumpTarget {
        /// The method containing the instruction.
        method: MethodId,
        /// The instruction index.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// The method containing the call.
        method: MethodId,
        /// The instruction index.
        pc: usize,
        /// The callee.
        callee: MethodId,
    },
    /// A method's argument count exceeds its `max_locals`.
    ArgsExceedLocals {
        /// The offending method.
        method: MethodId,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::NoEntry => write!(f, "program has no entry method"),
            ProgramError::BadMethod { method } => write!(f, "method {method} does not exist"),
            ProgramError::BadClass { method, pc } => {
                write!(f, "unknown class referenced at {method}:{pc}")
            }
            ProgramError::BadStatic { method, pc } => {
                write!(f, "unknown static referenced at {method}:{pc}")
            }
            ProgramError::BadLocal { method, pc } => {
                write!(f, "local index out of range at {method}:{pc}")
            }
            ProgramError::BadJumpTarget { method, pc, target } => {
                write!(f, "jump target {target} out of range at {method}:{pc}")
            }
            ProgramError::BadArity { method, pc, callee } => {
                write!(
                    f,
                    "wrong argument count for call to {callee} at {method}:{pc}"
                )
            }
            ProgramError::ArgsExceedLocals { method } => {
                write!(f, "method {method} declares more arguments than locals")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete program: classes, methods, static-variable count and the entry
/// method.
///
/// # Example
///
/// ```
/// use cg_vm::{Program, ClassDef, MethodDef, Insn};
///
/// let mut p = Program::new();
/// let c = p.add_class(ClassDef::new("Pair", 2));
/// let main = p.add_method(MethodDef::new("main", 0, 1, vec![
///     Insn::New { class: c, dst: 0 },
///     Insn::Return { value: None },
/// ]));
/// p.set_entry(main);
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    classes: Vec<ClassDef>,
    methods: Vec<MethodDef>,
    static_count: usize,
    entry: Option<MethodId>,
    name: String,
}

impl Program {
    /// Creates an empty, unnamed program.
    pub fn new() -> Self {
        Self {
            classes: Vec::new(),
            methods: Vec::new(),
            static_count: 0,
            entry: None,
            name: "anonymous".to_string(),
        }
    }

    /// Creates an empty program with a name (used in reports).
    pub fn named(name: impl Into<String>) -> Self {
        let mut p = Self::new();
        p.name = name.into();
        p
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a class and returns its id.
    pub fn add_class(&mut self, class: ClassDef) -> ClassId {
        let id = ClassId::new(self.classes.len() as u32);
        self.classes.push(class);
        id
    }

    /// Adds a method and returns its id.
    pub fn add_method(&mut self, method: MethodDef) -> MethodId {
        let id = MethodId::new(self.methods.len() as u32);
        self.methods.push(method);
        id
    }

    /// Reserves a new static variable slot and returns its id.
    pub fn add_static(&mut self) -> StaticId {
        let id = StaticId::new(self.static_count as u32);
        self.static_count += 1;
        id
    }

    /// Sets the entry (main) method.
    pub fn set_entry(&mut self, method: MethodId) {
        self.entry = Some(method);
    }

    /// The entry method, if one was set.
    pub fn entry(&self) -> Option<MethodId> {
        self.entry
    }

    /// Looks up a class definition.
    pub fn class(&self, id: ClassId) -> Option<&ClassDef> {
        self.classes.get(id.index_usize())
    }

    /// Looks up a method definition.
    pub fn method(&self, id: MethodId) -> Option<&MethodDef> {
        self.methods.get(id.index())
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of static variable slots.
    pub fn static_count(&self) -> usize {
        self.static_count
    }

    /// Checks structural well-formedness: ids in range, locals within
    /// `max_locals`, jump targets within methods, call arities consistent.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let entry = self.entry.ok_or(ProgramError::NoEntry)?;
        if self.method(entry).is_none() {
            return Err(ProgramError::BadMethod { method: entry });
        }
        for (mi, method) in self.methods.iter().enumerate() {
            let mid = MethodId::new(mi as u32);
            if method.arg_count() > method.max_locals() {
                return Err(ProgramError::ArgsExceedLocals { method: mid });
            }
            for (pc, insn) in method.code().iter().enumerate() {
                if let Some(max_local) = insn.max_local() {
                    if max_local as usize >= method.max_locals() {
                        return Err(ProgramError::BadLocal { method: mid, pc });
                    }
                }
                if let Some(target) = insn.jump_target() {
                    if target >= method.code().len() {
                        return Err(ProgramError::BadJumpTarget {
                            method: mid,
                            pc,
                            target,
                        });
                    }
                }
                match insn {
                    Insn::New { class, .. } | Insn::NewArray { class, .. }
                        if self.class(*class).is_none() =>
                    {
                        return Err(ProgramError::BadClass { method: mid, pc });
                    }
                    Insn::PutStatic { static_id, .. } | Insn::GetStatic { static_id, .. }
                        if static_id.index() >= self.static_count =>
                    {
                        return Err(ProgramError::BadStatic { method: mid, pc });
                    }
                    Insn::Call {
                        method: callee,
                        args,
                        ..
                    }
                    | Insn::SpawnThread {
                        method: callee,
                        args,
                    }
                    | Insn::CallCached {
                        method: callee,
                        args,
                        ..
                    } => match self.method(*callee) {
                        None => return Err(ProgramError::BadMethod { method: *callee }),
                        Some(m) if m.arg_count() != args.len() => {
                            return Err(ProgramError::BadArity {
                                method: mid,
                                pc,
                                callee: *callee,
                            })
                        }
                        Some(_) => {}
                    },
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The highest inline-cache site id any instruction uses, if any.
    ///
    /// The executor sizes its cache table as `max_call_site() + 1`;
    /// [`Program::fused`] numbers freshly minted sites after this so
    /// programs that already carry cached calls (e.g. parsed from the fuzz
    /// corpus text format) never collide.
    pub fn max_call_site(&self) -> Option<u32> {
        self.methods
            .iter()
            .flat_map(|m| m.code().iter())
            .filter_map(Insn::call_site)
            .max()
    }

    /// Runs the inline-cache pass, returning a rewritten program and a
    /// report of what was rewritten.
    ///
    /// Every [`Insn::Call`] becomes an [`Insn::CallCached`] with a fresh
    /// inline-cache site; nothing else changes, so jump targets, frame
    /// pushes and every emitted event stay exactly where they were.
    pub fn fused(&self) -> (Program, FuseReport) {
        let mut out = self.clone();
        let mut report = FuseReport::default();
        let mut next_site = self.max_call_site().map_or(0, |s| s + 1);
        for insn in out.methods.iter_mut().flat_map(|m| m.code.iter_mut()) {
            if let Insn::Call { method, args, dst } = insn {
                *insn = Insn::CallCached {
                    method: *method,
                    args: std::mem::take(args),
                    dst: *dst,
                    site: next_site,
                };
                next_site += 1;
                report.calls_cached += 1;
            }
        }
        report.call_sites = next_site;
        (out, report)
    }
}

/// What [`Program::fused`] rewrote, for profiling and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseReport {
    /// Inline-cache table size the program needs (`max site + 1`).
    pub call_sites: u32,
    /// `Call` instructions rewritten to `CallCached`.
    pub calls_cached: usize,
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Operand;

    fn minimal_program() -> Program {
        let mut p = Program::named("test");
        let c = p.add_class(ClassDef::new("Obj", 1));
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![Insn::New { class: c, dst: 0 }, Insn::Return { value: None }],
        ));
        p.set_entry(m);
        p
    }

    #[test]
    fn ids_are_dense() {
        let mut p = Program::new();
        assert_eq!(p.add_class(ClassDef::new("A", 0)).index(), 0);
        assert_eq!(p.add_class(ClassDef::new("B", 1)).index(), 1);
        assert_eq!(p.add_static().index(), 0);
        assert_eq!(p.add_static().index(), 1);
        assert_eq!(p.class_count(), 2);
        assert_eq!(p.static_count(), 2);
    }

    #[test]
    fn minimal_program_validates() {
        let p = minimal_program();
        assert_eq!(p.name(), "test");
        assert!(p.validate().is_ok());
        assert_eq!(p.method_count(), 1);
        assert_eq!(p.class(ClassId::new(0)).unwrap().field_count(), 1);
    }

    #[test]
    fn missing_entry_is_rejected() {
        let mut p = Program::new();
        p.add_method(MethodDef::new(
            "m",
            0,
            0,
            vec![Insn::Return { value: None }],
        ));
        assert_eq!(p.validate(), Err(ProgramError::NoEntry));
    }

    #[test]
    fn bad_local_is_rejected() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 0));
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![Insn::New { class: c, dst: 5 }, Insn::Return { value: None }],
        ));
        p.set_entry(m);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BadLocal { pc: 0, .. })
        ));
    }

    #[test]
    fn bad_class_is_rejected() {
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::New {
                    class: ClassId::new(7),
                    dst: 0,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(matches!(p.validate(), Err(ProgramError::BadClass { .. })));
    }

    #[test]
    fn bad_static_is_rejected() {
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::GetStatic {
                    static_id: StaticId::new(0),
                    dst: 0,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(matches!(p.validate(), Err(ProgramError::BadStatic { .. })));
    }

    #[test]
    fn bad_jump_target_is_rejected() {
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![Insn::Jump { target: 10 }, Insn::Return { value: None }],
        ));
        p.set_entry(m);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BadJumpTarget { target: 10, .. })
        ));
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut p = Program::new();
        let callee = p.add_method(MethodDef::new(
            "callee",
            2,
            2,
            vec![Insn::Return { value: None }],
        ));
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::Const { dst: 0, value: 1 },
                Insn::Call {
                    method: callee,
                    args: vec![0],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(matches!(p.validate(), Err(ProgramError::BadArity { .. })));
    }

    #[test]
    fn unknown_callee_is_rejected() {
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            1,
            vec![
                Insn::Call {
                    method: MethodId::new(9),
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(matches!(p.validate(), Err(ProgramError::BadMethod { .. })));
    }

    #[test]
    fn args_exceeding_locals_rejected() {
        let mut p = Program::new();
        let m = p.add_method(MethodDef::new(
            "main",
            3,
            1,
            vec![Insn::Return { value: None }],
        ));
        p.set_entry(m);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ArgsExceedLocals { .. })
        ));
    }

    #[test]
    fn operand_locals_are_validated() {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Obj", 0));
        let m = p.add_method(MethodDef::new(
            "main",
            0,
            2,
            vec![
                Insn::NewArray {
                    class: c,
                    length: Operand::Local(9),
                    dst: 0,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(matches!(p.validate(), Err(ProgramError::BadLocal { .. })));
    }

    #[test]
    fn from_code_derives_max_locals() {
        let m = MethodDef::from_code(
            "derived",
            1,
            vec![
                Insn::Const { dst: 4, value: 7 },
                Insn::Arith {
                    op: crate::insn::ArithOp::Add,
                    dst: 0,
                    a: Operand::Local(4),
                    b: Operand::Imm(1),
                },
                Insn::Return { value: Some(0) },
            ],
        );
        assert_eq!(m.max_locals(), 5);
        // Arguments floor the derived count even with no code.
        let empty = MethodDef::from_code("args-only", 3, vec![Insn::Return { value: None }]);
        assert_eq!(empty.max_locals(), 3);
    }

    #[test]
    fn fusion_rewrites_calls_and_still_validates() {
        let mut p = Program::named("fuse");
        let c = p.add_class(ClassDef::new("Obj", 2));
        let callee = p.add_method(MethodDef::new(
            "callee",
            1,
            1,
            vec![Insn::Return { value: Some(0) }],
        ));
        let m = p.add_method(MethodDef::from_code(
            "main",
            0,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                Insn::GetField {
                    object: 0,
                    field: 1,
                    dst: 2,
                },
                Insn::Const { dst: 1, value: 7 },
                Insn::Call {
                    method: callee,
                    args: vec![1],
                    dst: Some(2),
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert!(p.validate().is_ok());
        let (fused, report) = p.fused();
        assert!(fused.validate().is_ok());
        assert_eq!(report.calls_cached, 1);
        assert_eq!(report.call_sites, 1);
        assert_eq!(fused.max_call_site(), Some(0));
        // Only the call changes; every other slot is untouched.
        let (before, after) = (p.method(m).unwrap().code(), fused.method(m).unwrap().code());
        assert!(matches!(after[4], Insn::CallCached { site: 0, .. }));
        for pc in (0..before.len()).filter(|&pc| pc != 4) {
            assert_eq!(after[pc], before[pc], "pc {pc}");
        }
    }

    #[test]
    fn fusion_preserves_existing_call_sites() {
        // A program that already carries a cached call (e.g. parsed from
        // corpus text) keeps its site; fresh sites are numbered after it.
        let mut p = Program::new();
        let callee = p.add_method(MethodDef::new(
            "callee",
            0,
            0,
            vec![Insn::Return { value: None }],
        ));
        let m = p.add_method(MethodDef::from_code(
            "main",
            0,
            vec![
                Insn::CallCached {
                    method: callee,
                    args: vec![],
                    dst: None,
                    site: 4,
                },
                Insn::Call {
                    method: callee,
                    args: vec![],
                    dst: None,
                },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(m);
        assert_eq!(p.max_call_site(), Some(4));
        let (fused, report) = p.fused();
        assert_eq!(report.call_sites, 6);
        assert!(matches!(
            fused.method(m).unwrap().code()[1],
            Insn::CallCached { site: 5, .. }
        ));
    }

    #[test]
    fn program_error_display() {
        assert!(ProgramError::NoEntry.to_string().contains("entry"));
        let e = ProgramError::BadJumpTarget {
            method: MethodId::new(1),
            pc: 2,
            target: 9,
        };
        assert!(e.to_string().contains("9"));
    }
}
