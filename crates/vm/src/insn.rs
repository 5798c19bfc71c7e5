//! The virtual machine's instruction set.
//!
//! The instruction set is deliberately small and locals-based (no operand
//! stack): the contaminated collector only cares about which *objects*
//! reference which, not about expression evaluation order, and a register
//! style keeps the synthetic workloads easy to generate.  Every instruction
//! the paper instruments in the JVM has a direct counterpart here:
//!
//! | JVM instruction (paper §3.1.3) | [`Insn`] variant |
//! |---|---|
//! | `new` / `newarray` | [`Insn::New`] / [`Insn::NewArray`] |
//! | `putfield` | [`Insn::PutField`] |
//! | `putstatic` | [`Insn::PutStatic`] |
//! | `aastore` | [`Insn::ArrayStore`] |
//! | `areturn` | [`Insn::Return`] with a value |
//! | `String.intern()` (§3.2) | [`Insn::Intern`] |
//! | JNI / class-loader static references (§3.2) | [`Insn::NativeStaticRef`] |
//! | thread start (§3.3) | [`Insn::SpawnThread`] |

use crate::program::{MethodId, StaticId};
use cg_heap::ClassId;

/// Index of a local variable slot within a frame.
pub type LocalIdx = u16;

/// An operand that is either a local variable or an immediate integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Read the operand from a local variable slot.
    Local(LocalIdx),
    /// Use an immediate signed integer.
    Imm(i64),
}

/// Binary arithmetic operations over integer locals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (wrapping).
    Mul,
    /// Division (checked; dividing by zero is a VM error).
    Div,
    /// Remainder (checked).
    Rem,
    /// Bitwise exclusive or.
    Xor,
}

/// Comparison conditions for [`Insn::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition over two integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// One virtual machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    /// Allocate an instance of `class` and store its handle in `dst`.
    New {
        /// The class to instantiate; its field count comes from the program's
        /// class table.
        class: ClassId,
        /// Local receiving the new reference.
        dst: LocalIdx,
    },
    /// Allocate an array of `class` with `length` elements and store its
    /// handle in `dst`.
    NewArray {
        /// Element class (used only for accounting).
        class: ClassId,
        /// Array length.
        length: Operand,
        /// Local receiving the new reference.
        dst: LocalIdx,
    },
    /// `object.field = value` — the `putfield` barrier.
    PutField {
        /// Local holding the object written to.
        object: LocalIdx,
        /// Field index within the object.
        field: usize,
        /// Local holding the value stored.
        value: LocalIdx,
    },
    /// `dst = object.field`.
    GetField {
        /// Local holding the object read.
        object: LocalIdx,
        /// Field index within the object.
        field: usize,
        /// Local receiving the field value.
        dst: LocalIdx,
    },
    /// `static[id] = value` — the `putstatic` barrier.
    PutStatic {
        /// Which static variable is written.
        static_id: StaticId,
        /// Local holding the value stored.
        value: LocalIdx,
    },
    /// `dst = static[id]`.
    GetStatic {
        /// Which static variable is read.
        static_id: StaticId,
        /// Local receiving the static's value.
        dst: LocalIdx,
    },
    /// `array[index] = value` — array stores contaminate the whole array.
    ArrayStore {
        /// Local holding the array.
        array: LocalIdx,
        /// Element index.
        index: Operand,
        /// Local holding the value stored.
        value: LocalIdx,
    },
    /// `dst = array[index]`.
    ArrayLoad {
        /// Local holding the array.
        array: LocalIdx,
        /// Element index.
        index: Operand,
        /// Local receiving the element.
        dst: LocalIdx,
    },
    /// Copy a local to another local.
    Move {
        /// Destination local.
        dst: LocalIdx,
        /// Source local.
        src: LocalIdx,
    },
    /// Store the null reference into a local.
    LoadNull {
        /// Destination local.
        dst: LocalIdx,
    },
    /// Store an integer constant into a local.
    Const {
        /// Destination local.
        dst: LocalIdx,
        /// The constant.
        value: i64,
    },
    /// Integer arithmetic: `dst = a op b`.
    Arith {
        /// The operation.
        op: ArithOp,
        /// Destination local.
        dst: LocalIdx,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Unconditional jump to an instruction index within the same method.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional jump: if `cond(a, b)` then jump to `target`.
    Branch {
        /// The comparison.
        cond: Cond,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Target instruction index.
        target: usize,
    },
    /// Call a method, copying `args` into the callee's first locals; the
    /// callee's returned value (if any) lands in `dst`.
    Call {
        /// The callee.
        method: MethodId,
        /// Locals passed as arguments.
        args: Vec<LocalIdx>,
        /// Local receiving the return value, if the caller wants it.
        dst: Option<LocalIdx>,
    },
    /// Return from the current method, optionally passing a value to the
    /// caller.  Returning a reference is the `areturn` event the collector
    /// observes.
    Return {
        /// Local holding the returned value, if any.
        value: Option<LocalIdx>,
    },
    /// Start a new thread running `method` with the given arguments.
    SpawnThread {
        /// The thread's entry method.
        method: MethodId,
        /// Locals passed as arguments.
        args: Vec<LocalIdx>,
    },
    /// Map an object through the intern table (models `String.intern()`,
    /// §3.2): if an object was already interned under `key`, `dst` receives
    /// that object; otherwise the object in `src` is registered (making it a
    /// static reference) and copied to `dst`.
    Intern {
        /// Intern-table key (models the string's contents).
        key: u32,
        /// Local holding the candidate object.
        src: LocalIdx,
        /// Local receiving the canonical interned object.
        dst: LocalIdx,
    },
    /// Record an interpreter-internal static reference to the object in
    /// `src` (models class-loader and JNI pinning, §3.2–3.3).
    NativeStaticRef {
        /// Local holding the object that becomes statically referenced.
        src: LocalIdx,
    },
    /// Do nothing (padding / alignment in generated code).
    Nop,
    /// A [`Insn::Call`] that has been assigned a per-site inline cache slot
    /// by [`Program::fused`](crate::Program::fused).  Semantically identical to `Call`; the interpreter
    /// uses `site` to memoise the callee's frame shape so repeated calls skip
    /// the method-table lookup.
    CallCached {
        /// The callee.
        method: MethodId,
        /// Locals passed as arguments.
        args: Vec<LocalIdx>,
        /// Local receiving the return value, if the caller wants it.
        dst: Option<LocalIdx>,
        /// Index into the executor's inline-cache table.
        site: u32,
    },
}

impl Insn {
    /// The largest local index the instruction touches, if any.  Used by
    /// program validation to check `max_locals`.
    pub fn max_local(&self) -> Option<LocalIdx> {
        fn op(o: &Operand) -> Option<LocalIdx> {
            match o {
                Operand::Local(l) => Some(*l),
                Operand::Imm(_) => None,
            }
        }
        let locals: Vec<Option<LocalIdx>> = match self {
            Insn::New { dst, .. } => vec![Some(*dst)],
            Insn::NewArray { length, dst, .. } => vec![op(length), Some(*dst)],
            Insn::PutField { object, value, .. } => vec![Some(*object), Some(*value)],
            Insn::GetField { object, dst, .. } => vec![Some(*object), Some(*dst)],
            Insn::PutStatic { value, .. } => vec![Some(*value)],
            Insn::GetStatic { dst, .. } => vec![Some(*dst)],
            Insn::ArrayStore {
                array,
                index,
                value,
            } => vec![Some(*array), op(index), Some(*value)],
            Insn::ArrayLoad { array, index, dst } => vec![Some(*array), op(index), Some(*dst)],
            Insn::Move { dst, src } => vec![Some(*dst), Some(*src)],
            Insn::LoadNull { dst } => vec![Some(*dst)],
            Insn::Const { dst, .. } => vec![Some(*dst)],
            Insn::Arith { dst, a, b, .. } => vec![Some(*dst), op(a), op(b)],
            Insn::Jump { .. } | Insn::Nop => vec![],
            Insn::Branch { a, b, .. } => vec![op(a), op(b)],
            Insn::Call { args, dst, .. } | Insn::CallCached { args, dst, .. } => {
                let mut v: Vec<Option<LocalIdx>> = args.iter().map(|a| Some(*a)).collect();
                v.push(*dst);
                v
            }
            Insn::Return { value } => vec![*value],
            Insn::SpawnThread { args, .. } => args.iter().map(|a| Some(*a)).collect(),
            Insn::Intern { src, dst, .. } => vec![Some(*src), Some(*dst)],
            Insn::NativeStaticRef { src } => vec![Some(*src)],
        };
        locals.into_iter().flatten().max()
    }

    /// The branch/jump target, if the instruction transfers control.
    pub fn jump_target(&self) -> Option<usize> {
        match self {
            Insn::Jump { target } | Insn::Branch { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// The inline-cache site the instruction uses, if any.
    pub fn call_site(&self) -> Option<u32> {
        match self {
            Insn::CallCached { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// A stable small-integer index for the instruction's opcode, used by the
    /// `profile` feature's dispatch counters.  Indexes [`OPCODE_NAMES`].
    pub fn opcode_index(&self) -> usize {
        match self {
            Insn::New { .. } => 0,
            Insn::NewArray { .. } => 1,
            Insn::PutField { .. } => 2,
            Insn::GetField { .. } => 3,
            Insn::PutStatic { .. } => 4,
            Insn::GetStatic { .. } => 5,
            Insn::ArrayStore { .. } => 6,
            Insn::ArrayLoad { .. } => 7,
            Insn::Move { .. } => 8,
            Insn::LoadNull { .. } => 9,
            Insn::Const { .. } => 10,
            Insn::Arith { .. } => 11,
            Insn::Jump { .. } => 12,
            Insn::Branch { .. } => 13,
            Insn::Call { .. } => 14,
            Insn::Return { .. } => 15,
            Insn::SpawnThread { .. } => 16,
            Insn::Intern { .. } => 17,
            Insn::NativeStaticRef { .. } => 18,
            Insn::Nop => 19,
            Insn::CallCached { .. } => 20,
        }
    }
}

/// Human-readable opcode names indexed by [`Insn::opcode_index`].
pub const OPCODE_NAMES: [&str; 21] = [
    "new",
    "newarr",
    "putfield",
    "getfield",
    "putstatic",
    "getstatic",
    "arrstore",
    "arrload",
    "move",
    "null",
    "const",
    "arith",
    "jump",
    "branch",
    "call",
    "return",
    "spawn",
    "intern",
    "nativeref",
    "nop",
    "call.c",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_covers_all_orderings() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(3, 4));
        assert!(Cond::Le.eval(4, 4));
        assert!(Cond::Gt.eval(5, 4));
        assert!(Cond::Ge.eval(5, 5));
        assert!(!Cond::Lt.eval(4, 3));
        assert!(!Cond::Eq.eval(1, 2));
    }

    #[test]
    fn max_local_accounts_for_all_operands() {
        assert_eq!(
            Insn::New {
                class: ClassId::new(0),
                dst: 3
            }
            .max_local(),
            Some(3)
        );
        assert_eq!(
            Insn::PutField {
                object: 2,
                field: 0,
                value: 9
            }
            .max_local(),
            Some(9)
        );
        assert_eq!(
            Insn::Arith {
                op: ArithOp::Add,
                dst: 1,
                a: Operand::Local(5),
                b: Operand::Imm(3)
            }
            .max_local(),
            Some(5)
        );
        assert_eq!(Insn::Jump { target: 0 }.max_local(), None);
        assert_eq!(Insn::Return { value: None }.max_local(), None);
        assert_eq!(
            Insn::Call {
                method: MethodId::new(0),
                args: vec![1, 7],
                dst: Some(2)
            }
            .max_local(),
            Some(7)
        );
        assert_eq!(
            Insn::ArrayStore {
                array: 0,
                index: Operand::Local(4),
                value: 1
            }
            .max_local(),
            Some(4)
        );
    }

    #[test]
    fn jump_targets_only_for_control_flow() {
        assert_eq!(Insn::Jump { target: 7 }.jump_target(), Some(7));
        assert_eq!(
            Insn::Branch {
                cond: Cond::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 2
            }
            .jump_target(),
            Some(2)
        );
        assert_eq!(Insn::Nop.jump_target(), None);
        assert_eq!(Insn::LoadNull { dst: 0 }.jump_target(), None);
    }

    #[test]
    fn cached_calls_report_locals_and_site() {
        assert_eq!(
            Insn::CallCached {
                method: MethodId::new(0),
                args: vec![1, 7],
                dst: Some(2),
                site: 3
            }
            .max_local(),
            Some(7)
        );
        assert_eq!(
            Insn::CallCached {
                method: MethodId::new(0),
                args: vec![],
                dst: None,
                site: 3
            }
            .call_site(),
            Some(3)
        );
        assert_eq!(Insn::Nop.call_site(), None);
    }
}
