//! Minimising failing programs.
//!
//! The shrinker is a delta-debugging loop over three deletion passes, each
//! re-checked against the oracle so the minimised program still fails **the
//! same way** (same [`CheckFailure::class`](crate::oracle::CheckFailure)):
//!
//! 1. **Thread deletion** — `SpawnThread` sites become `Nop`s.
//! 2. **Frame deletion** — `Call` sites become `Nop`s (the callee's whole
//!    subtree of frames disappears).
//! 3. **Instruction deletion** — per method, chunks of halving size are
//!    replaced by `Nop`s.
//!
//! Replacing with `Nop` keeps every jump target stable, so candidates are
//! always structurally valid; a candidate that breaks the program
//! *semantically* (a deleted definition makes the baseline run fail) is
//! rejected because its failure class changes to `invalid-program`.  After
//! the passes reach a fixed point, a **compaction** step actually deletes
//! the `Nop`s (remapping jump targets) and drops methods unreachable from
//! the entry (remapping call targets), which is what gets the fixture under
//! its instruction budget.

use cg_vm::{Insn, MethodDef, MethodId, Program};

use crate::corpus::instruction_count;

/// An editable copy of a program (the `Program` API is append-only).
#[derive(Debug, Clone)]
struct Editable {
    name: String,
    classes: Vec<(String, usize)>,
    statics: usize,
    methods: Vec<(String, usize, Vec<Insn>)>,
    entry: usize,
}

impl Editable {
    fn from_program(program: &Program) -> Self {
        let classes = (0..program.class_count())
            .map(|i| {
                let c = program
                    .class(cg_vm::ClassId::new(i as u32))
                    .expect("dense ids");
                (c.name().to_string(), c.field_count())
            })
            .collect();
        let methods = (0..program.method_count())
            .map(|i| {
                let m = program.method(MethodId::new(i as u32)).expect("dense ids");
                (m.name().to_string(), m.arg_count(), m.code().to_vec())
            })
            .collect();
        Self {
            name: program.name().to_string(),
            classes,
            statics: program.static_count(),
            methods,
            entry: program
                .entry()
                .expect("shrunk programs have an entry")
                .index(),
        }
    }

    fn build(&self) -> Program {
        let mut program = Program::named(self.name.clone());
        for (name, fields) in &self.classes {
            program.add_class(cg_vm::ClassDef::new(name.clone(), *fields));
        }
        for _ in 0..self.statics {
            program.add_static();
        }
        for (name, args, code) in &self.methods {
            program.add_method(MethodDef::from_code(name.clone(), *args, code.clone()));
        }
        program.set_entry(MethodId::new(self.entry as u32));
        program
    }
}

/// What a shrink accomplished.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimised program (still failing with the original class).
    pub program: Program,
    /// The failure class being preserved.
    pub class: String,
    /// Oracle invocations spent.
    pub attempts: usize,
    /// Instructions before shrinking.
    pub original_instructions: usize,
    /// Instructions after shrinking.
    pub final_instructions: usize,
}

/// Minimises `program` while `check` keeps failing with the same class.
///
/// `check` runs the oracle and returns the failure class, or `None` if the
/// candidate passes.  Returns `None` if the input program does not fail at
/// all (nothing to shrink).
pub fn shrink(
    program: &Program,
    mut check: impl FnMut(&Program) -> Option<String>,
) -> Option<ShrinkOutcome> {
    let class = check(program)?;
    let mut attempts = 1usize;
    let mut current = Editable::from_program(program);
    let original_instructions = instruction_count(program);

    // Accepts `candidate` if it still fails the same way.
    let mut accept = |candidate: &Editable, attempts: &mut usize| -> bool {
        let built = candidate.build();
        if built.validate().is_err() {
            return false;
        }
        *attempts += 1;
        check(&built).as_deref() == Some(class.as_str())
    };

    const MAX_ROUNDS: usize = 8;
    for _ in 0..MAX_ROUNDS {
        let mut progressed = false;

        // Pass 1 + 2: thread and frame deletion, one site at a time.
        for pred in [
            (|i: &Insn| matches!(i, Insn::SpawnThread { .. })) as fn(&Insn) -> bool,
            (|i: &Insn| matches!(i, Insn::Call { .. } | Insn::CallCached { .. }))
                as fn(&Insn) -> bool,
        ] {
            for m in 0..current.methods.len() {
                for pc in 0..current.methods[m].2.len() {
                    if !pred(&current.methods[m].2[pc]) {
                        continue;
                    }
                    let mut candidate = current.clone();
                    candidate.methods[m].2[pc] = Insn::Nop;
                    if accept(&candidate, &mut attempts) {
                        current = candidate;
                        progressed = true;
                    }
                }
            }
        }

        // Pass 3: per-method chunked instruction deletion.
        for m in 0..current.methods.len() {
            let len = current.methods[m].2.len();
            if len == 0 {
                continue;
            }
            let mut chunk = (len / 2).max(1);
            loop {
                let mut start = 0;
                while start < current.methods[m].2.len() {
                    let end = (start + chunk).min(current.methods[m].2.len());
                    let all_nops = current.methods[m].2[start..end]
                        .iter()
                        .all(|i| matches!(i, Insn::Nop));
                    if !all_nops {
                        let mut candidate = current.clone();
                        for insn in &mut candidate.methods[m].2[start..end] {
                            *insn = Insn::Nop;
                        }
                        if accept(&candidate, &mut attempts) {
                            current = candidate;
                            progressed = true;
                        }
                    }
                    start = end;
                }
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }

        // Compaction: actually delete the Nops and unreachable methods.
        let compacted = compact(&current);
        if accept(&compacted, &mut attempts) {
            if instruction_count(&compacted.build()) < instruction_count(&current.build()) {
                progressed = true;
            }
            current = compacted;
        }

        if !progressed {
            break;
        }
    }

    let program = current.build();
    let final_instructions = instruction_count(&program);
    Some(ShrinkOutcome {
        program,
        class,
        attempts,
        original_instructions,
        final_instructions,
    })
}

/// Deletes `Nop`s (remapping jump targets) and methods unreachable from the
/// entry (remapping call targets).  Semantics-preserving: a jump *into* a
/// run of `Nop`s lands on the next surviving instruction, and falling off
/// the shortened end behaves like the appended bare `return`.
fn compact(editable: &Editable) -> Editable {
    // Method reachability over Call/SpawnThread edges.
    let mut reachable = vec![false; editable.methods.len()];
    let mut worklist = vec![editable.entry];
    while let Some(m) = worklist.pop() {
        if std::mem::replace(&mut reachable[m], true) {
            continue;
        }
        for insn in &editable.methods[m].2 {
            if let Insn::Call { method, .. }
            | Insn::SpawnThread { method, .. }
            | Insn::CallCached { method, .. } = insn
            {
                if !reachable[method.index()] {
                    worklist.push(method.index());
                }
            }
        }
    }
    let mut method_map = vec![usize::MAX; editable.methods.len()];
    let mut next = 0;
    for (old, keep) in reachable.iter().enumerate() {
        if *keep {
            method_map[old] = next;
            next += 1;
        }
    }

    let mut methods = Vec::with_capacity(next);
    for (old, (name, args, code)) in editable.methods.iter().enumerate() {
        if !reachable[old] {
            continue;
        }
        // pc_map[t] = number of surviving instructions before t; a target
        // pointing at a Nop therefore lands on the next survivor.
        let mut pc_map = Vec::with_capacity(code.len() + 1);
        let mut survivors = 0usize;
        for insn in code {
            pc_map.push(survivors);
            if !matches!(insn, Insn::Nop) {
                survivors += 1;
            }
        }
        pc_map.push(survivors);

        let mut new_code: Vec<Insn> = Vec::with_capacity(survivors);
        let mut needs_tail = false;
        for insn in code {
            if matches!(insn, Insn::Nop) {
                continue;
            }
            let remapped = match insn {
                Insn::Jump { target } => Insn::Jump {
                    target: pc_map[*target],
                },
                Insn::Branch { cond, a, b, target } => Insn::Branch {
                    cond: *cond,
                    a: *a,
                    b: *b,
                    target: pc_map[*target],
                },
                Insn::Call { method, args, dst } => Insn::Call {
                    method: MethodId::new(method_map[method.index()] as u32),
                    args: args.clone(),
                    dst: *dst,
                },
                Insn::SpawnThread { method, args } => Insn::SpawnThread {
                    method: MethodId::new(method_map[method.index()] as u32),
                    args: args.clone(),
                },
                Insn::CallCached {
                    method,
                    args,
                    dst,
                    site,
                } => Insn::CallCached {
                    method: MethodId::new(method_map[method.index()] as u32),
                    args: args.clone(),
                    dst: *dst,
                    site: *site,
                },
                other => other.clone(),
            };
            if let Some(t) = remapped.jump_target() {
                if t >= survivors {
                    needs_tail = true;
                }
            }
            new_code.push(remapped);
        }
        if needs_tail || !matches!(new_code.last(), Some(Insn::Return { .. })) {
            new_code.push(Insn::Return { value: None });
        }
        methods.push((name.clone(), *args, new_code));
    }

    Editable {
        name: editable.name.clone(),
        classes: editable.classes.clone(),
        statics: editable.statics,
        methods,
        entry: method_map[editable.entry],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenProfile, ALLOC_HEAVY, STORE_HEAVY};
    use crate::oracle::{check_program, OracleOptions, QuietPanics};
    use cg_core::FaultInjection;

    fn faulty_check(options: &OracleOptions) -> impl FnMut(&Program) -> Option<String> + '_ {
        move |p: &Program| {
            check_program(p, options)
                .err()
                .map(|f| f.class().to_string())
        }
    }

    #[test]
    fn shrink_returns_none_for_passing_programs() {
        let options = OracleOptions::default();
        let program = generate(0, &ALLOC_HEAVY);
        assert!(shrink(&program, faulty_check(&options)).is_none());
    }

    #[test]
    fn shrink_minimises_a_fault_injected_counterexample() {
        let _quiet = QuietPanics::install();
        // A trimmed oracle keeps the shrink loop fast; the soundness checks
        // that catch this fault do not depend on shard count or recycling.
        let options = OracleOptions {
            shards: vec![1, 2],
            check_recycling: false,
            ..OracleOptions::with_fault(FaultInjection::SkipContamination)
        };
        // Find a failing seed, then shrink it hard.
        let mut shrunk = None;
        for seed in 0..16u64 {
            let program = generate(seed, &STORE_HEAVY);
            if check_program(&program, &options).is_err() {
                shrunk = shrink(&program, faulty_check(&options));
                break;
            }
        }
        let outcome = shrunk.expect("some store-heavy seed must catch the fault");
        assert!(
            outcome.final_instructions <= 30,
            "shrunk to {} instructions (from {}), want <= 30",
            outcome.final_instructions,
            outcome.original_instructions
        );
        assert!(outcome.final_instructions < outcome.original_instructions);
        // The minimised program still fails the same way...
        let failure = check_program(&outcome.program, &options).expect_err("still fails");
        assert_eq!(failure.class(), outcome.class);
        // ...and passes once the fault is removed (it really is a collector
        // defect, not a broken program).
        check_program(&outcome.program, &OracleOptions::default())
            .expect("minimised program is clean without the fault");
    }

    #[test]
    fn compaction_preserves_semantics_on_generated_programs() {
        // Nop a random sprinkle of call-free instructions, compact, and the
        // program must still validate (the oracle-equivalence part is
        // covered by the shrink test above).
        for profile in GenProfile::all().into_iter().take(3) {
            let program = generate(3, profile);
            let mut editable = Editable::from_program(&program);
            for (_, _, code) in editable.methods.iter_mut() {
                for insn in code.iter_mut() {
                    if matches!(insn, Insn::GetField { .. } | Insn::ArrayLoad { .. }) {
                        *insn = Insn::Nop;
                    }
                }
            }
            let compacted = compact(&editable).build();
            assert_eq!(compacted.validate(), Ok(()), "{}", profile.name);
        }
    }
}
