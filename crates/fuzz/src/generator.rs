//! The seeded random program generator.
//!
//! Every generated program is **terminating and type-valid by
//! construction**, so a failed oracle check always indicts the collector
//! stack, never the input:
//!
//! * the call graph is acyclic (a method only calls methods generated before
//!   it) and every loop is a counted loop with a fixed trip count, so
//!   execution always terminates;
//! * the generator tracks a static type for every local (`Ty`) and only
//!   emits instructions whose operands it can prove safe: objects are
//!   non-null with a known class (field indices stay in range), arrays have
//!   a known length (element indices stay in range), divisors are non-zero
//!   immediates, and loop bodies obey a read-lock discipline (below) so
//!   iteration 2 sees the same types iteration 1 did;
//! * a cost/allocation budget bounds the dynamic instruction count and the
//!   total allocation count, so the oracle's heap can always hold a whole
//!   run even under a collector that frees nothing.
//!
//! # The loop read-lock discipline
//!
//! Generation is sequential but loop bodies execute repeatedly, so a local
//! read early in a body and overwritten with a *different* type later in the
//! same body would change type between iterations.  The generator prevents
//! this with per-loop lock frames: reading a local that the current body has
//! not yet written **locks** it (in every enclosing loop that has not
//! re-established it); a locked local may only be rewritten with its exact
//! current type.  Writes mark the local as re-established in every active
//! frame.
//!
//! # Profiles
//!
//! A [`GenProfile`] is a weighted instruction mix plus structural bounds.
//! The six built-in profiles steer generation toward the scenarios the
//! paper's collector must get right: allocation churn, contamination-heavy
//! stores, deep call chains with escaping returns, spawned threads sharing
//! objects, recycle churn, and array graphs.

use cg_testutil::TestRng;
use cg_vm::{ClassDef, ClassId, Cond, Insn, LocalIdx, MethodDef, Operand, Program, StaticId};
use cg_workloads::CodeBuilder;

/// The static type the generator tracks for a local variable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// An integer.
    Int,
    /// A non-null instance of a known class.
    Obj(ClassId),
    /// A non-null array of a known length.
    Arr(usize),
    /// A non-null reference of unknown class (interned objects, opaque
    /// returns): usable as a store value or intern/native-ref source, never
    /// dereferenced.
    AnyRef,
    /// Any value, possibly null (field/element/static reads): usable only as
    /// a store value or move source.
    Opaque,
}

impl Ty {
    fn is_nonnull_ref(self) -> bool {
        matches!(self, Ty::Obj(_) | Ty::Arr(_) | Ty::AnyRef)
    }
}

/// Actions the generator can take, in the order the profile weight vectors
/// use.  Every [`Insn`] variant is reachable from some action (loops emit
/// `Const`/`Branch`/`Arith`/`Jump`, skip branches emit `Branch` and dead
/// `Nop`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    NewObj,
    NewArr,
    PutField,
    GetField,
    ArrayStore,
    ArrayLoad,
    PutStatic,
    GetStatic,
    MoveLocal,
    ConstInt,
    Arith,
    Loop,
    Call,
    Intern,
    NativeRef,
    Null,
    SkipBranch,
    Spawn,
}

const ACTIONS: [Action; 18] = [
    Action::NewObj,
    Action::NewArr,
    Action::PutField,
    Action::GetField,
    Action::ArrayStore,
    Action::ArrayLoad,
    Action::PutStatic,
    Action::GetStatic,
    Action::MoveLocal,
    Action::ConstInt,
    Action::Arith,
    Action::Loop,
    Action::Call,
    Action::Intern,
    Action::NativeRef,
    Action::Null,
    Action::SkipBranch,
    Action::Spawn,
];

/// A weighted instruction mix plus structural bounds: one fuzzing profile.
#[derive(Debug, Clone, PartialEq)]
pub struct GenProfile {
    /// Profile name (the `--profile` argument).
    pub name: &'static str,
    /// One-line description of the scenario the mix exercises.
    pub description: &'static str,
    /// Inclusive range of class definitions.
    classes: (usize, usize),
    /// Inclusive range of static variable slots.
    statics: (usize, usize),
    /// Inclusive range of helper methods (main comes on top).
    helpers: (usize, usize),
    /// Data locals per method (loop counters live above these).
    data_locals: usize,
    /// Inclusive range of actions per helper body.
    actions: (usize, usize),
    /// Inclusive range of actions in main's body (after the prologue).
    main_actions: (usize, usize),
    /// Maximum threads spawned (spawn sites in main, outside loops).
    max_spawns: usize,
    /// Probability that a helper returns a reference.
    ret_ref_prob: f64,
    /// Deep-calls mode: prefer calling the most recently generated method,
    /// building a deep chain.
    prefer_deep_callee: bool,
    /// Estimated-cost budget for one call of a helper.
    helper_cost_budget: u64,
    /// Estimated-cost budget for main (bounds the whole run, since the call
    /// graph is a DAG rooted at main).
    main_cost_budget: u64,
    /// Allocation budget for the whole program.
    alloc_budget: u64,
    /// Action weights, aligned with [`ACTIONS`].
    weights: [u32; ACTIONS.len()],
}

impl GenProfile {
    /// All built-in profiles, in a stable order.
    pub fn all() -> Vec<&'static GenProfile> {
        vec![
            &ALLOC_HEAVY,
            &STORE_HEAVY,
            &DEEP_CALLS,
            &THREADS,
            &RECYCLE_CHURN,
            &ARRAY_HEAVY,
        ]
    }

    /// Looks a profile up by its `--profile` name.
    pub fn by_name(name: &str) -> Option<&'static GenProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }
}

/// Allocation churn: many short-lived objects, some chained.
pub static ALLOC_HEAVY: GenProfile = GenProfile {
    name: "alloc-heavy",
    description: "allocation churn: many short-lived objects dying at frame pops",
    classes: (2, 4),
    statics: (0, 2),
    helpers: (2, 5),
    data_locals: 8,
    actions: (6, 14),
    main_actions: (8, 18),
    max_spawns: 1,
    ret_ref_prob: 0.3,
    prefer_deep_callee: false,
    helper_cost_budget: 2_000,
    main_cost_budget: 25_000,
    alloc_budget: 1_200,
    weights: [30, 6, 8, 4, 3, 2, 2, 3, 3, 3, 3, 6, 8, 1, 1, 2, 2, 1],
};

/// Contamination-heavy: reference stores and static stores dominate.
pub static STORE_HEAVY: GenProfile = GenProfile {
    name: "store-heavy",
    description: "putfield/putstatic heavy: contamination and static escalation",
    classes: (2, 4),
    statics: (2, 4),
    helpers: (2, 5),
    data_locals: 8,
    actions: (8, 16),
    main_actions: (10, 20),
    max_spawns: 1,
    ret_ref_prob: 0.35,
    prefer_deep_callee: false,
    helper_cost_budget: 2_000,
    main_cost_budget: 25_000,
    alloc_budget: 800,
    weights: [10, 3, 28, 6, 4, 2, 12, 8, 3, 2, 2, 4, 6, 3, 3, 2, 2, 1],
};

/// Deep call chains with values escaping upward through returns.
pub static DEEP_CALLS: GenProfile = GenProfile {
    name: "deep-calls",
    description: "deep call stacks: areturn retargeting across many frames",
    classes: (1, 3),
    statics: (0, 2),
    helpers: (12, 28),
    data_locals: 6,
    actions: (2, 6),
    main_actions: (4, 10),
    max_spawns: 0,
    ret_ref_prob: 0.7,
    prefer_deep_callee: true,
    helper_cost_budget: 6_000,
    main_cost_budget: 30_000,
    alloc_budget: 1_000,
    weights: [10, 2, 6, 3, 1, 1, 2, 3, 2, 2, 2, 2, 30, 1, 1, 1, 1, 0],
};

/// Spawned threads sharing objects and statics (§3.3 escalation).
pub static THREADS: GenProfile = GenProfile {
    name: "threads",
    description: "spawn/join multithreading: thread-shared objects and statics",
    classes: (2, 4),
    statics: (2, 4),
    helpers: (3, 6),
    data_locals: 8,
    actions: (5, 12),
    main_actions: (8, 16),
    max_spawns: 6,
    ret_ref_prob: 0.3,
    prefer_deep_callee: false,
    helper_cost_budget: 2_500,
    main_cost_budget: 25_000,
    alloc_budget: 900,
    weights: [12, 3, 14, 6, 3, 2, 8, 10, 3, 2, 2, 4, 6, 2, 2, 2, 2, 12],
};

/// Frame-local churn that a recycling collector can feed on.
static RECYCLE_CHURN: GenProfile = GenProfile {
    name: "recycle-churn",
    description: "frame-local churn: repeated helper calls feeding the recycle list",
    classes: (2, 4),
    statics: (0, 1),
    helpers: (3, 6),
    data_locals: 8,
    actions: (4, 10),
    main_actions: (6, 12),
    max_spawns: 0,
    ret_ref_prob: 0.15,
    prefer_deep_callee: false,
    helper_cost_budget: 1_500,
    main_cost_budget: 30_000,
    alloc_budget: 1_500,
    weights: [25, 2, 6, 3, 2, 1, 1, 2, 2, 2, 3, 12, 18, 1, 1, 2, 2, 0],
};

/// Array graphs: element stores contaminate whole arrays.
static ARRAY_HEAVY: GenProfile = GenProfile {
    name: "array-heavy",
    description: "array-heavy: aastore contamination and array element graphs",
    classes: (2, 3),
    statics: (1, 3),
    helpers: (2, 5),
    data_locals: 8,
    actions: (6, 14),
    main_actions: (8, 18),
    max_spawns: 1,
    ret_ref_prob: 0.25,
    prefer_deep_callee: false,
    helper_cost_budget: 2_000,
    main_cost_budget: 25_000,
    alloc_budget: 900,
    weights: [8, 24, 6, 3, 20, 8, 4, 4, 3, 2, 2, 5, 6, 1, 1, 2, 2, 1],
};

/// One loop's lock frame: which data locals the body has read from outer
/// state (locked: later writes must preserve the type) and which it has
/// re-established by writing.
#[derive(Debug, Clone)]
struct LoopFrame {
    locked: Vec<bool>,
    written: Vec<bool>,
}

/// Per-body generation state: the tracked local types and the active loop
/// frames.
#[derive(Debug)]
struct BodyCtx {
    tys: Vec<Option<Ty>>,
    frames: Vec<LoopFrame>,
    in_main: bool,
    /// Number of parameter locals (locals `0..params` came from the caller's
    /// frame — stores into them are the cross-frame contaminations the
    /// collector must get right).
    params: usize,
    /// Estimated executed instructions of one call of this body.
    cost: u64,
    /// Estimated allocations of one call of this body.
    allocs: u64,
}

impl BodyCtx {
    fn new(data_locals: usize, params: &[Ty], in_main: bool) -> Self {
        let mut tys = vec![None; data_locals];
        for (i, &p) in params.iter().enumerate() {
            tys[i] = Some(p);
        }
        Self {
            tys,
            frames: Vec::new(),
            in_main,
            params: params.len(),
            cost: 0,
            allocs: 0,
        }
    }

    /// Records a read of local `l`, locking it in every enclosing loop that
    /// has not re-established it.
    fn note_read(&mut self, l: usize) {
        for frame in self.frames.iter_mut().rev() {
            if frame.written[l] {
                return;
            }
            frame.locked[l] = true;
        }
    }

    /// Whether local `l` may be overwritten with `ty` here.
    ///
    /// A lock is permanent for the body: the locked read happens before the
    /// body's writes re-establish the local, so on every iteration after the
    /// first it observes whatever the *last* write of the previous iteration
    /// left behind — every write after the lock must therefore keep the
    /// locked type, not just the first one.
    fn can_write(&self, l: usize, ty: Ty) -> bool {
        if self.frames.iter().any(|f| f.locked[l]) {
            self.tys[l] == Some(ty)
        } else {
            true
        }
    }

    /// Records a write of `ty` into local `l`.
    fn note_write(&mut self, l: usize, ty: Ty) {
        debug_assert!(self.can_write(l, ty));
        self.tys[l] = Some(ty);
        for frame in self.frames.iter_mut() {
            frame.written[l] = true;
        }
    }
}

/// The signature and budget bookkeeping of a generated method.
#[derive(Debug, Clone)]
struct MethodSig {
    params: Vec<Ty>,
    ret: Option<Ty>,
    cost: u64,
    allocs: u64,
}

/// The generator: classes, statics, methods generated so far, and the RNG.
struct Generator<'p> {
    profile: &'p GenProfile,
    rng: TestRng,
    classes: Vec<(ClassId, usize)>,
    statics: Vec<(StaticId, ClassId)>,
    methods: Vec<MethodSig>,
    spawns_left: usize,
    allocs_left: u64,
}

/// Generates a terminating, type-valid program from `seed` under `profile`.
///
/// Equal `(seed, profile)` pairs always yield equal programs.
pub fn generate(seed: u64, profile: &GenProfile) -> Program {
    let mut g = Generator {
        profile,
        rng: TestRng::new(seed ^ fnv(profile.name)),
        classes: Vec::new(),
        statics: Vec::new(),
        methods: Vec::new(),
        spawns_left: profile.max_spawns,
        allocs_left: profile.alloc_budget,
    };
    g.generate(seed)
}

/// FNV-1a over the profile name, so each profile gets an independent stream
/// from the same base seed.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Generator<'_> {
    fn generate(&mut self, seed: u64) -> Program {
        let mut program = Program::named(format!("fuzz/{}/{seed:#x}", self.profile.name));

        let class_count = self.range(self.profile.classes);
        for i in 0..class_count {
            let fields = self.rng.gen_range(1, 5);
            let id = program.add_class(ClassDef::new(format!("K{i}"), fields));
            self.classes.push((id, fields));
        }
        let static_count = self.range(self.profile.statics);
        for _ in 0..static_count {
            let id = program.add_static();
            let class = self.classes[self.rng.gen_range(0, self.classes.len())].0;
            self.statics.push((id, class));
        }

        let helper_count = self.range(self.profile.helpers);
        for i in 0..helper_count {
            let (def, sig) = self.gen_helper(i);
            program.add_method(def);
            self.methods.push(sig);
        }
        let main = program.add_method(self.gen_main());
        program.set_entry(main);
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    fn range(&mut self, (lo, hi): (usize, usize)) -> usize {
        self.rng.gen_range(lo, hi + 1)
    }

    fn gen_helper(&mut self, index: usize) -> (MethodDef, MethodSig) {
        // Parameters: ints, objects of a known class, arrays of a known
        // length, opaque references.  Reference parameters are the caller's
        // objects — the containers whose cross-frame stores the collector
        // must track.
        let param_count = self.rng.gen_range(0, 4.min(self.profile.data_locals));
        let mut params = Vec::with_capacity(param_count);
        for _ in 0..param_count {
            params.push(match self.rng.weighted(&[2, 5, 2, 1]) {
                0 => Ty::Int,
                1 => Ty::Obj(self.classes[self.rng.gen_range(0, self.classes.len())].0),
                2 => Ty::Arr(self.rng.gen_range(1, 5)),
                _ => Ty::AnyRef,
            });
        }
        let ret = if self.rng.gen_bool(self.profile.ret_ref_prob) {
            Some(match self.rng.weighted(&[4, 1, 1]) {
                0 => Ty::Obj(self.classes[self.rng.gen_range(0, self.classes.len())].0),
                1 => Ty::AnyRef,
                _ => Ty::Int,
            })
        } else {
            None
        };

        let mut ctx = BodyCtx::new(self.profile.data_locals, &params, false);
        let mut code = CodeBuilder::new();
        let actions = self.range(self.profile.actions);
        self.gen_actions(
            &mut code,
            &mut ctx,
            actions,
            1,
            self.profile.helper_cost_budget,
        );
        self.emit_return(&mut code, &mut ctx, ret);

        let sig = MethodSig {
            params: params.clone(),
            ret,
            cost: ctx.cost + 2,
            allocs: ctx.allocs,
        };
        let def = MethodDef::from_code(format!("m{index}"), params.len(), code.into_code());
        (def, sig)
    }

    fn gen_main(&mut self) -> MethodDef {
        let mut ctx = BodyCtx::new(self.profile.data_locals, &[], true);
        let mut code = CodeBuilder::new();
        // Prologue: initialise every static with a fresh object of its fixed
        // class, so any GetStatic anywhere in the program reads a non-null
        // reference of a known class.
        for i in 0..self.statics.len() {
            let (sid, class) = self.statics[i];
            let dst = self
                .pick_writable(&mut ctx, Ty::Obj(class))
                .expect("main's prologue has no loop frames");
            self.emit(&mut code, &mut ctx, 1, Insn::New { class, dst });
            ctx.note_write(dst as usize, Ty::Obj(class));
            self.note_alloc(&mut ctx, 1);
            self.emit(
                &mut code,
                &mut ctx,
                1,
                Insn::PutStatic {
                    static_id: sid,
                    value: dst,
                },
            );
            ctx.note_read(dst as usize);
        }
        let actions = self.range(self.profile.main_actions);
        self.gen_actions(
            &mut code,
            &mut ctx,
            actions,
            1,
            self.profile.main_cost_budget,
        );
        // Epilogue: pin main's surviving object graph with interpreter
        // static references.  Main's frame pops before `ProgramEnd`, so
        // without this the oracle's end-state reachability check would only
        // see objects hanging off statics and the intern table; the pins
        // make everything transitively reachable from main's locals part of
        // the precise ground truth — which is where a collector that frees
        // too early gets caught.
        for l in 0..self.profile.data_locals {
            if ctx.tys[l].is_some_and(Ty::is_nonnull_ref) {
                self.emit(
                    &mut code,
                    &mut ctx,
                    1,
                    Insn::NativeStaticRef { src: l as LocalIdx },
                );
            }
        }
        code.return_none();
        MethodDef::from_code("main", 0, code.into_code())
    }

    /// Emits `n` weighted actions into `code`.  `mult` is the execution
    /// multiplier of the enclosing loops; `budget` bounds the estimated cost
    /// of the whole body.
    fn gen_actions(
        &mut self,
        code: &mut CodeBuilder,
        ctx: &mut BodyCtx,
        n: usize,
        mult: u64,
        budget: u64,
    ) {
        for _ in 0..n {
            if ctx.cost >= budget {
                return;
            }
            let action = ACTIONS[self.rng.weighted(&self.profile.weights)];
            self.gen_action(code, ctx, action, mult, budget);
        }
    }

    fn gen_action(
        &mut self,
        code: &mut CodeBuilder,
        ctx: &mut BodyCtx,
        action: Action,
        mult: u64,
        budget: u64,
    ) {
        match action {
            Action::NewObj => {
                if !self.alloc_allowed(ctx, mult) {
                    return;
                }
                let (class, _) = self.classes[self.rng.gen_range(0, self.classes.len())];
                if let Some(dst) = self.pick_writable(ctx, Ty::Obj(class)) {
                    self.emit(code, ctx, mult, Insn::New { class, dst });
                    ctx.note_write(dst as usize, Ty::Obj(class));
                    self.note_alloc(ctx, mult);
                }
            }
            Action::NewArr => {
                if !self.alloc_allowed(ctx, mult) {
                    return;
                }
                let (class, _) = self.classes[self.rng.gen_range(0, self.classes.len())];
                let len = self.rng.gen_range(0, 7);
                let Some(dst) = self.pick_writable(ctx, Ty::Arr(len)) else {
                    return;
                };
                // Half the time route the length through a local, covering
                // the `Operand::Local` path.
                let length = if self.rng.gen_bool(0.5) {
                    match self.pick_writable_excluding(ctx, Ty::Int, dst) {
                        Some(l) => {
                            self.emit(
                                code,
                                ctx,
                                mult,
                                Insn::Const {
                                    dst: l,
                                    value: len as i64,
                                },
                            );
                            ctx.note_write(l as usize, Ty::Int);
                            ctx.note_read(l as usize);
                            Operand::Local(l)
                        }
                        None => Operand::Imm(len as i64),
                    }
                } else {
                    Operand::Imm(len as i64)
                };
                self.emit(code, ctx, mult, Insn::NewArray { class, length, dst });
                ctx.note_write(dst as usize, Ty::Arr(len));
                self.note_alloc(ctx, mult);
            }
            Action::PutField => {
                // In helpers, prefer storing into a caller-owned parameter
                // object: that is the cross-frame contamination (§2.2) a
                // broken collector gets wrong.
                let preferred = if !ctx.in_main && self.rng.gen_bool(0.6) {
                    let params = ctx.params;
                    self.pick_readable_filtered(ctx, |t| matches!(t, Ty::Obj(_)), |l| l < params)
                } else {
                    None
                };
                let Some(object) =
                    preferred.or_else(|| self.pick_readable(ctx, |t| matches!(t, Ty::Obj(_))))
                else {
                    return;
                };
                let Some(Ty::Obj(class)) = ctx.tys[object as usize] else {
                    unreachable!("picked an object local");
                };
                let fields = self.field_count(class);
                let Some(value) = self.pick_readable(ctx, |_| true) else {
                    return;
                };
                let field = self.rng.gen_range(0, fields);
                self.emit(
                    code,
                    ctx,
                    mult,
                    Insn::PutField {
                        object,
                        field,
                        value,
                    },
                );
            }
            Action::GetField => {
                let Some(object) = self.pick_readable(ctx, |t| matches!(t, Ty::Obj(_))) else {
                    return;
                };
                let Some(Ty::Obj(class)) = ctx.tys[object as usize] else {
                    unreachable!("picked an object local");
                };
                let fields = self.field_count(class);
                let Some(dst) = self.pick_writable(ctx, Ty::Opaque) else {
                    return;
                };
                let field = self.rng.gen_range(0, fields);
                self.emit(code, ctx, mult, Insn::GetField { object, field, dst });
                ctx.note_write(dst as usize, Ty::Opaque);
            }
            Action::ArrayStore => {
                let preferred = if !ctx.in_main && self.rng.gen_bool(0.6) {
                    let params = ctx.params;
                    self.pick_readable_filtered(
                        ctx,
                        |t| matches!(t, Ty::Arr(n) if n > 0),
                        |l| l < params,
                    )
                } else {
                    None
                };
                let Some(array) = preferred
                    .or_else(|| self.pick_readable(ctx, |t| matches!(t, Ty::Arr(n) if n > 0)))
                else {
                    return;
                };
                let Some(Ty::Arr(len)) = ctx.tys[array as usize] else {
                    unreachable!("picked an array local");
                };
                let Some(value) = self.pick_readable(ctx, |_| true) else {
                    return;
                };
                let index = Operand::Imm(self.rng.gen_range(0, len) as i64);
                self.emit(
                    code,
                    ctx,
                    mult,
                    Insn::ArrayStore {
                        array,
                        index,
                        value,
                    },
                );
            }
            Action::ArrayLoad => {
                let Some(array) = self.pick_readable(ctx, |t| matches!(t, Ty::Arr(n) if n > 0))
                else {
                    return;
                };
                let Some(Ty::Arr(len)) = ctx.tys[array as usize] else {
                    unreachable!("picked an array local");
                };
                let Some(dst) = self.pick_writable(ctx, Ty::Opaque) else {
                    return;
                };
                let index = Operand::Imm(self.rng.gen_range(0, len) as i64);
                self.emit(code, ctx, mult, Insn::ArrayLoad { array, index, dst });
                ctx.note_write(dst as usize, Ty::Opaque);
            }
            Action::PutStatic => {
                if self.statics.is_empty() {
                    return;
                }
                let (sid, class) = self.statics[self.rng.gen_range(0, self.statics.len())];
                let value = match self.pick_readable(ctx, |t| t == Ty::Obj(class)) {
                    Some(l) => l,
                    None => {
                        // Materialise a fresh object of the static's class.
                        if !self.alloc_allowed(ctx, mult) {
                            return;
                        }
                        let Some(dst) = self.pick_writable(ctx, Ty::Obj(class)) else {
                            return;
                        };
                        self.emit(code, ctx, mult, Insn::New { class, dst });
                        ctx.note_write(dst as usize, Ty::Obj(class));
                        self.note_alloc(ctx, mult);
                        ctx.note_read(dst as usize);
                        dst
                    }
                };
                self.emit(
                    code,
                    ctx,
                    mult,
                    Insn::PutStatic {
                        static_id: sid,
                        value,
                    },
                );
            }
            Action::GetStatic => {
                if self.statics.is_empty() {
                    return;
                }
                let (sid, class) = self.statics[self.rng.gen_range(0, self.statics.len())];
                let Some(dst) = self.pick_writable(ctx, Ty::Obj(class)) else {
                    return;
                };
                self.emit(
                    code,
                    ctx,
                    mult,
                    Insn::GetStatic {
                        static_id: sid,
                        dst,
                    },
                );
                ctx.note_write(dst as usize, Ty::Obj(class));
            }
            Action::MoveLocal => {
                let Some(src) = self.pick_readable(ctx, |_| true) else {
                    return;
                };
                let ty = ctx.tys[src as usize].expect("readable locals are initialised");
                let Some(dst) = self.pick_writable_excluding(ctx, ty, src) else {
                    return;
                };
                self.emit(code, ctx, mult, Insn::Move { dst, src });
                ctx.note_write(dst as usize, ty);
            }
            Action::ConstInt => {
                let Some(dst) = self.pick_writable(ctx, Ty::Int) else {
                    return;
                };
                let value = self.rng.gen_range(0, 64) as i64;
                self.emit(code, ctx, mult, Insn::Const { dst, value });
                ctx.note_write(dst as usize, Ty::Int);
            }
            Action::Arith => {
                let Some(dst) = self.pick_writable(ctx, Ty::Int) else {
                    return;
                };
                let ops = [
                    cg_vm::ArithOp::Add,
                    cg_vm::ArithOp::Sub,
                    cg_vm::ArithOp::Mul,
                    cg_vm::ArithOp::Div,
                    cg_vm::ArithOp::Rem,
                    cg_vm::ArithOp::Xor,
                ];
                let op = *self.rng.pick(&ops);
                let a = match self.pick_readable(ctx, |t| t == Ty::Int) {
                    Some(l) => Operand::Local(l),
                    None => Operand::Imm(self.rng.gen_range(0, 100) as i64),
                };
                // Divisors are non-zero immediates, so division never traps.
                let b = if matches!(op, cg_vm::ArithOp::Div | cg_vm::ArithOp::Rem) {
                    Operand::Imm(self.rng.gen_range(1, 17) as i64)
                } else {
                    Operand::Imm(self.rng.gen_range(0, 100) as i64)
                };
                self.emit(code, ctx, mult, Insn::Arith { op, dst, a, b });
                ctx.note_write(dst as usize, Ty::Int);
            }
            Action::Loop => {
                if ctx.frames.len() >= 2 {
                    return; // bound the nesting (trip counts multiply)
                }
                let trip = self.rng.gen_range(1, 4) as u64;
                if ctx.cost + mult * trip * 8 >= budget {
                    return;
                }
                let counter = (self.profile.data_locals + ctx.frames.len()) as LocalIdx;
                let body_actions = self.rng.gen_range(1, 6);
                ctx.cost += mult * (3 + trip * 2); // loop scaffold
                ctx.frames.push(LoopFrame {
                    locked: vec![false; self.profile.data_locals],
                    written: vec![false; self.profile.data_locals],
                });
                // `code.counted_loop` borrows `code`; the closure re-borrows
                // the generator and ctx, which is fine because they are
                // disjoint from the builder.
                let mult_in = mult * trip;
                let this = &mut *self;
                let ctx_inner = &mut *ctx;
                code.counted_loop(counter, Operand::Imm(trip as i64), |body| {
                    this.gen_actions(body, ctx_inner, body_actions, mult_in, budget);
                });
                ctx.frames.pop();
            }
            Action::Call => {
                self.gen_call(code, ctx, mult, budget, false);
            }
            Action::Spawn => {
                if !ctx.in_main || !ctx.frames.is_empty() || self.spawns_left == 0 {
                    return;
                }
                self.gen_call(code, ctx, mult, budget, true);
            }
            Action::Intern => {
                let Some(src) = self.pick_readable(ctx, Ty::is_nonnull_ref) else {
                    return;
                };
                let Some(dst) = self.pick_writable_excluding(ctx, Ty::AnyRef, src) else {
                    return;
                };
                let key = self.rng.gen_range(0, 6) as u32;
                self.emit(code, ctx, mult, Insn::Intern { key, src, dst });
                ctx.note_write(dst as usize, Ty::AnyRef);
            }
            Action::NativeRef => {
                let Some(src) = self.pick_readable(ctx, Ty::is_nonnull_ref) else {
                    return;
                };
                self.emit(code, ctx, mult, Insn::NativeStaticRef { src });
            }
            Action::Null => {
                let Some(dst) = self.pick_writable(ctx, Ty::Opaque) else {
                    return;
                };
                self.emit(code, ctx, mult, Insn::LoadNull { dst });
                ctx.note_write(dst as usize, Ty::Opaque);
            }
            Action::SkipBranch => {
                // A branch over constants: the outcome is known at generation
                // time.  Taken branches skip a short dead block (which only
                // needs to be *structurally* valid); fall-through branches
                // are no-ops.  Either way `Branch` (and dead `Nop`s) enter
                // the instruction stream.
                let cond =
                    *self
                        .rng
                        .pick(&[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge]);
                let a = self.rng.gen_range(0, 8) as i64;
                let b = self.rng.gen_range(0, 8) as i64;
                if cond.eval(a, b) {
                    let dead = self.rng.gen_range(1, 4);
                    self.emit(
                        code,
                        ctx,
                        mult,
                        Insn::Branch {
                            cond,
                            a: Operand::Imm(a),
                            b: Operand::Imm(b),
                            target: code.pc() + 1 + dead,
                        },
                    );
                    for _ in 0..dead {
                        // Never executed: costs nothing, types untouched.
                        code.push(Insn::Nop);
                    }
                } else {
                    self.emit(
                        code,
                        ctx,
                        mult,
                        Insn::Branch {
                            cond,
                            a: Operand::Imm(a),
                            b: Operand::Imm(b),
                            target: code.pc() + 1,
                        },
                    );
                }
            }
        }
    }

    /// Emits a call (or spawn) of an affordable earlier-generated method,
    /// materialising arguments as needed.
    fn gen_call(
        &mut self,
        code: &mut CodeBuilder,
        ctx: &mut BodyCtx,
        mult: u64,
        budget: u64,
        spawn: bool,
    ) {
        // Affordable callees under the remaining budget (and the allocation
        // budget: a call executes the callee's allocations too).
        let candidates: Vec<usize> = (0..self.methods.len())
            .filter(|&i| {
                let m = &self.methods[i];
                ctx.cost + mult * (m.cost + 4) < budget && mult * m.allocs <= self.allocs_left
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let callee_index = if self.profile.prefer_deep_callee && self.rng.gen_bool(0.8) {
            *candidates.last().expect("non-empty")
        } else {
            *self.rng.pick(&candidates)
        };
        let sig = self.methods[callee_index].clone();

        // Materialise one argument local per parameter.
        let mut args = Vec::with_capacity(sig.params.len());
        for &param in &sig.params {
            let found = match param {
                Ty::Int => self.pick_readable(ctx, |t| t == Ty::Int),
                Ty::Obj(c) => self.pick_readable(ctx, |t| t == Ty::Obj(c)),
                Ty::Arr(n) => self.pick_readable(ctx, |t| t == Ty::Arr(n)),
                Ty::AnyRef => self.pick_readable(ctx, Ty::is_nonnull_ref),
                Ty::Opaque => unreachable!("not generated as a parameter type"),
            };
            let local = match found {
                Some(l) => l,
                None => {
                    // Build the argument in place.
                    let (insn, ty) = match param {
                        Ty::Int => {
                            let value = self.rng.gen_range(0, 32) as i64;
                            (Insn::Const { dst: 0, value }, Ty::Int)
                        }
                        Ty::Obj(c) => {
                            if !self.alloc_allowed(ctx, mult) {
                                return;
                            }
                            (Insn::New { class: c, dst: 0 }, Ty::Obj(c))
                        }
                        Ty::Arr(n) => {
                            if !self.alloc_allowed(ctx, mult) {
                                return;
                            }
                            let (c, _) = self.classes[self.rng.gen_range(0, self.classes.len())];
                            (
                                Insn::NewArray {
                                    class: c,
                                    length: Operand::Imm(n as i64),
                                    dst: 0,
                                },
                                Ty::Arr(n),
                            )
                        }
                        Ty::AnyRef => {
                            if !self.alloc_allowed(ctx, mult) {
                                return;
                            }
                            let (c, _) = self.classes[self.rng.gen_range(0, self.classes.len())];
                            (Insn::New { class: c, dst: 0 }, Ty::Obj(c))
                        }
                        Ty::Opaque => unreachable!(),
                    };
                    // Never clobber a local already chosen for an earlier
                    // argument: the VM reads all argument locals at call
                    // time, after this materialisation ran.
                    let Some(dst) =
                        self.pick_writable_filtered(ctx, ty, |l| !args.contains(&(l as LocalIdx)))
                    else {
                        return;
                    };
                    let insn = match insn {
                        Insn::Const { value, .. } => Insn::Const { dst, value },
                        Insn::New { class, .. } => {
                            self.note_alloc(ctx, mult);
                            Insn::New { class, dst }
                        }
                        Insn::NewArray { class, length, .. } => {
                            self.note_alloc(ctx, mult);
                            Insn::NewArray { class, length, dst }
                        }
                        _ => unreachable!(),
                    };
                    self.emit(code, ctx, mult, insn);
                    ctx.note_write(dst as usize, ty);
                    dst
                }
            };
            ctx.note_read(local as usize);
            args.push(local);
        }

        let method = cg_vm::MethodId::new(callee_index as u32);
        ctx.cost += mult * (sig.cost + 2);
        ctx.allocs += mult * sig.allocs;
        self.allocs_left = self.allocs_left.saturating_sub(mult * sig.allocs);
        if spawn {
            self.spawns_left -= 1;
            code.push(Insn::SpawnThread { method, args });
        } else {
            let dst = match sig.ret {
                Some(ret) => {
                    // Returned objects land as the declared type; AnyRef and
                    // Int likewise.
                    let ty = match ret {
                        Ty::Obj(c) => Ty::Obj(c),
                        Ty::Int => Ty::Int,
                        _ => Ty::AnyRef,
                    };
                    match self.pick_writable(ctx, ty) {
                        Some(d) => {
                            ctx.note_write(d as usize, ty);
                            Some(d)
                        }
                        None => None,
                    }
                }
                None => None,
            };
            code.push(Insn::Call { method, args, dst });
        }
    }

    /// Emits the method's return, materialising a value of the declared
    /// return type if necessary.
    fn emit_return(&mut self, code: &mut CodeBuilder, ctx: &mut BodyCtx, ret: Option<Ty>) {
        debug_assert!(ctx.frames.is_empty(), "returns are emitted at top level");
        match ret {
            None => {
                code.return_none();
            }
            Some(ty) => {
                let found = match ty {
                    Ty::Int => self.pick_readable(ctx, |t| t == Ty::Int),
                    Ty::Obj(c) => self.pick_readable(ctx, |t| t == Ty::Obj(c)),
                    _ => self.pick_readable(ctx, Ty::is_nonnull_ref),
                };
                let local = match found {
                    Some(l) => l,
                    None => {
                        let dst = self
                            .pick_writable(ctx, ty)
                            .expect("top-level writes are unrestricted");
                        match ty {
                            Ty::Int => {
                                self.emit(code, ctx, 1, Insn::Const { dst, value: 1 });
                                ctx.note_write(dst as usize, Ty::Int);
                            }
                            Ty::Obj(c) => {
                                self.emit(code, ctx, 1, Insn::New { class: c, dst });
                                ctx.note_write(dst as usize, Ty::Obj(c));
                                self.note_alloc(ctx, 1);
                            }
                            _ => {
                                let (c, _) =
                                    self.classes[self.rng.gen_range(0, self.classes.len())];
                                self.emit(code, ctx, 1, Insn::New { class: c, dst });
                                ctx.note_write(dst as usize, Ty::Obj(c));
                                self.note_alloc(ctx, 1);
                            }
                        }
                        dst
                    }
                };
                code.return_value(local);
            }
        }
    }

    // ------------------------------------------------------------------
    // small helpers
    // ------------------------------------------------------------------

    fn field_count(&self, class: ClassId) -> usize {
        self.classes
            .iter()
            .find(|(id, _)| *id == class)
            .expect("classes are registered before use")
            .1
    }

    fn alloc_allowed(&self, _ctx: &BodyCtx, mult: u64) -> bool {
        mult <= self.allocs_left
    }

    fn note_alloc(&mut self, ctx: &mut BodyCtx, mult: u64) {
        ctx.allocs += mult;
        self.allocs_left = self.allocs_left.saturating_sub(mult);
    }

    fn emit(&self, code: &mut CodeBuilder, ctx: &mut BodyCtx, mult: u64, insn: Insn) {
        ctx.cost += mult;
        code.push(insn);
    }

    /// A random initialised local satisfying `pred`, with the read recorded.
    fn pick_readable(&mut self, ctx: &mut BodyCtx, pred: impl Fn(Ty) -> bool) -> Option<LocalIdx> {
        self.pick_readable_filtered(ctx, pred, |_| true)
    }

    /// [`Generator::pick_readable`] restricted to locals passing `keep`.
    fn pick_readable_filtered(
        &mut self,
        ctx: &mut BodyCtx,
        pred: impl Fn(Ty) -> bool,
        keep: impl Fn(usize) -> bool,
    ) -> Option<LocalIdx> {
        let candidates: Vec<usize> = ctx
            .tys
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.filter(|&t| pred(t)).map(|_| i))
            .filter(|&i| keep(i))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let l = *self.rng.pick(&candidates);
        ctx.note_read(l);
        Some(l as LocalIdx)
    }

    /// A random local that may be overwritten with `ty` (the caller records
    /// the write after emitting the instruction).
    fn pick_writable(&mut self, ctx: &mut BodyCtx, ty: Ty) -> Option<LocalIdx> {
        self.pick_writable_filtered(ctx, ty, |_| true)
    }

    fn pick_writable_excluding(
        &mut self,
        ctx: &mut BodyCtx,
        ty: Ty,
        exclude: LocalIdx,
    ) -> Option<LocalIdx> {
        self.pick_writable_filtered(ctx, ty, |l| l != exclude as usize)
    }

    fn pick_writable_filtered(
        &mut self,
        ctx: &mut BodyCtx,
        ty: Ty,
        keep: impl Fn(usize) -> bool,
    ) -> Option<LocalIdx> {
        let candidates: Vec<usize> = (0..ctx.tys.len())
            .filter(|&l| keep(l) && ctx.can_write(l, ty))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(*self.rng.pick(&candidates) as LocalIdx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_vm::{NoopCollector, Vm, VmConfig};

    /// The heap every fuzz run uses: large enough that a collector which
    /// frees nothing can still hold a full budgeted run.
    fn fuzz_heap() -> cg_heap::HeapConfig {
        crate::oracle::fuzz_heap_config()
    }

    #[test]
    fn profiles_resolve_by_name() {
        for p in GenProfile::all() {
            assert_eq!(GenProfile::by_name(p.name).unwrap().name, p.name);
        }
        assert!(GenProfile::by_name("doom").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        for p in GenProfile::all() {
            let a = generate(42, p);
            let b = generate(42, p);
            assert_eq!(a, b, "{}", p.name);
            let c = generate(43, p);
            assert_ne!(a, c, "{}: distinct seeds must differ", p.name);
        }
    }

    #[test]
    fn generated_programs_validate_and_terminate() {
        for p in GenProfile::all() {
            for seed in 0..40u64 {
                let program = generate(seed, p);
                assert_eq!(program.validate(), Ok(()), "{}/{seed}", p.name);
                let mut config = VmConfig::small().with_heap(fuzz_heap());
                config.max_instructions = 2_000_000;
                let mut vm = Vm::new(program, config, NoopCollector::new());
                let outcome = vm
                    .run()
                    .unwrap_or_else(|e| panic!("{}/{seed}: generated program failed: {e}", p.name));
                assert!(outcome.stats.instructions < 2_000_000, "{}/{seed}", p.name);
            }
        }
    }

    #[test]
    fn profiles_hit_their_signature_instructions() {
        // Each profile must actually produce the events it is named after,
        // summed over a few seeds.
        let count = |p: &GenProfile, pred: &dyn Fn(&Insn) -> bool| -> usize {
            (0..12u64)
                .map(|seed| {
                    let program = generate(seed, p);
                    (0..program.method_count())
                        .map(|m| {
                            program
                                .method(cg_vm::MethodId::new(m as u32))
                                .unwrap()
                                .code()
                                .iter()
                                .filter(|i| pred(i))
                                .count()
                        })
                        .sum::<usize>()
                })
                .sum()
        };
        assert!(count(&ALLOC_HEAVY, &|i| matches!(i, Insn::New { .. })) > 40);
        assert!(count(&STORE_HEAVY, &|i| matches!(i, Insn::PutField { .. })) > 30);
        assert!(count(&STORE_HEAVY, &|i| matches!(i, Insn::PutStatic { .. })) > 8);
        assert!(count(&DEEP_CALLS, &|i| matches!(i, Insn::Call { .. })) > 40);
        assert!(count(&THREADS, &|i| matches!(i, Insn::SpawnThread { .. })) > 8);
        assert!(count(&ARRAY_HEAVY, &|i| matches!(i, Insn::NewArray { .. })) > 30);
        assert!(count(&ARRAY_HEAVY, &|i| matches!(i, Insn::ArrayStore { .. })) > 20);
    }

    #[test]
    fn threads_profile_spawns_threads_at_runtime() {
        let mut spawned = 0;
        for seed in 0..10u64 {
            let program = generate(seed, &THREADS);
            let mut vm = Vm::new(
                program,
                VmConfig::small().with_heap(fuzz_heap()),
                NoopCollector::new(),
            );
            spawned += vm
                .run()
                .expect("threads program runs")
                .stats
                .threads_spawned;
        }
        assert!(spawned > 5, "threads profile spawned only {spawned}");
    }
}
