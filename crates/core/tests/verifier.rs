//! The §3.1.4 verifier: with `verify_tainted` on, a program that touches an
//! object the collector declared dead panics with a soundness violation,
//! whatever made the object dead and whichever hook touches it.  A handle
//! the collector has never seen, but the heap holds, is registered instead.
//!
//! Each case drives the collector hooks directly, the way the interpreter
//! does, and the panic must come at the touch.  A return touches through
//! the return hook and the callee's pop that follows it, as in the
//! interpreter.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cg_core::{CgConfig, ContaminatedGc, HybridCollector, HybridConfig};
use cg_vm::{
    ClassId, Collector, FrameId, FrameInfo, FrameRoots, Handle, Heap, HeapConfig, MethodId,
    RootSet, ThreadId,
};

/// How the touched object came to be dead.
#[derive(Debug, Clone, Copy)]
enum DeadState {
    /// Freed when the frame it was allocated in popped.
    FreedAtPop,
    /// Swept by a traditional collection while its block's frame is open.
    PurgedWhileBlockLives,
    /// Killed by a frame pop and kept for reuse on the recycle list (§3.7).
    OnRecycleList,
}

/// The hooks that look an object up and so can catch a dead one.
#[derive(Debug, Clone, Copy)]
enum Hook {
    ObjectAccess,
    ReferenceStore,
    StaticStore,
    ReturnValue,
}

const HOOKS: [Hook; 4] = [
    Hook::ObjectAccess,
    Hook::ReferenceStore,
    Hook::StaticStore,
    Hook::ReturnValue,
];

fn frame(id: u64, depth: usize) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    }
}

fn verifying(config: CgConfig) -> CgConfig {
    CgConfig {
        verify_tainted: true,
        ..config
    }
}

/// A collector mid-run: `live` was allocated in the outermost open frame,
/// `subject` is the handle the case touches, and `frames` are the frames
/// still open, outermost first.
struct Scene<C> {
    gc: C,
    heap: Heap,
    live: Handle,
    subject: Handle,
    frames: Vec<FrameInfo>,
}

impl<C: Collector> Scene<C> {
    /// An outer frame holding `live`, an inner frame on top of it, and a
    /// subject allocated in the inner frame without telling the collector.
    fn open(mut gc: C) -> Self {
        let mut heap = Heap::new(HeapConfig::small());
        let (outer, inner) = (frame(1, 1), frame(2, 2));
        gc.on_frame_push(&outer);
        gc.on_frame_push(&inner);
        let live = heap.allocate(ClassId::new(0), 1).expect("fits");
        gc.on_allocate(live, &outer, &heap);
        let subject = heap.allocate(ClassId::new(0), 1).expect("fits");
        Scene {
            gc,
            heap,
            live,
            subject,
            frames: vec![outer, inner],
        }
    }

    /// Registers the subject in the inner frame and makes it dead.
    fn kill(mut self, state: DeadState) -> Self {
        let inner = self.frames[1];
        self.gc.on_allocate(self.subject, &inner, &self.heap);
        match state {
            DeadState::FreedAtPop | DeadState::OnRecycleList => {
                self.gc.on_frame_pop(&inner, &mut self.heap);
                self.frames.pop();
            }
            DeadState::PurgedWhileBlockLives => {
                // Only `live` is reachable: the sweep frees the subject while
                // the inner frame, and so its block, is still open.
                let roots = RootSet {
                    frames: vec![FrameRoots {
                        frame: self.frames[0],
                        refs: vec![self.live],
                    }],
                    statics: Vec::new(),
                    interpreter: Vec::new(),
                };
                self.gc.collect(&roots, &mut self.heap);
            }
        }
        let held = matches!(state, DeadState::OnRecycleList);
        assert_eq!(self.heap.is_live(self.subject), held, "{state:?}");
        self
    }

    /// Touches the subject through `hook` (a return pops its callee).
    fn touch(&mut self, hook: Hook) {
        let (subject, live) = (self.subject, self.live);
        let top = *self.frames.last().expect("a frame is open");
        match hook {
            Hook::ObjectAccess => self
                .gc
                .on_object_access(subject, ThreadId::MAIN, &self.heap),
            Hook::ReferenceStore => self.gc.on_reference_store(live, subject, &top, &self.heap),
            Hook::StaticStore => self.gc.on_static_store(subject, &self.heap),
            Hook::ReturnValue => {
                let callee = frame(9, top.depth + 1);
                self.gc.on_frame_push(&callee);
                self.gc.on_return_value(subject, &top, &callee);
                self.gc.on_frame_pop(&callee, &mut self.heap);
            }
        }
    }

    /// Pops every open frame, innermost first.
    fn unwind(&mut self) {
        while let Some(open) = self.frames.pop() {
            self.gc.on_frame_pop(&open, &mut self.heap);
        }
    }
}

/// Whether touching a subject in `state` through `hook` panics with a
/// soundness violation.
fn caught<C: Collector>(gc: C, state: DeadState, hook: Hook) -> Result<(), String> {
    let mut scene = Scene::open(gc).kill(state);
    let outcome = catch_unwind(AssertUnwindSafe(|| scene.touch(hook)));
    match outcome {
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            if message.contains("soundness violation") {
                Ok(())
            } else {
                Err(format!("{state:?} x {hook:?}: panicked with {message:?}"))
            }
        }
        Ok(()) => Err(format!("{state:?} x {hook:?}: no panic")),
    }
}

#[test]
fn touching_a_dead_object_through_any_hook_is_a_soundness_violation() {
    let config = verifying(CgConfig::default());
    let mut missed = Vec::new();
    for hook in HOOKS {
        let outcomes = [
            caught(
                ContaminatedGc::with_config(config),
                DeadState::FreedAtPop,
                hook,
            ),
            caught(
                HybridCollector::new(HybridConfig {
                    cg: config,
                    reset_on_collect: false,
                }),
                DeadState::PurgedWhileBlockLives,
                hook,
            ),
            caught(
                ContaminatedGc::with_config(verifying(CgConfig::with_recycling())),
                DeadState::OnRecycleList,
                hook,
            ),
        ];
        missed.extend(outcomes.into_iter().filter_map(Result::err));
    }
    assert!(missed.is_empty(), "{missed:#?}");
}

#[test]
fn a_never_seen_live_handle_is_registered_without_a_panic() {
    for hook in HOOKS {
        let gc = ContaminatedGc::with_config(verifying(CgConfig::default()));
        let mut scene = Scene::open(gc);
        scene.touch(hook);
        scene.unwind();
        // An access only reads a record; every other hook registers the
        // subject beside `live`.
        let created = match hook {
            Hook::ObjectAccess => 1,
            _ => 2,
        };
        assert_eq!(scene.gc.stats().objects_created, created, "{hook:?}");
    }
}
