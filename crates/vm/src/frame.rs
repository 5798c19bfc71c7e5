//! Activation records (frames) and threads.
//!
//! Each frame carries two identities the contaminated collector cares about:
//! a globally unique [`FrameId`] (used to key the per-frame lists of equilive
//! blocks) and its *depth* within its thread's stack (used to decide which of
//! two frames is older when equilive blocks merge and to measure the
//! birth-to-death frame distance of Figure 4.6).

use crate::program::MethodId;
use cg_heap::Value;

/// Globally unique identity of one activation record.
///
/// Frame ids are minted monotonically by the VM; they are never reused, so
/// collector-side maps keyed by frame id cannot be confused by stack
/// push/pop cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    /// The distinguished "frame 0" of the paper: the conceptual oldest frame
    /// that holds all static references and is only popped when the program
    /// ends.
    pub const STATIC: FrameId = FrameId(0);

    /// Creates a frame id from a raw value.
    pub const fn new(raw: u64) -> Self {
        FrameId(raw)
    }

    /// The raw value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the static pseudo-frame.
    pub fn is_static(self) -> bool {
        self == Self::STATIC
    }
}

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_static() {
            write!(f, "frame-static")
        } else {
            write!(f, "frame{}", self.0)
        }
    }
}

/// Identifier of a VM thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The main thread.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Creates a thread id from a raw index.
    pub const fn new(raw: u32) -> Self {
        ThreadId(raw)
    }

    /// The raw index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The collector-visible description of a frame.
///
/// This is what every [`Collector`](crate::Collector) hook receives: enough
/// to key per-frame structures (`id`), order frames by age within a thread
/// (`depth`), attribute the frame to a thread (§3.3) and identify the running
/// method for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameInfo {
    /// The frame's unique identity.
    pub id: FrameId,
    /// Stack depth within the owning thread: the thread's entry frame has
    /// depth 1 (depth 0 is reserved for the static pseudo-frame).
    pub depth: usize,
    /// The thread the frame belongs to.
    pub thread: ThreadId,
    /// The method executing in the frame.
    pub method: MethodId,
}

impl FrameInfo {
    /// The description of the static pseudo-frame ("frame 0") of `thread`'s
    /// program.  Objects dependent on it are never collected by CG.
    pub fn static_frame() -> Self {
        FrameInfo {
            id: FrameId::STATIC,
            depth: 0,
            thread: ThreadId::MAIN,
            method: MethodId::new(u32::MAX),
        }
    }
}

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The collector-visible description of the frame.
    pub info: FrameInfo,
    /// The program counter (index into the method's bytecode).
    pub pc: usize,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Where the caller wants the return value stored, if anywhere.
    pub return_dst: Option<u16>,
}

impl Frame {
    /// Creates a frame for `info` with `max_locals` null-initialised slots
    /// and the given arguments copied into the first slots.
    pub fn new(
        info: FrameInfo,
        max_locals: usize,
        args: &[Value],
        return_dst: Option<u16>,
    ) -> Self {
        let mut locals = vec![Value::NULL; max_locals];
        locals[..args.len()].copy_from_slice(args);
        Self {
            info,
            pc: 0,
            locals,
            return_dst,
        }
    }

    /// Creates a frame that takes ownership of an already-prepared locals
    /// vector.  The interpreter's cached-call fast path uses this with a
    /// pooled vector so pushing a frame allocates nothing.
    pub fn with_locals(info: FrameInfo, locals: Vec<Value>, return_dst: Option<u16>) -> Self {
        Self {
            info,
            pc: 0,
            locals,
            return_dst,
        }
    }

    /// The handles currently referenced by this frame's locals.
    pub fn local_references(&self) -> Vec<cg_heap::Handle> {
        self.locals.iter().filter_map(Value::as_handle).collect()
    }
}

/// The run state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadStatus {
    /// The thread has frames to execute.
    Runnable,
    /// The thread has returned from its entry method.
    Finished,
}

/// One VM thread: an identity plus its stack of frames.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// The thread's identity.
    pub id: ThreadId,
    /// The frame stack; the entry frame is at index 0, the active frame at
    /// the end.
    pub stack: Vec<Frame>,
    /// Whether the thread still has work.
    pub status: ThreadStatus,
}

impl ThreadState {
    /// Creates a runnable thread with an empty stack.
    pub fn new(id: ThreadId) -> Self {
        Self {
            id,
            stack: Vec::new(),
            status: ThreadStatus::Runnable,
        }
    }

    /// The currently active frame, if any.
    pub fn current_frame(&self) -> Option<&Frame> {
        self.stack.last()
    }

    /// Mutable access to the currently active frame, if any.
    pub fn current_frame_mut(&mut self) -> Option<&mut Frame> {
        self.stack.last_mut()
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_heap::Handle;

    #[test]
    fn static_frame_is_oldest() {
        let static_frame = FrameInfo::static_frame();
        let young = FrameInfo {
            id: FrameId::new(5),
            depth: 3,
            thread: ThreadId::MAIN,
            method: MethodId::new(0),
        };
        assert!(static_frame.id.is_static());
        assert!(FrameId::STATIC.is_static());
        assert!(!young.id.is_static());
    }

    #[test]
    fn frame_copies_arguments_into_locals() {
        let info = FrameInfo {
            id: FrameId::new(3),
            depth: 2,
            thread: ThreadId::MAIN,
            method: MethodId::new(1),
        };
        let h = Handle::from_index(9);
        let frame = Frame::new(info, 4, &[Value::from(h), Value::Int(7)], Some(2));
        assert_eq!(frame.locals.len(), 4);
        assert_eq!(frame.locals[0].as_handle(), Some(h));
        assert_eq!(frame.locals[1].as_int(), Some(7));
        assert!(frame.locals[2].is_null());
        assert_eq!(frame.return_dst, Some(2));
        assert_eq!(frame.local_references(), vec![h]);
    }

    #[test]
    fn thread_state_tracks_stack() {
        let mut t = ThreadState::new(ThreadId::new(2));
        assert_eq!(t.depth(), 0);
        assert!(t.current_frame().is_none());
        assert_eq!(t.status, ThreadStatus::Runnable);
        let info = FrameInfo {
            id: FrameId::new(1),
            depth: 1,
            thread: t.id,
            method: MethodId::new(0),
        };
        t.stack.push(Frame::new(info, 1, &[], None));
        assert_eq!(t.depth(), 1);
        assert!(t.current_frame().is_some());
        t.current_frame_mut().unwrap().pc = 5;
        assert_eq!(t.current_frame().unwrap().pc, 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FrameId::STATIC.to_string(), "frame-static");
        assert_eq!(FrameId::new(3).to_string(), "frame3");
        assert_eq!(ThreadId::new(1).to_string(), "t1");
    }
}
