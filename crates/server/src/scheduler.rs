//! The fixed worker pool's admission queue: a global FIFO with a hard
//! global bound and a per-tenant bound, both measured in
//! **worker-equivalent slots**.
//!
//! Backpressure is explicit and immediate — [`Scheduler::try_enqueue`]
//! never blocks and never buffers beyond the bounds; a full queue is a
//! `Busy` answer the client can retry, not an unbounded `VecDeque`.  The
//! queued item is the accepted connection itself, so a queued session
//! costs one socket and a tenant string, not trace bytes.
//!
//! A sharded session occupies [`QueuedSession::slots`] OS threads at
//! dequeue, not one, so admission charges that many slots against both
//! bounds — a tenant with a wide `shards` budget queues proportionally
//! fewer sessions instead of monopolizing the machine.  The first session
//! of a tenant (or of an empty queue) is always admissible even when its
//! weight alone exceeds the bound; otherwise a budget wider than the
//! queue could never be served at all.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

/// What kind of session a worker is about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// A complete `.cgt` upload (`SUBMIT`): answered after `END`; spooled
    /// when memoizing or under a multi-shard grant, else evaluated as it
    /// arrives.
    Upload,
    /// A live event stream (`STREAM`): evaluated incrementally with
    /// periodic `PROGRESS` frames.
    Stream,
}

/// One admitted session waiting for (or held by) a worker.
#[derive(Debug)]
pub struct QueuedSession {
    /// The tenant it is accounted under.
    pub tenant: String,
    /// The client connection, positioned just after its `SUBMIT` frame.
    pub stream: TcpStream,
    /// Bytes the handshake's buffered reader pulled off the socket past
    /// the `SUBMIT` frame (a client that streamed without waiting for
    /// `ACCEPTED`); the worker consumes these before the socket.
    pub leftover: Vec<u8>,
    /// Upload or live stream.
    pub kind: SessionKind,
    /// Worker-equivalent slots this session occupies when dequeued: the
    /// tenant's serving shard budget for uploads, 1 for live streams
    /// (which always evaluate single-threaded).  Charged against both
    /// admission bounds; values below 1 are treated as 1.
    pub slots: usize,
}

impl QueuedSession {
    fn weight(&self) -> usize {
        self.slots.max(1)
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The global queue is at capacity.
    GlobalFull {
        /// The configured global bound.
        cap: usize,
    },
    /// This tenant's queue is at capacity.
    TenantFull {
        /// The configured per-tenant bound.
        cap: usize,
    },
    /// The daemon is shutting down.
    ShuttingDown,
}

impl Rejected {
    /// The operator-facing reason string carried in the BUSY frame.
    pub fn reason(&self) -> String {
        match self {
            Rejected::GlobalFull { cap } => format!("global queue full ({cap}/{cap})"),
            Rejected::TenantFull { cap } => format!("tenant queue full ({cap}/{cap})"),
            Rejected::ShuttingDown => "shutting down".to_string(),
        }
    }
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<QueuedSession>,
    /// Queued worker-equivalent slots per tenant (admission accounting;
    /// session counts come from the queue itself).
    per_tenant: HashMap<String, usize>,
    queued_slots: usize,
    closed: bool,
}

/// Bounded admission queue shared by the acceptor and the worker pool.
#[derive(Debug)]
pub struct Scheduler {
    state: Mutex<State>,
    ready: Condvar,
    global_cap: usize,
    tenant_cap: usize,
}

impl Scheduler {
    /// A queue bounded at `global_cap` worker-equivalent slots total and
    /// `tenant_cap` per tenant (both at least 1).  Single-shard sessions
    /// weigh one slot each, so for them the bounds read as session
    /// counts, exactly as before sharding existed.
    pub fn new(global_cap: usize, tenant_cap: usize) -> Self {
        Self {
            state: Mutex::new(State::default()),
            ready: Condvar::new(),
            global_cap: global_cap.max(1),
            tenant_cap: tenant_cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits a session or rejects it immediately — never blocks.
    ///
    /// The session's [`weight`](QueuedSession::slots) is charged against
    /// both bounds.  The check is `current < cap` rather than
    /// `current + weight <= cap`, so a session wider than the whole bound
    /// is still admissible when the bound is idle — it just prevents
    /// anything else from queueing behind it.
    ///
    /// # Errors
    ///
    /// The [`Rejected`] bound that was hit.
    pub fn try_enqueue(&self, session: QueuedSession) -> Result<(), Rejected> {
        let mut state = self.lock();
        if state.closed {
            return Err(Rejected::ShuttingDown);
        }
        if state.queued_slots >= self.global_cap {
            return Err(Rejected::GlobalFull {
                cap: self.global_cap,
            });
        }
        let tenant_depth = state
            .per_tenant
            .get(session.tenant.as_str())
            .copied()
            .unwrap_or(0);
        if tenant_depth >= self.tenant_cap {
            return Err(Rejected::TenantFull {
                cap: self.tenant_cap,
            });
        }
        let weight = session.weight();
        *state.per_tenant.entry(session.tenant.clone()).or_default() += weight;
        state.queued_slots += weight;
        state.queue.push_back(session);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next session; `None` means the scheduler was closed
    /// and drained (the worker should exit).
    pub fn dequeue(&self) -> Option<QueuedSession> {
        let mut state = self.lock();
        loop {
            if let Some(session) = state.queue.pop_front() {
                let weight = session.weight();
                state.queued_slots = state.queued_slots.saturating_sub(weight);
                if let Some(depth) = state.per_tenant.get_mut(session.tenant.as_str()) {
                    *depth = depth.saturating_sub(weight);
                    if *depth == 0 {
                        state.per_tenant.remove(session.tenant.as_str());
                    }
                }
                return Some(session);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending sessions still drain, new submissions get
    /// [`Rejected::ShuttingDown`], idle workers wake and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Sessions currently queued (all tenants).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Per-tenant queued **session counts** (tenants with zero queued are
    /// absent) — the metrics renderer's source of truth for queue gauges.
    /// Counts sessions, not slots, so dashboards keep reading naturally.
    pub fn depths(&self) -> BTreeMap<String, usize> {
        let state = self.lock();
        let mut out = BTreeMap::new();
        for session in &state.queue {
            *out.entry(session.tenant.clone()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected socket pair to stand in for client connections.
    fn sock() -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let _server_end = listener.accept().expect("accept");
        client
    }

    fn weighted(tenant: &str, slots: usize) -> QueuedSession {
        QueuedSession {
            tenant: tenant.to_string(),
            stream: sock(),
            leftover: Vec::new(),
            kind: SessionKind::Upload,
            slots,
        }
    }

    fn session(tenant: &str) -> QueuedSession {
        weighted(tenant, 1)
    }

    #[test]
    fn bounds_are_enforced_per_tenant_and_globally() {
        let sched = Scheduler::new(3, 2);
        sched.try_enqueue(session("a")).expect("a1");
        sched.try_enqueue(session("a")).expect("a2");
        assert_eq!(
            sched.try_enqueue(session("a")).unwrap_err(),
            Rejected::TenantFull { cap: 2 },
            "third session for one tenant bounces"
        );
        sched.try_enqueue(session("b")).expect("b1");
        assert_eq!(
            sched.try_enqueue(session("c")).unwrap_err(),
            Rejected::GlobalFull { cap: 3 },
            "fourth session overall bounces"
        );
        // Draining frees both bounds.
        assert_eq!(sched.dequeue().expect("drain").tenant, "a");
        sched.try_enqueue(session("a")).expect("slot freed");
        assert_eq!(sched.depth(), 3);
    }

    /// The PR-10 regression: a queued sharded session must be charged its
    /// shard budget, not one slot — otherwise a wide tenant queues as
    /// many sessions as a narrow one and monopolizes the pool's threads
    /// at dequeue.  Two tenants, one sharded: both make progress.
    #[test]
    fn shard_budgets_are_charged_at_admission() {
        let sched = Scheduler::new(8, 4);
        sched
            .try_enqueue(weighted("wide", 4))
            .expect("first sharded session admitted");
        assert_eq!(
            sched.try_enqueue(weighted("wide", 4)).unwrap_err(),
            Rejected::TenantFull { cap: 4 },
            "a second 4-shard session would let one tenant hold 8 threads"
        );
        // The narrow tenant still makes progress in the remaining slots.
        for i in 0..4 {
            sched
                .try_enqueue(session("narrow"))
                .unwrap_or_else(|e| panic!("narrow #{i} admitted: {e:?}"));
        }
        assert_eq!(
            sched.try_enqueue(session("narrow")).unwrap_err(),
            Rejected::GlobalFull { cap: 8 },
            "4 sharded slots + 4 single slots fill the global bound"
        );
        assert_eq!(sched.depth(), 5, "depth() still counts sessions");
        assert_eq!(
            sched.depths(),
            BTreeMap::from([("wide".to_string(), 1), ("narrow".to_string(), 4)]),
            "queue gauges count sessions, not slots"
        );
        // Draining the sharded session frees its whole weight at once.
        assert_eq!(sched.dequeue().expect("drain").tenant, "wide");
        sched
            .try_enqueue(weighted("wide", 4))
            .expect("the full shard weight was released");
    }

    /// A budget wider than the whole queue is still serveable: the first
    /// session in an idle bound always fits.
    #[test]
    fn oversized_budget_is_admissible_when_idle() {
        let sched = Scheduler::new(2, 2);
        sched
            .try_enqueue(weighted("huge", 16))
            .expect("idle bound admits any single session");
        assert_eq!(
            sched.try_enqueue(session("huge")).unwrap_err(),
            Rejected::GlobalFull { cap: 2 },
            "but nothing queues behind it"
        );
        assert_eq!(
            sched.try_enqueue(session("other")).unwrap_err(),
            Rejected::GlobalFull { cap: 2 },
        );
        sched.dequeue().expect("drain");
        sched.try_enqueue(session("other")).expect("slots released");
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let sched = Scheduler::new(4, 4);
        sched.try_enqueue(session("a")).expect("enqueue");
        sched.close();
        assert_eq!(
            sched.try_enqueue(session("a")).unwrap_err(),
            Rejected::ShuttingDown
        );
        assert!(sched.dequeue().is_some(), "queued work still drains");
        assert!(sched.dequeue().is_none(), "then workers are told to exit");
    }
}
