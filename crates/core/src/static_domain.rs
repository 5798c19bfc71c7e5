//! The static domain: the one piece of collector state shared across shards.
//!
//! The paper's design is naturally per-thread — each thread owns its frame
//! stack and the equilive blocks dependent on those frames — and the only
//! cross-thread coupling is the §3.3 rule: an object reachable from a static
//! variable, or touched by more than one thread, must be treated as live for
//! the rest of the program.  The sharded collector makes that coupling
//! explicit: every [`CollectorShard`](crate::CollectorShard) keeps its own
//! union/find forest, frame index, per-object records and recycle list,
//! and the *static set* alone lives here, shared by every shard.
//!
//! A shard never unions blocks across shard boundaries.  Instead, a block
//! that becomes static is *escalated*: it gets a node in this domain's own
//! union/find forest, its members are registered in the handle → node map
//! (so a store executed by a foreign thread can resolve them), and all
//! further identity questions about it — "are these two static blocks the
//! same block?", "why is this block static?" — are answered by the domain.
//! Cross-shard stores therefore reduce to unions of *domain nodes*, which is
//! both rare (escalation happens once per block) and cheap.
//!
//! # Two implementations
//!
//! The domain is a [`DomainImpl`] switch over two behaviourally-equivalent
//! representations, selected by [`CgConfig::domain_impl`](crate::CgConfig):
//!
//! * [`DomainImpl::Atomic`] (the default) — a lock-free union/find
//!   forest (§3.5's packed words held in atomics) for block identity, one
//!   atomic reason word per node, and a striped-lock members map.  Unions
//!   are CAS-linearised, finds are wait-free, and no operation takes a
//!   global lock, so shards on many cores no longer serialise on the
//!   domain.
//! * [`DomainImpl::Mutex`] — the original single-structure model behind an
//!   `RwLock`, kept as the differential reference the fuzzer and the
//!   stress tests drive against the atomic implementation.  Read-only
//!   queries (`same_block`, `reason`, `node_of`, the stats accessors) take
//!   the shared lock and use compression-free finds; only the mutating
//!   operations take the exclusive lock.
//!
//! # Memory-ordering contract (atomic implementation)
//!
//! *Which results may be stale, and why that is sound.*  The domain's state
//! is **monotone**: nodes are only ever created, sets only ever merge, and
//! a node's reason only moves up the `NotStatic < StaticReference <
//! ThreadShared` lattice (thread-sharing notes are the one conditional
//! step, and they are CAS-linearised).  §3.3 is what makes monotone state
//! sufficient — a block that enters the static set stays in it for the rest
//! of the program — so a reader that observes a *former* root, or a reason
//! that a racing upgrade is still propagating, observes a true earlier
//! state of the same monotonically-growing relation:
//!
//! * [`StaticDomain::same_block`] is linearisable (it re-validates the
//!   first root before answering "different").
//! * [`StaticDomain::node_of`] and the node returned by
//!   [`StaticDomain::union`]-adjacent paths may name a node that has since
//!   been absorbed; any later `find` through it reaches the current root.
//! * [`StaticDomain::reason`] may lag an in-flight concurrent upgrade; once
//!   the shard threads join (which is when statistics are aggregated) all
//!   reads are exact.
//!
//! Reason updates follow a *flow-join* protocol: every writer updates the
//! cell of the root it resolved, then re-checks that the node is still a
//! root (`SeqCst`, forming a single total order with the link CAS inside
//! the lock-free forest's `try_union`); if
//! a union absorbed that root in the meantime, the writer re-joins the
//! cell's accumulated value into the new root.  The union path symmetrically
//! re-reads the loser's cell *after* the link.  Between the two, no upgrade
//! can be stranded on a stale root, and because [`merge_reasons`] is a
//! commutative, associative, idempotent join, the order in which concurrent
//! upgrades land is irrelevant.
//!
//! Determinism: the number of *effective* domain unions equals the number of
//! escalated blocks minus the number of final static blocks, and the merged
//! reason of a static block is the lattice join of its constituents' reasons
//! — both independent of the order concurrent shards perform the unions in.
//! That is what makes the aggregated `CgStats` of a parallel sharded
//! evaluation byte-identical to a single-threaded replay.
//!
//! # `Clone` snapshot semantics
//!
//! `Clone` takes a *point-in-time copy*: under the mutex implementation it
//! holds the lock, so the copy is globally consistent; under the atomic
//! implementation each word, reason cell and members stripe is read
//! atomically but one at a time, so a clone raced by concurrent mutation is
//! a monotone cut — every union it contains is fully applied or absent, and
//! every reason it contains was held at some point.  The copy is also
//! self-contained: its element count is fixed at the start of the copy, and
//! a racing link from a copied node to a node created after that point is
//! replaced by a fresh root during the copy, so lookups inside the clone
//! never leave its own element range.  Clone quiescent state (as the
//! collector does: snapshots happen between evaluations) and the copy is
//! exact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use cg_vm::Handle;

use crate::atomic::AtomicForest;
use crate::equilive::StaticReason;
use crate::packed::PackedForest;

/// Identity of one escalated (static) block inside the domain.
pub type StaticNodeId = u32;

/// Which [`StaticDomain`] implementation a collector uses.
///
/// Both implementations are behaviourally equivalent (the fuzzer asserts
/// identical `CgStats`/`ObjectBreakdown` across them); the atomic one is
/// the production default, the mutex one the differential model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DomainImpl {
    /// Lock-free forest + striped members map (the default).
    #[default]
    Atomic,
    /// The original global-lock model, retained as the reference.
    Mutex,
}

/// Merges the reasons of two static blocks: the join of the
/// `NotStatic < StaticReference < ThreadShared` lattice.
///
/// This is a commutative, associative, **idempotent** maximum (property
/// tested in `tests/concurrent_domain.rs`), which is what makes concurrent
/// reason upgrades commute: however racing shards interleave their unions
/// and upgrades, a block's final reason is the join of everything that was
/// ever joined into it.
pub fn merge_reasons(a: StaticReason, b: StaticReason) -> StaticReason {
    a.max(b)
}

// ---------------------------------------------------------------------
// mutex model (the differential reference)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct DomainInner {
    /// Union/find over escalated blocks.
    forest: PackedForest,
    /// Indexed by node id; authoritative at set roots.
    reasons: Vec<StaticReason>,
    /// Every object belonging to an escalated block, by the node it was
    /// registered under (resolve with a find — nodes merge).
    members: HashMap<Handle, StaticNodeId>,
    /// Blocks ever escalated into the domain (diagnostic).
    promotions: u64,
}

/// The original model: one structure behind an `RwLock`.  Mutating
/// operations take the exclusive lock; queries take the shared lock and use
/// compression-free finds, so concurrent readers never serialise on each
/// other.
#[derive(Debug, Default)]
struct MutexDomain {
    inner: RwLock<DomainInner>,
}

impl MutexDomain {
    fn write(&self) -> std::sync::RwLockWriteGuard<'_, DomainInner> {
        self.inner.write().expect("static domain lock poisoned")
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, DomainInner> {
        self.inner.read().expect("static domain lock poisoned")
    }

    fn insert(&self, reason: StaticReason) -> StaticNodeId {
        let mut inner = self.write();
        let node = inner.forest.make_set();
        debug_assert_eq!(node as usize, inner.reasons.len());
        inner.reasons.push(reason);
        inner.promotions += 1;
        node
    }

    fn union(&self, a: StaticNodeId, b: StaticNodeId) -> bool {
        let mut inner = self.write();
        let ra = inner.forest.find(a);
        let rb = inner.forest.find(b);
        if ra == rb {
            return false;
        }
        let merged = merge_reasons(inner.reasons[ra as usize], inner.reasons[rb as usize]);
        let outcome = inner.forest.union_roots(ra, rb);
        inner.reasons[outcome.root as usize] = merged;
        true
    }

    fn same_block(&self, a: StaticNodeId, b: StaticNodeId) -> bool {
        let inner = self.read();
        inner.forest.find_immutable(a) == inner.forest.find_immutable(b)
    }

    fn reason(&self, node: StaticNodeId) -> StaticReason {
        let inner = self.read();
        inner.reasons[inner.forest.find_immutable(node) as usize]
    }

    fn note_thread_shared(&self, node: StaticNodeId) {
        let mut inner = self.write();
        let root = inner.forest.find(node);
        if inner.reasons[root as usize] == StaticReason::NotStatic {
            inner.reasons[root as usize] = StaticReason::ThreadShared;
        }
    }

    fn absorb_nonstatic(&self, node: StaticNodeId) {
        let mut inner = self.write();
        let root = inner.forest.find(node);
        let joined = merge_reasons(inner.reasons[root as usize], StaticReason::StaticReference);
        inner.reasons[root as usize] = joined;
    }

    fn register_members(&self, handles: &[Handle], node: StaticNodeId) {
        let mut inner = self.write();
        for &handle in handles {
            inner.members.insert(handle, node);
        }
    }

    fn node_of(&self, handle: Handle) -> Option<StaticNodeId> {
        let inner = self.read();
        let node = *inner.members.get(&handle)?;
        Some(inner.forest.find_immutable(node))
    }
}

// ---------------------------------------------------------------------
// atomic model (the production default)
// ---------------------------------------------------------------------

/// Encoded `StaticReason` for the atomic cells, in lattice order so
/// `fetch_max` *is* [`merge_reasons`].
const NOT_STATIC: u8 = 0;
const STATIC_REFERENCE: u8 = 1;
const THREAD_SHARED: u8 = 2;

fn encode_reason(reason: StaticReason) -> u8 {
    match reason {
        StaticReason::NotStatic => NOT_STATIC,
        StaticReason::StaticReference => STATIC_REFERENCE,
        StaticReason::ThreadShared => THREAD_SHARED,
    }
}

fn decode_reason(bits: u8) -> StaticReason {
    match bits {
        NOT_STATIC => StaticReason::NotStatic,
        STATIC_REFERENCE => StaticReason::StaticReference,
        _ => StaticReason::ThreadShared,
    }
}

/// Per-node reason cells in the same 32-segment ladder as
/// [`AtomicForest`]'s words: segment `k` holds the `2^k` cells for nodes
/// `[2^k - 1, 2^(k+1) - 2]`, allocated on first touch and pre-filled with
/// `NOT_STATIC` (the lattice bottom), so growth never moves a cell under a
/// concurrent reader.
#[derive(Default)]
struct ReasonCells {
    segments: [OnceLock<Box<[AtomicU8]>>; 32],
}

impl ReasonCells {
    fn cell(&self, node: StaticNodeId) -> &AtomicU8 {
        let segment = (node + 1).ilog2() as usize;
        let cells = self.segments[segment].get_or_init(|| {
            (0..1usize << segment)
                .map(|_| AtomicU8::new(NOT_STATIC))
                .collect()
        });
        &cells[(node + 1) as usize - (1usize << segment)]
    }
}

/// Number of stripes in the members map.  Escalation traffic hashes
/// handles across this many independent `Mutex<HashMap>` shards; 64 is far
/// above any realistic shard-thread count, so two threads registering or
/// resolving members rarely touch the same lock.
const MEMBER_STRIPES: usize = 64;

/// The striped-lock `Handle -> StaticNodeId` map.
struct StripedMembers {
    stripes: [Mutex<HashMap<Handle, StaticNodeId>>; MEMBER_STRIPES],
}

impl Default for StripedMembers {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl StripedMembers {
    fn stripe(&self, handle: Handle) -> &Mutex<HashMap<Handle, StaticNodeId>> {
        &self.stripes[handle.index_usize() % MEMBER_STRIPES]
    }

    fn lock(&self, handle: Handle) -> std::sync::MutexGuard<'_, HashMap<Handle, StaticNodeId>> {
        self.stripe(handle).lock().expect("members stripe poisoned")
    }

    fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("members stripe poisoned").len())
            .sum()
    }
}

/// The lock-free domain: block identity in an [`AtomicForest`], one atomic
/// reason cell per node (authoritative at roots, flowed upward when roots
/// merge), members striped across [`MEMBER_STRIPES`] locks.
#[derive(Default)]
struct AtomicDomain {
    forest: AtomicForest,
    reasons: ReasonCells,
    members: StripedMembers,
    promotions: AtomicU64,
}

impl std::fmt::Debug for AtomicDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicDomain")
            .field("forest", &self.forest)
            .field("promotions", &self.promotions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AtomicDomain {
    fn insert(&self, reason: StaticReason) -> StaticNodeId {
        let node = self.forest.make_set();
        // The node is unpublished until the caller hands it out, so a plain
        // store (no join) is safe here.
        self.reasons
            .cell(node)
            .store(encode_reason(reason), Ordering::Release);
        self.promotions.fetch_add(1, Ordering::AcqRel);
        node
    }

    /// Joins `bits` into the reason of the class currently containing
    /// `node` — the flow-join protocol.  After updating the cell of the
    /// root it resolved, the writer re-checks rootness with `SeqCst` (one
    /// total order with the union link CAS): if the root was absorbed in
    /// the window, the accumulated cell value is re-joined into the new
    /// root, so no upgrade is ever stranded on a stale root.
    fn flow_join(&self, node: StaticNodeId, mut bits: u8) {
        let mut root = self.forest.find(node);
        loop {
            let cell = self.reasons.cell(root);
            cell.fetch_max(bits, Ordering::SeqCst);
            if self.forest.is_root(root) {
                return;
            }
            bits = cell.load(Ordering::SeqCst);
            root = self.forest.find(root);
        }
    }

    fn union(&self, a: StaticNodeId, b: StaticNodeId) -> bool {
        match self.forest.try_union(a, b) {
            None => false,
            Some((winner, loser)) => {
                // Re-read the loser's cell *after* the link: an upgrade
                // that landed there before the link is carried here; one
                // that lands after will itself observe the link (SeqCst)
                // and flow its value up.
                let lost = self.reasons.cell(loser).load(Ordering::SeqCst);
                self.flow_join(winner, lost);
                true
            }
        }
    }

    fn reason(&self, node: StaticNodeId) -> StaticReason {
        loop {
            let root = self.forest.find(node);
            let bits = self.reasons.cell(root).load(Ordering::SeqCst);
            if self.forest.is_root(root) {
                return decode_reason(bits);
            }
        }
    }

    fn note_thread_shared(&self, node: StaticNodeId) {
        let root = self.forest.find(node);
        let cell = self.reasons.cell(root);
        // §3.3 upgrade is conditional, not a join: thread sharing refines
        // only an indefinite reason, so a definite `StaticReference` must
        // not be overwritten.  The CAS linearises the decision; on failure
        // the class had a definite reason and the note is a no-op.
        if cell
            .compare_exchange(
                NOT_STATIC,
                THREAD_SHARED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return;
        }
        if self.forest.is_root(root) {
            return;
        }
        // Our upgrade landed on a root a racing union just absorbed; flow
        // the accumulated value to the current root.
        let bits = cell.load(Ordering::SeqCst);
        self.flow_join(root, bits);
    }

    fn absorb_nonstatic(&self, node: StaticNodeId) {
        // Under the join lattice, "an indefinite reason becomes
        // StaticReference" is exactly a join with `StaticReference`.
        self.flow_join(node, STATIC_REFERENCE);
    }

    fn register_members(&self, handles: &[Handle], node: StaticNodeId) {
        for &handle in handles {
            self.members.lock(handle).insert(handle, node);
        }
    }

    fn node_of(&self, handle: Handle) -> Option<StaticNodeId> {
        let node = *self.members.lock(handle).get(&handle)?;
        Some(self.forest.find(node))
    }

    fn snapshot(&self) -> AtomicDomain {
        let forest = self.forest.snapshot();
        let reasons = ReasonCells::default();
        for node in 0..forest.len() as u32 {
            reasons.cell(node).store(
                self.reasons.cell(node).load(Ordering::Acquire),
                Ordering::Release,
            );
        }
        let members = StripedMembers::default();
        let len = forest.len() as u32;
        for (i, stripe) in self.members.stripes.iter().enumerate() {
            // Drop entries registered to nodes created after the forest
            // copy fixed its length, so every node the snapshot can hand
            // out exists in its own forest (matches the forest snapshot's
            // re-rootification of racing links past the boundary).
            *members.stripes[i].lock().expect("members stripe poisoned") = stripe
                .lock()
                .expect("members stripe poisoned")
                .iter()
                .filter(|&(_, &node)| node < len)
                .map(|(&handle, &node)| (handle, node))
                .collect();
        }
        AtomicDomain {
            forest,
            reasons,
            members,
            promotions: AtomicU64::new(self.promotions.load(Ordering::Acquire)),
        }
    }
}

// ---------------------------------------------------------------------
// the public switch
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Repr {
    Mutex(MutexDomain),
    Atomic(Box<AtomicDomain>),
}

/// The shared static set: thread-shared and statically-referenced blocks,
/// owned jointly by all shards (§3.3).  See the module docs for the
/// concurrency contract.
#[derive(Debug)]
pub struct StaticDomain {
    repr: Repr,
}

impl Default for StaticDomain {
    fn default() -> Self {
        Self::with_impl(DomainImpl::default())
    }
}

impl Clone for StaticDomain {
    /// A point-in-time copy; see the module docs for the exact semantics
    /// under concurrent mutation.
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Mutex(m) => StaticDomain {
                repr: Repr::Mutex(MutexDomain {
                    inner: RwLock::new(m.read().clone()),
                }),
            },
            Repr::Atomic(a) => StaticDomain {
                repr: Repr::Atomic(Box::new(a.snapshot())),
            },
        }
    }
}

impl StaticDomain {
    /// Creates an empty domain with the default (atomic) implementation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty domain with an explicit implementation.
    pub fn with_impl(which: DomainImpl) -> Self {
        let repr = match which {
            DomainImpl::Mutex => Repr::Mutex(MutexDomain::default()),
            DomainImpl::Atomic => Repr::Atomic(Box::default()),
        };
        StaticDomain { repr }
    }

    /// Escalates a new block into the domain, returning its node.
    pub fn insert(&self, reason: StaticReason) -> StaticNodeId {
        match &self.repr {
            Repr::Mutex(m) => m.insert(reason),
            Repr::Atomic(a) => a.insert(reason),
        }
    }

    /// Unions two static blocks, returning whether they were distinct (the
    /// store barrier counts exactly the effective unions; the count is
    /// order-independent across racing shards).
    pub fn union(&self, a: StaticNodeId, b: StaticNodeId) -> bool {
        match &self.repr {
            Repr::Mutex(m) => m.union(a, b),
            Repr::Atomic(d) => d.union(a, b),
        }
    }

    /// Whether two nodes name the same static block (linearisable).
    pub fn same_block(&self, a: StaticNodeId, b: StaticNodeId) -> bool {
        match &self.repr {
            Repr::Mutex(m) => m.same_block(a, b),
            Repr::Atomic(d) => d.forest.same_set(a, b),
        }
    }

    /// Why the block of `node` is static.  May lag an in-flight concurrent
    /// upgrade; exact whenever the domain is quiescent (see module docs).
    pub fn reason(&self, node: StaticNodeId) -> StaticReason {
        match &self.repr {
            Repr::Mutex(m) => m.reason(node),
            Repr::Atomic(d) => d.reason(node),
        }
    }

    /// Records a §3.3 cross-thread access on an already-static block.
    ///
    /// Mirrors the single-shard collector exactly: thread sharing upgrades
    /// the recorded reason only when the block had no definite reason yet
    /// (`NotStatic`, possible only for conservatively registered blocks); a
    /// block already diagnosed `StaticReference` keeps that diagnosis.
    pub fn note_thread_shared(&self, node: StaticNodeId) {
        match &self.repr {
            Repr::Mutex(m) => m.note_thread_shared(node),
            Repr::Atomic(d) => d.note_thread_shared(node),
        }
    }

    /// Records that a non-static block was dragged into the static block of
    /// `node` (a union whose other operand was not yet static): joins
    /// `StaticReference` into the block's reason, turning an indefinite
    /// `NotStatic` into a definite diagnosis.
    pub fn absorb_nonstatic(&self, node: StaticNodeId) {
        match &self.repr {
            Repr::Mutex(m) => m.absorb_nonstatic(node),
            Repr::Atomic(d) => d.absorb_nonstatic(node),
        }
    }

    /// Registers objects as members of the static block of `node`, making
    /// them resolvable by shards that do not own them.
    pub fn register_members(&self, handles: &[Handle], node: StaticNodeId) {
        match &self.repr {
            Repr::Mutex(m) => m.register_members(handles, node),
            Repr::Atomic(d) => d.register_members(handles, node),
        }
    }

    /// The static block containing `handle`, if the object has been
    /// escalated.  This is how a shard resolves a store operand it does not
    /// own: per §3.3 such an operand must already be static.
    pub fn node_of(&self, handle: Handle) -> Option<StaticNodeId> {
        match &self.repr {
            Repr::Mutex(m) => m.node_of(handle),
            Repr::Atomic(d) => d.node_of(handle),
        }
    }

    /// Number of blocks ever escalated into the domain.
    pub fn promotions(&self) -> u64 {
        match &self.repr {
            Repr::Mutex(m) => m.read().promotions,
            Repr::Atomic(d) => d.promotions.load(Ordering::Acquire),
        }
    }

    /// Number of distinct static blocks right now.
    pub fn block_count(&self) -> usize {
        match &self.repr {
            Repr::Mutex(m) => m.read().forest.set_count(),
            Repr::Atomic(d) => d.forest.set_count(),
        }
    }

    /// Number of registered static objects.
    pub fn member_count(&self) -> usize {
        match &self.repr {
            Repr::Mutex(m) => m.read().members.len(),
            Repr::Atomic(d) => d.members.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> Handle {
        Handle::from_index(i)
    }

    const BOTH: [DomainImpl; 2] = [DomainImpl::Atomic, DomainImpl::Mutex];

    /// Which implementation `domain` runs on.
    fn impl_kind(domain: &StaticDomain) -> DomainImpl {
        match &domain.repr {
            Repr::Mutex(_) => DomainImpl::Mutex,
            Repr::Atomic(_) => DomainImpl::Atomic,
        }
    }

    #[test]
    fn default_domain_is_atomic() {
        assert_eq!(impl_kind(&StaticDomain::new()), DomainImpl::Atomic);
        assert_eq!(
            impl_kind(&StaticDomain::with_impl(DomainImpl::Mutex)),
            DomainImpl::Mutex
        );
    }

    #[test]
    fn insert_union_and_reason_merge() {
        for which in BOTH {
            let domain = StaticDomain::with_impl(which);
            let a = domain.insert(StaticReason::StaticReference);
            let b = domain.insert(StaticReason::ThreadShared);
            assert_eq!(domain.block_count(), 2, "{which:?}");
            assert!(!domain.same_block(a, b), "{which:?}");
            assert!(domain.union(a, b), "{which:?}");
            assert!(!domain.union(a, b), "{which:?}: second union is a no-op");
            assert!(domain.same_block(a, b), "{which:?}");
            // Thread sharing is the dominant diagnosis.
            assert_eq!(domain.reason(a), StaticReason::ThreadShared, "{which:?}");
            assert_eq!(domain.block_count(), 1, "{which:?}");
            assert_eq!(domain.promotions(), 2, "{which:?}");
        }
    }

    #[test]
    fn effective_union_count_is_order_independent() {
        // Three nodes, three union ops: any execution order yields exactly
        // two effective unions (3 initial blocks -> 1 final block).
        let ops: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
        let orders = [
            vec![0usize, 1, 2],
            vec![2, 1, 0],
            vec![1, 0, 2],
            vec![1, 2, 0],
        ];
        for which in BOTH {
            for order in orders.iter() {
                let domain = StaticDomain::with_impl(which);
                let nodes: Vec<_> = (0..3)
                    .map(|_| domain.insert(StaticReason::StaticReference))
                    .collect();
                let effective = order
                    .iter()
                    .filter(|&&i| domain.union(nodes[ops[i].0], nodes[ops[i].1]))
                    .count();
                assert_eq!(effective, 2, "{which:?}");
            }
        }
    }

    #[test]
    fn member_registration_resolves_through_unions() {
        for which in BOTH {
            let domain = StaticDomain::with_impl(which);
            let a = domain.insert(StaticReason::StaticReference);
            let b = domain.insert(StaticReason::StaticReference);
            domain.register_members(&[h(1), h(2)], a);
            domain.register_members(&[h(9)], b);
            assert_eq!(domain.member_count(), 3, "{which:?}");
            assert_eq!(domain.node_of(h(7)), None, "{which:?}");
            domain.union(a, b);
            let ra = domain.node_of(h(1)).unwrap();
            let rb = domain.node_of(h(9)).unwrap();
            assert_eq!(ra, rb, "{which:?}: members resolve to the merged block");
        }
    }

    #[test]
    fn thread_shared_note_upgrades_only_indefinite_reasons() {
        for which in BOTH {
            let domain = StaticDomain::with_impl(which);
            let definite = domain.insert(StaticReason::StaticReference);
            domain.note_thread_shared(definite);
            assert_eq!(
                domain.reason(definite),
                StaticReason::StaticReference,
                "{which:?}"
            );
            let indefinite = domain.insert(StaticReason::NotStatic);
            domain.note_thread_shared(indefinite);
            assert_eq!(
                domain.reason(indefinite),
                StaticReason::ThreadShared,
                "{which:?}"
            );
            let indefinite2 = domain.insert(StaticReason::NotStatic);
            domain.absorb_nonstatic(indefinite2);
            assert_eq!(
                domain.reason(indefinite2),
                StaticReason::StaticReference,
                "{which:?}"
            );
        }
    }

    #[test]
    fn clone_snapshots_the_domain() {
        for which in BOTH {
            let domain = StaticDomain::with_impl(which);
            let a = domain.insert(StaticReason::StaticReference);
            domain.register_members(&[h(4)], a);
            let copy = domain.clone();
            assert_eq!(impl_kind(&copy), which);
            let b = domain.insert(StaticReason::ThreadShared);
            domain.union(a, b);
            assert_eq!(copy.block_count(), 1, "{which:?}");
            assert_eq!(copy.reason(a), StaticReason::StaticReference, "{which:?}");
            assert_eq!(copy.node_of(h(4)), Some(a), "{which:?}");
        }
    }

    #[test]
    fn domain_is_shareable_across_threads() {
        for which in BOTH {
            let domain = StaticDomain::with_impl(which);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            let n = domain.insert(StaticReason::StaticReference);
                            domain.reason(n);
                        }
                    });
                }
            });
            assert_eq!(domain.promotions(), 400, "{which:?}");
        }
    }

    #[test]
    fn merge_is_the_lattice_join() {
        use StaticReason::*;
        assert_eq!(merge_reasons(NotStatic, NotStatic), NotStatic);
        assert_eq!(merge_reasons(NotStatic, StaticReference), StaticReference);
        assert_eq!(merge_reasons(ThreadShared, StaticReference), ThreadShared);
        assert_eq!(merge_reasons(StaticReference, ThreadShared), ThreadShared);
    }
}
