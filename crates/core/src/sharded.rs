//! The sharded contaminated collector: N per-thread shards, one shared
//! static domain, driven from a single event stream.
//!
//! [`ShardedGc`] is the sequential face of the sharded design: it implements
//! [`Collector`], so it can sit in a live VM or under a trace replay exactly
//! like [`ContaminatedGc`](crate::ContaminatedGc), but internally it routes
//! every event to the shard owning the affected state:
//!
//! * allocations, frame pushes/pops and recycled allocations go to the shard
//!   of the executing thread (the object's *owner* from then on);
//! * object accesses and static stores go to the shard owning the touched
//!   object (only that shard's block changes);
//! * reference stores are processed by the executing thread's shard; an
//!   operand owned by a *different* shard is first escalated to the shared
//!   [`StaticDomain`] per §3.3 — handing an object across a shard boundary
//!   proves it is reachable from a foreign thread — and the store then
//!   reduces to a union of domain nodes.  Shards never union blocks across
//!   shard boundaries.
//!
//! With `shard_count == 1` every event lands in the single shard and the
//! code path is exactly [`ContaminatedGc`](crate::ContaminatedGc)'s.  For
//! event streams recorded
//! from the VM the escalation rule never fires early (every cross-thread
//! access precedes the store that uses the object), so the aggregated
//! statistics are byte-identical to the single-shard collector's **for every
//! shard count** — the invariant the `cg-bench` equivalence tests pin down.
//!
//! One caveat: §3.7 **recycling** bins are per-shard (a shard's allocations
//! are only served from its own corpses; shards never touch each other's
//! free lists).  The single-shard collector searches one global recycle
//! list, so under `CgConfig::with_recycling()` a multi-shard run can
//! legitimately recycle fewer objects than the 1-shard run — the
//! byte-identical guarantee covers the non-recycling configurations
//! (recycling also makes the allocation stream collector-dependent: a
//! recycling recording replays exactly only under the 1-shard collector
//! that recorded it; see `cg-trace`).  Rather than silently produce stats outside the guarantee, construction
//! **rejects** recycling configs with more than one shard:
//! [`ShardedGc::new`] panics.  A 1-shard recycling collector is exactly the
//! global-list collector and remains allowed.
//!
//! The parallel evaluation in `cg-trace` (`parallel_eval_governed`) uses the
//! same [`CollectorShard`] code on real OS threads, with each shard driven from its partitioned
//! sub-stream (`cg-trace`'s partitioner) instead of through this sequential
//! router.

use cg_vm::{ClassId, CollectOutcome, Collector, FrameInfo, Handle, Heap, RootSet, ThreadId};

use crate::collector::CgConfig;
use crate::shard::{aggregate_stats, CollectorShard, StoreOperand};
use crate::static_domain::StaticDomain;
use crate::stats::{CgStats, ObjectBreakdown};

/// A contaminated collector whose mutable state is split into per-thread
/// shards plus one shared static domain.
#[derive(Debug, Clone)]
pub struct ShardedGc {
    shards: Vec<CollectorShard>,
    domain: StaticDomain,
    /// Owner shard per handle index (`u32::MAX` = not yet seen).
    owner: Vec<u32>,
    breakdown: Option<ObjectBreakdown>,
    name: String,
}

impl ShardedGc {
    /// Creates a collector with `shard_count` shards (threads map to shards
    /// round-robin: thread *t* lives in shard `t % shard_count`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — zero shards, or a §3.7
    /// recycling config with more than one shard (see the module docs for
    /// why multi-shard recycling is rejected).
    pub fn new(shard_count: usize, config: CgConfig) -> Self {
        assert!(
            shard_count > 0,
            "a sharded collector needs at least one shard"
        );
        // Per-shard recycle bins make the aggregated stats diverge from the
        // single-shard collector, which would silently break the
        // byte-identical stats guarantee.
        assert!(
            !config.recycling || shard_count == 1,
            "recycling configs are limited to one shard (got {shard_count}): \
             per-shard recycle bins fall outside the byte-identical stats \
             guarantee; use shard_count=1 or disable recycling"
        );
        Self {
            shards: (0..shard_count)
                .map(|_| CollectorShard::new(config))
                .collect(),
            domain: StaticDomain::with_impl(config.domain_impl),
            owner: Vec::new(),
            breakdown: None,
            name: format!("cg-sharded-{shard_count}"),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a thread's state lives in.
    pub fn shard_of(&self, thread: ThreadId) -> usize {
        thread.raw() as usize % self.shards.len()
    }

    /// The shards (for per-shard statistics).
    pub fn shards(&self) -> &[CollectorShard] {
        &self.shards
    }

    /// The shared static domain.
    pub fn domain(&self) -> &StaticDomain {
        &self.domain
    }

    /// Aggregated statistics across all shards, with the thread-shared
    /// total taken from the aggregated breakdown once the program has ended
    /// (exactly how the single-shard collector reports it).
    pub fn stats(&self) -> CgStats {
        let mut stats = aggregate_stats(self.shards.iter().map(CollectorShard::stats));
        if let Some(b) = self.breakdown {
            stats.objects_thread_shared = b.thread_shared;
        }
        stats
    }

    /// Final disposition of every created object, aggregated across shards.
    pub fn breakdown(&mut self) -> ObjectBreakdown {
        match self.breakdown {
            Some(b) => b,
            None => self.compute_breakdown(),
        }
    }

    fn compute_breakdown(&mut self) -> ObjectBreakdown {
        crate::shard::aggregate_shards(self.shards.iter_mut(), &self.domain).1
    }

    fn owner_shard(&self, handle: Handle) -> Option<usize> {
        match self.owner.get(handle.index_usize()) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    fn set_owner(&mut self, handle: Handle, shard: usize) {
        if self.owner.len() <= handle.index_usize() {
            self.owner.resize(handle.index_usize() + 1, u32::MAX);
        }
        self.owner[handle.index_usize()] = shard as u32;
    }

    /// Classifies a store operand for the processing shard `p`: owned
    /// locally, or escalated through its owner shard per §3.3.
    fn store_operand(
        &mut self,
        handle: Handle,
        p: usize,
        frame: &FrameInfo,
        heap: &Heap,
    ) -> StoreOperand {
        match self.owner_shard(handle) {
            Some(o) if o != p => {
                let node = self.shards[o].escalate_for_sharing(handle, frame, heap, &self.domain);
                StoreOperand::Static(node)
            }
            Some(_) => StoreOperand::Owned(handle),
            // Never seen: the processing shard registers the handle
            // conservatively (like the 1-shard path) and owns it from here.
            None => {
                self.set_owner(handle, p);
                StoreOperand::Owned(handle)
            }
        }
    }
}

impl Collector for ShardedGc {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_allocate(&mut self, handle: Handle, frame: &FrameInfo, _heap: &Heap) {
        let s = self.shard_of(frame.thread);
        // A conservatively registered handle (static store or return value
        // seen before its allocation) may already live in another shard;
        // this allocation re-registers the incarnation under the allocating
        // thread, so the stale bookkeeping moves out of the old shard —
        // mirroring the 1-shard collector, where register() overwrites the
        // slot in place.
        if let Some(o) = self.owner_shard(handle) {
            if o != s {
                self.shards[o].forget(handle);
            }
        }
        self.set_owner(handle, s);
        self.shards[s].on_allocate(handle, frame, &self.domain);
    }

    fn on_reference_store(
        &mut self,
        source: Handle,
        target: Handle,
        frame: &FrameInfo,
        heap: &Heap,
    ) {
        let p = self.shard_of(frame.thread);
        let s = self.store_operand(source, p, frame, heap);
        let t = self.store_operand(target, p, frame, heap);
        self.shards[p].on_reference_store_between(s, t, frame, heap, &self.domain);
    }

    fn on_static_store(&mut self, target: Handle, heap: &Heap) {
        let o = match self.owner_shard(target) {
            Some(o) => o,
            // Never seen: shard 0 registers it conservatively against the
            // static pseudo-frame and owns the incarnation from here.
            None => {
                self.set_owner(target, 0);
                0
            }
        };
        self.shards[o].on_static_store(target, heap, &self.domain);
    }

    fn on_return_value(&mut self, value: Handle, caller: &FrameInfo, callee: &FrameInfo) {
        let p = self.shard_of(caller.thread);
        match self.owner_shard(value) {
            // A value owned by a foreign shard is provably a no-op: its
            // dependent frame is on another thread (or static), and frames
            // of different threads are never comparable.
            Some(o) if o != p => {}
            owner => {
                if owner.is_none() {
                    // Conservative registration in the caller's shard.
                    self.set_owner(value, p);
                }
                self.shards[p].on_return_value(value, caller, callee, &self.domain)
            }
        }
    }

    fn on_frame_pop(&mut self, frame: &FrameInfo, heap: &mut Heap) -> CollectOutcome {
        let p = self.shard_of(frame.thread);
        self.shards[p].on_frame_pop(frame, heap)
    }

    fn on_object_access(&mut self, handle: Handle, thread: ThreadId, heap: &Heap) {
        let Some(o) = self.owner_shard(handle) else {
            return;
        };
        self.shards[o].on_object_access(handle, thread, heap, &self.domain);
    }

    fn try_recycled_alloc(
        &mut self,
        class: ClassId,
        field_count: usize,
        frame: &FrameInfo,
        heap: &mut Heap,
    ) -> Option<Handle> {
        let p = self.shard_of(frame.thread);
        self.shards[p].try_recycled_alloc(class, field_count, heap)
    }

    fn on_program_end(&mut self, _roots: &RootSet, _heap: &mut Heap) {
        let breakdown = self.compute_breakdown();
        self.breakdown = Some(breakdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ContaminatedGc;
    use cg_vm::{ClassDef, FrameId, Insn, MethodDef, MethodId, Program, Vm, VmConfig};

    fn frame(id: u64, depth: usize, thread: u32) -> FrameInfo {
        FrameInfo {
            id: FrameId::new(id),
            depth,
            thread: ThreadId::new(thread),
            method: MethodId::new(0),
        }
    }

    /// A multi-threaded program: main allocates a batch that two workers
    /// traverse (thread-shared), each worker churns through private
    /// temporaries, and everyone reads a static chain.
    fn threaded_program() -> Program {
        let mut p = Program::new();
        let c = p.add_class(ClassDef::new("Node", 2));
        let s = p.add_static();
        let worker = p.add_method(MethodDef::new(
            "worker",
            1,
            4,
            vec![
                // Touch the shared argument.
                Insn::GetField {
                    object: 0,
                    field: 0,
                    dst: 1,
                },
                // Private temporaries, one chained pair.
                Insn::New { class: c, dst: 1 },
                Insn::New { class: c, dst: 2 },
                Insn::PutField {
                    object: 1,
                    field: 0,
                    value: 2,
                },
                // Store the static head into a private temp (§3.4 case).
                Insn::GetStatic {
                    static_id: s,
                    dst: 3,
                },
                Insn::New { class: c, dst: 2 },
                Insn::PutField {
                    object: 2,
                    field: 1,
                    value: 3,
                },
                Insn::Return { value: None },
            ],
        ));
        let main = p.add_method(MethodDef::new(
            "main",
            0,
            3,
            vec![
                Insn::New { class: c, dst: 0 },
                Insn::PutStatic {
                    static_id: s,
                    value: 0,
                },
                Insn::New { class: c, dst: 1 },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![1],
                },
                Insn::SpawnThread {
                    method: worker,
                    args: vec![1],
                },
                Insn::New { class: c, dst: 2 },
                Insn::Return { value: None },
            ],
        ));
        p.set_entry(main);
        p
    }

    fn run_sharded(shards: usize) -> (CgStats, ObjectBreakdown) {
        let mut vm = Vm::new(
            threaded_program(),
            VmConfig::small(),
            ShardedGc::new(shards, CgConfig::default()),
        );
        vm.run().expect("program runs");
        let breakdown = vm.collector_mut().breakdown();
        (vm.collector().stats(), breakdown)
    }

    #[test]
    fn live_sharded_runs_match_the_single_shard_collector() {
        let mut vm = Vm::new(threaded_program(), VmConfig::small(), ContaminatedGc::new());
        vm.run().expect("program runs");
        let single_breakdown = vm.collector_mut().breakdown();
        let single_stats = vm.collector().stats().clone();
        for shards in [1, 2, 3, 4, 8] {
            let (stats, breakdown) = run_sharded(shards);
            assert_eq!(stats, single_stats, "{shards} shards");
            assert_eq!(breakdown, single_breakdown, "{shards} shards");
        }
    }

    #[test]
    fn shards_partition_the_objects() {
        let mut vm = Vm::new(
            threaded_program(),
            VmConfig::small(),
            ShardedGc::new(3, CgConfig::default()),
        );
        vm.run().expect("program runs");
        let cg = vm.collector();
        assert_eq!(cg.shard_count(), 3);
        assert_eq!(cg.name(), "cg-sharded-3");
        // Three threads, three shards: every shard created some objects,
        // and the totals add up.
        let per_shard: Vec<u64> = cg
            .shards()
            .iter()
            .map(|s| s.stats().objects_created)
            .collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), cg.stats().objects_created);
        // The shared batch lives in the domain.
        assert!(cg.domain().member_count() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedGc::new(0, CgConfig::default());
    }

    #[test]
    fn conservative_registration_moves_with_a_later_allocation() {
        // The defensive path: a StaticStore names a handle the collector has
        // never seen (no Allocate yet), and the handle is then allocated by
        // a thread mapping to a *different* shard.  The conservative
        // incarnation must move out of shard 0 with the allocation, exactly
        // like the 1-shard collector's register() overwriting the slot —
        // otherwise the object would be double-counted in the breakdown.
        use cg_heap::HeapConfig;
        use cg_vm::{ClassId, RootSet};
        let drive = |collector: &mut dyn Collector| {
            let mut heap = cg_vm::Heap::new(HeapConfig::small());
            let h0 = heap.allocate(ClassId::new(0), 1).expect("fits");
            collector.on_static_store(h0, &heap);
            // Thread 1 maps to shard 1 of 2.
            collector.on_allocate(h0, &frame(5, 1, 1), &heap);
            collector.on_program_end(&RootSet::default(), &mut heap);
        };
        let mut single = ContaminatedGc::new();
        drive(&mut single);
        let mut sharded = ShardedGc::new(2, CgConfig::default());
        drive(&mut sharded);
        assert_eq!(sharded.stats(), *single.stats());
        assert_eq!(sharded.breakdown(), single.breakdown());
        assert_eq!(sharded.breakdown().total(), 1, "no double counting");
    }

    #[test]
    fn multi_shard_recycling_is_rejected_at_construction() {
        // Pin the contract: per-shard recycle bins fall outside the
        // byte-identical stats guarantee, so the combination must be an
        // explicit construction error — not a silently-divergent collector.
        let rejection = |shard_count, config| {
            let payload = std::panic::catch_unwind(|| ShardedGc::new(shard_count, config))
                .expect_err("construction must be rejected");
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("a message payload")
        };
        // The message names both the cause and the remedies.
        let message = rejection(4, CgConfig::with_recycling());
        assert!(message.contains("recycling"), "{message}");
        assert!(message.contains("one shard (got 4)"), "{message}");
        assert!(rejection(0, CgConfig::default()).contains("at least one shard"));
    }

    #[test]
    #[should_panic(expected = "recycling configs are limited to one shard")]
    fn multi_shard_recycling_panics_in_new() {
        let _ = ShardedGc::new(2, CgConfig::with_recycling());
    }

    #[test]
    fn single_shard_recycling_still_allowed() {
        // One shard is exactly the global-recycle-list collector, so the
        // guarantee holds and construction must keep working.
        let sharded = ShardedGc::new(1, CgConfig::with_recycling());
        assert_eq!(sharded.shard_count(), 1);
    }
}
