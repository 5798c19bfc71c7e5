//! Partitioning a recorded trace into per-shard sub-streams.
//!
//! The paper's collector is naturally per-thread: each thread owns its frame
//! stack and the equilive blocks dependent on it, and the only cross-thread
//! coupling is the §3.3 static/thread-shared escalation.  The partitioner
//! turns that observation into data: it splits one recorded event stream
//! into `shard_count` `.cgt` shard sub-streams (threads map to shards
//! round-robin) such that N OS threads can each drive one collector shard
//! from one stream — with the few genuinely cross-thread points made
//! explicit as *wait edges*.  [`partition_streaming`] writes the shards to
//! any [`Write`] sinks (a `Vec<u8>` each, for a partition kept in memory);
//! [`partition_path_streaming`] partitions a `.cgt` file into a directory.
//!
//! # Routing
//!
//! Every event is assigned to exactly one shard — the shard whose state it
//! mutates:
//!
//! | event | shard |
//! |---|---|
//! | `Allocate`, `FramePush`, `FramePop`, `ReturnValue` | the executing thread's |
//! | `SlotWrite`, `StaticStore`, `ObjectAccess` | the touched object's **owner** (its allocating thread's shard) |
//! | `ReferenceStore` | the executing thread's |
//! | `Collect`, `ProgramEnd` | shard 0, as a barrier over all shards |
//!
//! Routing accesses and writes to the owner means a shard's view of its own
//! objects — including a foreign thread's §3.3 access that escalates one of
//! them — is totally ordered by its own stream, with no synchronisation at
//! all.  The one place a shard must observe *another* shard's progress is a
//! `ReferenceStore` with a foreign operand: per §3.3 that operand is already
//! static by this point in the global order, but the owning shard must have
//! *processed* the escalating event before the store can resolve the operand
//! through the shared static domain.  The partitioner therefore attaches a
//! [`ShardWait`] to such events: "shard S must have processed at least K of
//! its own events first", with K computed from the global order.  All wait
//! edges point backwards in the global sequence, so they can never deadlock.
//!
//! # Determinism
//!
//! Each event carries its global sequence number, so putting every shard
//! event back at its `seq` reassembles the original stream exactly — the
//! partition fidelity property `cg-fuzz` checks for every generated
//! program and shard count.
//! Replaying the streams on N threads under the wait edges is equivalent to
//! the single-threaded replay: every cross-shard read is ordered by a wait,
//! and the shared static domain's aggregate effects (effective-union count,
//! merged reasons, final partition) are independent of the order concurrent
//! unions interleave in.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use cg_vm::{GcEvent, Handle, ThreadId};

use crate::format::{FooterSection, StreamKind, TraceIoError, TraceMeta};
use crate::io::{open_trace, TraceWriter};

/// A prerequisite attached to a shard event: the named shard must have
/// processed at least `processed` events of its own stream first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWait {
    /// The shard whose progress is awaited.
    pub shard: u32,
    /// Minimum number of events that shard must have processed.
    pub processed: u64,
}

/// One event of a shard's sub-stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEvent {
    /// Position of the event in the original trace (global order).
    pub seq: u64,
    /// Cross-shard ordering prerequisites (empty for almost all events).
    pub waits: Vec<ShardWait>,
    /// The event itself.
    pub event: GcEvent,
}

/// Tracks which thread allocated each handle (the handle's *owner*).
#[derive(Debug, Default)]
struct OwnerMap {
    /// Raw thread id per handle index; `u32::MAX` = unseen.
    owners: Vec<u32>,
}

impl OwnerMap {
    fn set(&mut self, handle: Handle, thread: ThreadId) {
        let index = handle.index_usize();
        if self.owners.len() <= index {
            self.owners.resize(index + 1, u32::MAX);
        }
        self.owners[index] = thread.raw();
    }

    fn get(&self, handle: Handle) -> Option<ThreadId> {
        match self.owners.get(handle.index_usize()) {
            Some(&raw) if raw != u32::MAX => Some(ThreadId::new(raw)),
            _ => None,
        }
    }
}

/// Adds a wait, merging with an existing wait on the same shard.
fn add_wait(waits: &mut Vec<ShardWait>, shard: usize, processed: u64) {
    if processed == 0 {
        return; // trivially satisfied
    }
    let shard = shard as u32;
    if let Some(w) = waits.iter_mut().find(|w| w.shard == shard) {
        w.processed = w.processed.max(processed);
    } else {
        waits.push(ShardWait { shard, processed });
    }
}

/// The stateful routing core of [`partition_streaming`] and of the routed
/// evaluation ([`parallel_eval_routed_governed`](crate::parallel_eval_routed_governed)):
/// applies the module's routing and wait rules one event at a time, holding
/// only the owner map and per-shard counters — never the events themselves.
pub(crate) struct EventRouter {
    shard_count: usize,
    /// Events already routed to each shard (= "processed" count a wait on
    /// that shard can require at this point in the global order).
    counts: Vec<u64>,
    /// Barrier-release waits to attach to a shard's next event.
    pending: Vec<Vec<ShardWait>>,
    owners: OwnerMap,
    cross_thread_syncs: u64,
}

impl EventRouter {
    pub(crate) fn new(shard_count: usize) -> Self {
        assert!(shard_count > 0, "cannot partition into zero shards");
        Self {
            shard_count,
            counts: vec![0; shard_count],
            pending: vec![Vec::new(); shard_count],
            owners: OwnerMap::default(),
            cross_thread_syncs: 0,
        }
    }

    fn shard_of(&self, thread: ThreadId) -> usize {
        thread.raw() as usize % self.shard_count
    }

    /// Routes the next event in global order: returns its shard and leaves
    /// its wait edges in `waits`, with `scratch` as working space.  Both
    /// must be empty on entry; `scratch` is empty again on return.  A
    /// caller that keeps the two buffers routes without allocating.
    pub(crate) fn route(
        &mut self,
        event: &GcEvent,
        scratch: &mut Vec<ShardWait>,
        waits: &mut Vec<ShardWait>,
    ) -> usize {
        let mut barrier = false;
        let shard = match event {
            GcEvent::Allocate { handle, frame, .. } => {
                // A recycled allocation re-registers the handle under the
                // (possibly different) recycling thread.
                self.owners.set(*handle, frame.thread);
                self.shard_of(frame.thread)
            }
            GcEvent::SlotWrite { object, .. } => self
                .owners
                .get(*object)
                .map(|t| self.shard_of(t))
                .unwrap_or_else(|| self.shard_of(ThreadId::MAIN)),
            GcEvent::ObjectAccess { handle, thread } => {
                let accessor = self.shard_of(*thread);
                let owner = self
                    .owners
                    .get(*handle)
                    .map(|t| self.shard_of(t))
                    .unwrap_or(accessor);
                if owner != accessor {
                    self.cross_thread_syncs += 1;
                }
                owner
            }
            GcEvent::ReferenceStore {
                source,
                target,
                frame,
            } => {
                let p = self.shard_of(frame.thread);
                for operand in [source, target] {
                    if let Some(o) = self.owners.get(*operand).map(|t| self.shard_of(t)) {
                        if o != p {
                            // The owner must have processed everything that
                            // globally precedes this store — in particular
                            // the §3.3 escalation of this operand.
                            add_wait(scratch, o, self.counts[o]);
                            self.cross_thread_syncs += 1;
                        }
                    }
                }
                p
            }
            GcEvent::StaticStore { target } => self
                .owners
                .get(*target)
                .map(|t| self.shard_of(t))
                .unwrap_or_else(|| self.shard_of(ThreadId::MAIN)),
            GcEvent::ReturnValue { caller, .. } => self.shard_of(caller.thread),
            GcEvent::FramePush { frame } | GcEvent::FramePop { frame } => {
                self.shard_of(frame.thread)
            }
            GcEvent::Collect { .. } | GcEvent::ProgramEnd { .. } => {
                // Global barrier: shard 0 runs the event only after every
                // shard has caught up, and every shard waits for shard 0 to
                // finish it before continuing.
                for (s, &count) in self.counts.iter().enumerate() {
                    if s != 0 {
                        add_wait(scratch, s, count);
                    }
                }
                self.cross_thread_syncs += 1;
                barrier = true;
                0
            }
        };

        // The barrier-release waits first: taken over whole into an empty
        // buffer, copied into one that keeps its capacity.
        if waits.capacity() == 0 {
            std::mem::swap(waits, &mut self.pending[shard]);
        } else {
            waits.append(&mut self.pending[shard]);
        }
        for wait in scratch.drain(..) {
            add_wait(waits, wait.shard as usize, wait.processed);
        }
        self.counts[shard] += 1;

        if barrier {
            // Release: other shards may only continue once shard 0 has
            // processed the barrier event itself.
            let released = self.counts[0];
            for (s, slot) in self.pending.iter_mut().enumerate() {
                if s != 0 {
                    add_wait(slot, 0, released);
                }
            }
        }

        shard
    }
}

/// Name of the footer section carrying whole-partition totals in per-shard
/// `.cgt` files.
const SHARD_SECTION: &str = "shard";

/// Where a streaming partition put its per-shard `.cgt` files, plus the
/// whole-partition totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedPaths {
    /// One `.cgt` file per shard, index-ordered.
    pub paths: Vec<PathBuf>,
    /// Number of shards.
    pub shard_count: usize,
    /// Events across all shards.
    pub total_events: u64,
    /// Cross-thread synchronisation points made explicit.
    pub cross_thread_syncs: u64,
}

/// Streams a whole trace through the partitioner, writing one `.cgt` shard
/// sub-stream into each of `sinks` (shard `i` into `sinks[i]`), with O(chunk)
/// memory beyond the sinks: no shard stream is ever materialized as events.
///
/// `meta` supplies the headers of the shard streams (name, workload, heap,
/// `gc_every`); its stream kind is overridden per shard and its declared
/// event count dropped.  Every shard's footer carries a `"shard"` section
/// with the whole partition's totals.
///
/// Returns the finished sinks, in shard order, and the number of
/// cross-thread synchronisation points the partitioner made explicit.
///
/// # Errors
///
/// Any [`TraceIoError`] from the input iterator or the shard writers.
///
/// # Panics
///
/// Panics if `sinks` is empty.
pub fn partition_streaming<I, W>(
    events: I,
    meta: &TraceMeta,
    sinks: Vec<W>,
) -> Result<(Vec<W>, u64), TraceIoError>
where
    I: IntoIterator<Item = Result<GcEvent, TraceIoError>>,
    W: Write,
{
    let shard_count = sinks.len();
    let mut router = EventRouter::new(shard_count);
    let mut writers = Vec::with_capacity(shard_count);
    for (shard, sink) in sinks.into_iter().enumerate() {
        let shard_meta = TraceMeta {
            declared_events: None,
            stream: StreamKind::Shard {
                shard: shard as u32,
                shard_count: shard_count as u32,
            },
            ..meta.clone()
        };
        writers.push(TraceWriter::new(sink, &shard_meta)?);
    }

    let mut seq = 0u64;
    for event in events {
        let event = event?;
        let mut waits = Vec::new();
        let shard = router.route(&event, &mut Vec::new(), &mut waits);
        writers[shard].push_shard(&ShardEvent { seq, waits, event })?;
        seq += 1;
    }

    let totals = |shard: usize| FooterSection {
        name: SHARD_SECTION.to_string(),
        entries: vec![
            ("shard".to_string(), shard as u64),
            ("shard_count".to_string(), shard_count as u64),
            ("total_events".to_string(), seq),
            ("cross_thread_syncs".to_string(), router.cross_thread_syncs),
        ],
    };
    let mut sinks = Vec::with_capacity(shard_count);
    for (shard, mut writer) in writers.into_iter().enumerate() {
        writer.add_section(totals(shard));
        sinks.push(writer.finish()?.0);
    }
    Ok((sinks, router.cross_thread_syncs))
}

/// [`partition_streaming`] over an existing plain `.cgt` file, carrying the
/// source header's metadata into one shard file per shard in `dir`
/// (`shard-<i>-of-<n>.cgt`).
///
/// # Errors
///
/// Any [`TraceIoError`] from the source or the shard writers.
///
/// # Panics
///
/// Panics if `shard_count` is zero.
pub fn partition_path_streaming(
    src: impl AsRef<Path>,
    shard_count: usize,
    dir: impl AsRef<Path>,
) -> Result<PartitionedPaths, TraceIoError> {
    let mut reader = open_trace(src)?;
    let meta = reader.meta().clone();
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let paths: Vec<PathBuf> = (0..shard_count)
        .map(|shard| dir.join(format!("shard-{shard}-of-{shard_count}.cgt")))
        .collect();
    let files = paths
        .iter()
        .map(|path| File::create(path).map(BufWriter::new))
        .collect::<Result<Vec<_>, _>>()?;
    let (_, cross_thread_syncs) = partition_streaming(reader.events(), &meta, files)?;
    Ok(PartitionedPaths {
        paths,
        shard_count,
        total_events: reader.events_read(),
        cross_thread_syncs,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::io::TraceReader;
    use cg_vm::{AllocKind, ClassId, FrameId, FrameInfo, MethodId, RootSet};

    /// Partitions `events` into `shards` in-memory shard streams and
    /// decodes them back: each shard's events, and the cross-thread
    /// synchronisation count.
    fn split(events: &[GcEvent], shards: usize) -> (Vec<Vec<ShardEvent>>, u64) {
        let (bytes, syncs) = partition_streaming(
            events.iter().cloned().map(Ok),
            &TraceMeta::default(),
            vec![Vec::new(); shards],
        )
        .expect("in-memory partition");
        let streams = bytes
            .iter()
            .map(|b| {
                let mut reader = TraceReader::new(&b[..]).expect("shard header");
                reader
                    .shard_events()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("shard decodes")
            })
            .collect();
        (streams, syncs)
    }

    /// Puts every shard event back at its global sequence number.
    fn merge(streams: &[Vec<ShardEvent>]) -> Vec<GcEvent> {
        let mut slots: Vec<Option<GcEvent>> = vec![None; streams.iter().map(Vec::len).sum()];
        for ev in streams.iter().flatten() {
            let slot = &mut slots[ev.seq as usize];
            assert!(slot.is_none(), "event {} routed twice", ev.seq);
            *slot = Some(ev.event.clone());
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every sequence number is routed to one shard"))
            .collect()
    }

    fn frame(id: u64, depth: usize, thread: u32) -> FrameInfo {
        FrameInfo {
            id: FrameId::new(id),
            depth,
            thread: ThreadId::new(thread),
            method: MethodId::new(0),
        }
    }

    fn h(i: u32) -> Handle {
        Handle::from_index(i)
    }

    fn alloc(handle: Handle, thread: u32) -> GcEvent {
        GcEvent::Allocate {
            handle,
            class: ClassId::new(0),
            kind: AllocKind::Instance { field_count: 1 },
            frame: frame(1 + thread as u64, 1, thread),
            recycled: false,
        }
    }

    /// A two-thread stream with a cross-thread access and store.
    fn cross_thread_trace() -> Vec<GcEvent> {
        vec![
            GcEvent::FramePush {
                frame: frame(1, 1, 0),
            },
            alloc(h(0), 0),
            GcEvent::FramePush {
                frame: frame(2, 1, 1),
            },
            alloc(h(1), 1),
            // Thread 1 touches thread 0's object (the §3.3 escalation)...
            GcEvent::ObjectAccess {
                handle: h(0),
                thread: ThreadId::new(1),
            },
            // ...then stores it into its own object.
            GcEvent::ReferenceStore {
                source: h(1),
                target: h(0),
                frame: frame(2, 1, 1),
            },
            GcEvent::FramePop {
                frame: frame(2, 1, 1),
            },
            GcEvent::FramePop {
                frame: frame(1, 1, 0),
            },
            GcEvent::ProgramEnd {
                roots: Box::new(RootSet::default()),
            },
        ]
    }

    #[test]
    fn single_shard_routes_everything_to_stream_zero() {
        let trace = cross_thread_trace();
        let (streams, _) = split(&trace, 1);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].len(), trace.len());
        // No cross-shard waits exist with one shard.
        assert!(streams[0].iter().all(|e| e.waits.is_empty()));
    }

    #[test]
    fn cross_thread_access_is_routed_to_the_owner() {
        let trace = cross_thread_trace();
        let (streams, syncs) = split(&trace, 2);
        // The ObjectAccess on thread 0's object (seq 4) must sit in shard
        // 0's stream even though thread 1 performed it.
        let shard0_seqs: Vec<u64> = streams[0].iter().map(|e| e.seq).collect();
        assert!(shard0_seqs.contains(&4), "{shard0_seqs:?}");
        assert!(syncs >= 2);
    }

    #[test]
    fn foreign_operand_store_waits_for_the_owner() {
        let trace = cross_thread_trace();
        let (streams, _) = split(&trace, 2);
        // The store (seq 5) runs in shard 1 and must wait until shard 0 has
        // processed its first three events (push, alloc, access).
        let store = streams[1]
            .iter()
            .find(|e| e.seq == 5)
            .expect("store in shard 1");
        assert_eq!(
            store.waits,
            vec![ShardWait {
                shard: 0,
                processed: 3
            }]
        );
    }

    #[test]
    fn program_end_is_a_barrier_on_shard_zero() {
        let trace = cross_thread_trace();
        let (streams, _) = split(&trace, 2);
        let end = streams[0].last().expect("shard 0 holds the barrier");
        assert!(matches!(end.event, GcEvent::ProgramEnd { .. }));
        // It waits for shard 1's four events (push, alloc, store, pop).
        assert_eq!(
            end.waits,
            vec![ShardWait {
                shard: 1,
                processed: 4
            }]
        );
    }

    #[test]
    fn merge_reproduces_the_original_order() {
        let trace = cross_thread_trace();
        for shards in [1, 2, 3, 4, 8] {
            assert_eq!(merge(&split(&trace, shards).0), trace, "{shards} shards");
        }
    }

    #[test]
    fn waits_always_point_backwards_in_the_global_order() {
        // A wait at global position g may only require events with seq < g:
        // the count it requires must not exceed the number of that shard's
        // events preceding g.  (Forward edges could deadlock.)
        let trace = cross_thread_trace();
        for shards in [2, 3, 4] {
            let (streams, _) = split(&trace, shards);
            for stream in &streams {
                for ev in stream {
                    for w in &ev.waits {
                        let preceding = streams[w.shard as usize]
                            .iter()
                            .filter(|other| other.seq < ev.seq)
                            .count() as u64;
                        assert!(
                            w.processed <= preceding,
                            "shards={shards} seq={} wait {:?} but only {} precede",
                            ev.seq,
                            w,
                            preceding
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_shards_is_rejected() {
        let _ = split(&[], 0);
    }

    /// A unique, clean scratch directory under the system temp dir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cgt-partition-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A file partitioned into a directory holds exactly the bytes the
    /// same partition writes into memory.
    #[test]
    fn streaming_partition_round_trips_through_disk() {
        let trace = cross_thread_trace();
        let meta = TraceMeta {
            name: "cross".to_string(),
            ..TraceMeta::default()
        };
        let dir = scratch_dir("rt");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let src = dir.join("cross.cgt");
        let mut writer = TraceWriter::new(Vec::new(), &meta).expect("writer");
        for event in &trace {
            writer.push(event).expect("push");
        }
        std::fs::write(&src, writer.finish().expect("finish").0).expect("write source");
        for shards in [1, 2, 3] {
            let placed = partition_path_streaming(&src, shards, dir.join(format!("{shards}")))
                .expect("partition");
            assert_eq!(placed.shard_count, shards);
            assert_eq!(placed.total_events, trace.len() as u64);
            assert_eq!(placed.paths.len(), shards);

            let (in_memory, syncs) = partition_streaming(
                trace.iter().cloned().map(Ok),
                &meta,
                vec![Vec::new(); shards],
            )
            .expect("in-memory partition");
            assert_eq!(placed.cross_thread_syncs, syncs);
            for (path, bytes) in placed.paths.iter().zip(&in_memory) {
                assert_eq!(
                    &std::fs::read(path).expect("shard file"),
                    bytes,
                    "{shards} shards"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A random event soup over 1–4 threads, valid enough for the
    /// partitioner: handles are allocated before use.  With `escalate`,
    /// every reference store with an operand another thread allocated is
    /// preceded by the storing thread's access to it — the §3.3 escalation
    /// a sharded evaluation relies on — so the stream also replays.
    pub(crate) fn random_stream(seed: u64, escalate: bool) -> Vec<GcEvent> {
        use cg_testutil::TestRng;
        let mut rng = TestRng::new(seed);
        let threads = rng.gen_range(1, 5) as u32;
        let mut trace = Vec::new();
        let mut allocated: Vec<(Handle, u32)> = Vec::new();
        let mut next_handle = 0u32;
        for t in 0..threads {
            trace.push(GcEvent::FramePush {
                frame: frame(1 + t as u64, 1, t),
            });
        }
        for _ in 0..rng.gen_range(5, 120) {
            let t = rng.gen_range(0, threads as usize) as u32;
            if allocated.len() < 2 || rng.gen_bool(0.4) {
                let handle = h(next_handle);
                next_handle += 1;
                trace.push(alloc(handle, t));
                allocated.push((handle, t));
            } else if rng.gen_bool(0.5) {
                let (handle, _) = allocated[rng.gen_range(0, allocated.len())];
                trace.push(GcEvent::ObjectAccess {
                    handle,
                    thread: ThreadId::new(t),
                });
            } else {
                let a = allocated[rng.gen_range(0, allocated.len())];
                let b = allocated[rng.gen_range(0, allocated.len())];
                if escalate {
                    for (handle, owner) in [a, b] {
                        if owner != t {
                            trace.push(GcEvent::ObjectAccess {
                                handle,
                                thread: ThreadId::new(t),
                            });
                        }
                    }
                }
                trace.push(GcEvent::ReferenceStore {
                    source: a.0,
                    target: b.0,
                    frame: frame(1 + t as u64, 1, t),
                });
            }
        }
        trace.push(GcEvent::ProgramEnd {
            roots: Box::new(RootSet::default()),
        });
        trace
    }

    mod properties {
        use super::*;

        /// Random event soups partition into streams that merge back to the
        /// original, for every shard count, with backward waits only.
        #[test]
        fn random_streams_round_trip() {
            for seed in 0..64u64 {
                let trace = random_stream(seed, false);
                for shards in [1, 2, 3, 5, 8] {
                    let (streams, _) = split(&trace, shards);
                    assert_eq!(merge(&streams), trace, "seed {seed}, {shards} shards");
                    for (shard, stream) in streams.iter().enumerate() {
                        // Streams are seq-ascending.
                        assert!(
                            stream.windows(2).all(|w| w[0].seq < w[1].seq),
                            "seed {seed}"
                        );
                        for ev in stream {
                            for w in &ev.waits {
                                assert_ne!(w.shard as usize, shard, "self-wait, seed {seed}");
                                let preceding = streams[w.shard as usize]
                                    .iter()
                                    .filter(|other| other.seq < ev.seq)
                                    .count() as u64;
                                assert!(w.processed <= preceding, "seed {seed}");
                            }
                        }
                    }
                }
            }
        }
    }
}
