//! In-memory spans for the traced run.
//!
//! Real spans (name, start, end, parent, session id) are recorded at
//! iteration / session / phase boundaries.  Per-event costs are never one
//! span per event: they are accumulated as (sum, count) inside a phase and
//! attached to it as one *aggregate* child span per accumulator, laid end
//! to end from the phase's start.  A layer's self time is then, uniformly,
//! its spans' durations minus the part their children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use cg_stats::Json;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// Spans of one iteration or session share this id.
    pub session: u64,
    /// The crate whose public call the span wraps (`bench` for the
    /// benchmark's own loops, checks and timer calls).
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// For an aggregate span, how many timed intervals it sums.
    pub count: Option<u64>,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span holder panics")
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new real span; `f` gets the span's id to parent
    /// its own children on.
    pub fn span<T>(
        &self,
        parent: Option<SpanId>,
        session: u64,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                parent,
                session,
                layer,
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                count: None,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Records a real span whose interval was measured by the caller.
    pub fn record(
        &self,
        parent: Option<SpanId>,
        session: u64,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.lock().push(Span {
            parent,
            session,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns,
            count: None,
        });
    }

    /// Attaches accumulated (layer, name, total ns, count) costs to
    /// `parent` as aggregate children, end to end from its start.
    pub fn aggregates(&self, parent: SpanId, costs: &[(&'static str, &str, f64, u64)]) {
        let mut spans = self.lock();
        let session = spans[parent].session;
        let mut cursor = spans[parent].start_ns;
        for &(layer, name, total_ns, count) in costs {
            if count == 0 {
                continue;
            }
            let duration = total_ns.max(0.0) as u64;
            spans.push(Span {
                parent: Some(parent),
                session,
                layer,
                name: name.to_string(),
                start_ns: cursor,
                end_ns: cursor + duration,
                count: Some(count),
            });
            cursor += duration;
        }
    }

    /// Self time per layer over the subtree of every span named `root`,
    /// plus those roots' total wall time.
    pub fn self_times(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.lock();
        let mut covered = vec![0u64; spans.len()];
        let mut in_tree = vec![false; spans.len()];
        let mut wall = 0.0;
        for (id, span) in spans.iter().enumerate() {
            // Parents are always recorded before their children.
            in_tree[id] = match span.parent {
                Some(parent) => in_tree[parent],
                None => span.name == root,
            };
            if !in_tree[id] {
                continue;
            }
            match span.parent {
                Some(parent) => covered[parent] += span.end_ns - span.start_ns,
                None => wall += (span.end_ns - span.start_ns) as f64,
            }
        }
        let mut layers = BTreeMap::new();
        for (id, span) in spans.iter().enumerate().filter(|(id, _)| in_tree[*id]) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered[id]);
            *layers.entry(span.layer).or_insert(0.0) += own as f64;
        }
        (layers, wall)
    }

    /// Mean duration in ms of the real spans called `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.lock();
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.count.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::util::mean(&durations)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.lock()
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    let mut members = vec![
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("session", Json::Num(span.session as f64)),
                        ("layer", Json::Str(span.layer.to_string())),
                        ("name", Json::Str(span.name.clone())),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                    ];
                    if let Some(count) = span.count {
                        members.push(("aggregate_of", Json::Num(count as f64)));
                    }
                    Json::obj(members)
                })
                .collect(),
        )
    }
}
