//! In-memory spans around the driver's calls into each layer.
//!
//! The driver brackets every public call it makes with
//! [`Tracer::enter`] / [`Tracer::exit`]. With tracing off both are a
//! branch on a bool; with tracing on each records name, start, end, parent
//! and repetition id into a vector that is only written out when the run
//! ends. A layer's *self time* is its span's duration minus the part its
//! child spans cover; the repetition's own self time is therefore the time
//! no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same vector, or [`NO_PARENT`].
    pub parent: u32,
    /// Repetition the span belongs to (all spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. One per run; single-threaded like the driver.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new repetition: drops the previous repetition's spans and
    /// tags the following ones with `rep`. The backing vector keeps its
    /// capacity, so steady-state tracing does not allocate.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.spans.clear();
        self.open.clear();
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
        });
        SpanId(idx)
    }

    /// Closes the span `id` (which must be the innermost open one).
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// The current repetition's spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children are disjoint and nested inside their parent, so the
/// covered part of the interval is the plain sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Adds one repetition's spans into per-name totals.
pub fn accumulate(totals: &mut BTreeMap<&'static str, NameTotal>, spans: &[Span]) {
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
    }
}

/// Serialises per-name totals plus a sample of raw spans as one JSON
/// document (hand-written like every other emitter in the repository, so
/// the bytes are stable).
pub fn to_json(
    workload: &str,
    seed: u64,
    reps: usize,
    totals: &BTreeMap<&'static str, NameTotal>,
    sample: &[Span],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"traced_repetitions\":{reps},\"totals\":["
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.calls, t.total_ns, t.self_ns
        );
    }
    out.push_str("],\"spans\":[");
    for (i, s) in sample.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rep
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100) ─ a [10,40) ─ a1 [15,25)
        //             └ b [50,90) ─ b1 [55,60), b2 [60,80)
        let spans = [
            span("rep", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a1", 15, 25, 1),
            span("b", 50, 90, 0),
            span("b1", 55, 60, 3),
            span("b2", 60, 80, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 15, 5, 20]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn accumulate_groups_by_name() {
        let spans = [
            span("rep", 0, 100, NO_PARENT),
            span("call", 10, 30, 0),
            span("call", 40, 70, 0),
        ];
        let mut totals = BTreeMap::new();
        accumulate(&mut totals, &spans);
        accumulate(&mut totals, &spans);
        assert_eq!(
            totals["call"],
            NameTotal {
                calls: 4,
                total_ns: 100,
                self_ns: 100
            }
        );
        assert_eq!(totals["rep"].self_ns, 100);
    }

    #[test]
    fn tracer_records_parentage_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin_rep(3);
        let root = t.enter("rep");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        t.exit(b);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s.iter().all(|x| x.rep == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);

        let mut off = Tracer::new(false);
        off.begin_rep(0);
        let id = off.enter("rep");
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_json_parses_back() {
        let spans = [span("rep", 0, 9, NO_PARENT), span("a", 1, 4, 0)];
        let mut totals = BTreeMap::new();
        accumulate(&mut totals, &spans);
        let text = to_json("serve_hot", 7, 1, &totals, &spans);
        let v = elmem::util::json::JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("workload").and_then(|w| w.as_str()),
            Some("serve_hot")
        );
        let arr = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    }
}
