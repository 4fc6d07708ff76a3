//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions; nothing inside the engine is
//! instrumented. A span is `(name, start, end, parent, request)`; the
//! spans of one request share its id. Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Records spans when enabled; every method is a cheap no-op when not, so
/// the untraced run pays one predictable branch per operation.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open section: the parent of every span recorded now.
    current: Option<SpanId>,
    next_request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
            next_request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh request id: one per operation a client issues.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Opens a section span (a workload stage); spans recorded until the
    /// matching [`Recorder::exit`] are its children.
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        let request = self.request();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.current,
            request,
        });
        self.current = Some(self.spans.len() as SpanId - 1);
        self.current
    }

    /// Closes the section opened by the matching [`Recorder::enter`].
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Records a finished call from the two timestamps the latency sample
    /// was taken from, so tracing adds no clock reads to the timed call.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let request = self.request();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.current,
            request,
        });
    }

    /// A recorder for another thread of the current section: same clock,
    /// same parent, a disjoint request-id range. Merge it back with
    /// [`Recorder::absorb`] after the thread is joined.
    pub fn fork(&self, lane: u64) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            current: self.current,
            next_request: lane << 40,
        }
    }

    /// Appends the leaf spans a forked recorder collected.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of that interval its
    /// child spans cover (children of concurrent threads may overlap, so
    /// the cover is the union of their intervals).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut covered = 0;
                if let Some(kids) = children.get_mut(&(i as SpanId)) {
                    kids.sort_unstable();
                    let mut reach = s.start_ns;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(reach), b.min(s.end_ns));
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// `(count, total self ns)` per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_time_by_name\":{");
        for (i, (name, (count, ns))) in self.self_time_by_name().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"self_ns\":{ns}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let t0 = r.epoch;
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let section = r.enter("section");
        r.record("a", at(10_000_000_000), at(10_000_000_400));
        // Overlaps `a` by 200 ns: the union covers 600 ns, not 800.
        r.record("b", at(10_000_000_200), at(10_000_000_600));
        r.exit(section);
        r.spans[0].start_ns = 10_000_000_000;
        r.spans[0].end_ns = 10_000_001_000;
        let selfs = r.self_times();
        assert_eq!(selfs, vec![400, 400, 400]);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_ne!(r.spans()[1].request, r.spans()[2].request);
        assert!(r.to_json().contains("\"name\":\"b\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.enter("section");
        r.record("a", Instant::now(), Instant::now());
        r.exit(s);
        assert!(r.spans().is_empty());
    }
}
