//! Spans of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer, kept in memory and written out when the run ends. A span's
//! *self time* is its duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One interval of one request, in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the trace.
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// The request the span belongs to: spans of one request share it.
    pub query: u32,
    /// Layer boundary the span sits at.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends a span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        query: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Self time of every span, indexed by span id: duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                children[parent as usize].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| span.duration_ns() - union_ns(&mut intervals))
            .collect()
    }

    /// Self times, and total duration and self time per span name.
    pub fn summarize(&self) -> Summary {
        let self_ns = self.self_times_ns();
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&self_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.duration_ns();
            entry.1 += self_ns;
        }
        Summary { self_ns, totals }
    }

    /// The trace as JSON: the spans whose `query` is below `head` or at
    /// least `tail` with their self times, and the per-name totals over
    /// *all* spans.
    pub fn to_json(&self, summary: &Summary, workload: &str, head: u32, tail: u32) -> String {
        let self_times = summary.self_ns.iter().copied();
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"totals\":{{");
        for (i, (name, (duration, self_ns))) in summary.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"duration_ns\":{duration},\"self_ns\":{self_ns}}}"
            );
        }
        out.push_str("},\"spans\":[");
        let mut first = true;
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            if span.query >= head && span.query < tail {
                continue;
            }
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.id, span.query, span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What [`Trace::summarize`] computes once for the metrics and the file.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Self time of every span, by span id.
    self_ns: Vec<u64>,
    /// `(total duration, total self time)` per span name.
    pub totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Summary {
    /// Share of the spans named `root` that their children cover:
    /// `1 - self / duration`, over all of them. `None` without such spans.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let (duration, self_ns) = *self.totals.get(root)?;
        (duration > 0).then(|| 1.0 - self_ns as f64 / duration as f64)
    }
}

/// Length of the union of `intervals`.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut trace = Trace::default();
        let request = trace.record(None, 0, "request", 100, 200);
        // Two overlapping children cover [110, 160); a third pokes out of
        // the parent and is clipped to [190, 200).
        trace.record(Some(request), 0, "queue", 110, 140);
        let serve = trace.record(Some(request), 0, "serve", 130, 160);
        trace.record(Some(request), 0, "deliver", 190, 250);
        trace.record(Some(serve), 0, "join", 135, 145);
        let self_times = trace.self_times_ns();
        assert_eq!(self_times[request as usize], 100 - 50 - 10);
        assert_eq!(self_times[serve as usize], 30 - 10);
        assert_eq!(self_times[1], 30, "a leaf's self time is its duration");
        let summary = trace.summarize();
        let coverage = summary.coverage("request").unwrap();
        assert!((coverage - 0.6).abs() < 1e-12);
        assert_eq!(summary.coverage("absent"), None);
    }

    #[test]
    fn json_lists_spans_and_totals() {
        let mut trace = Trace::default();
        let root = trace.record(None, 0, "query", 0, 10);
        trace.record(Some(root), 0, "plan", 0, 4);
        trace.record(None, 1, "query", 10, 30);
        trace.record(None, 2, "query", 30, 31);
        let json = trace.to_json(&trace.summarize(), "w", 1, 2);
        assert!(json.contains("\"query\":{\"duration_ns\":31,\"self_ns\":27}"));
        assert!(json.contains("\"name\":\"plan\",\"start_ns\":0,\"end_ns\":4,\"self_ns\":4"));
        assert!(
            !json.contains("\"start_ns\":10"),
            "request 1 is between the cuts"
        );
        assert!(
            json.contains("\"start_ns\":30"),
            "request 2 is past the tail cut"
        );
    }
}
