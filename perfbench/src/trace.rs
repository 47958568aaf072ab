//! In-memory spans for the traced run, their self times, and the JSONL
//! file they are written to when the run ends.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API. Where the program itself measured a stage
//! (the `X-Plan-Receipt` header's `total_ns` and `solve_ns`), the span
//! is *derived*: its duration is the program's figure and it is placed
//! centred inside its parent, since the receipt carries no start time.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `server` or `solver.plan`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request (or operation) id shared by every span of one request.
    pub request: u64,
    /// The duration came from the program's receipt, not a client clock.
    pub derived: bool,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The run's span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing against the run-wide `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, end]` and returns the span's index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.span_ns(name, start_ns, end_ns, parent, request)
    }

    /// [`Tracer::span`] for instants already in nanoseconds since the
    /// epoch.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            derived: false,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a child of `parent` lasting `dur_ns` (clipped to the
    /// parent), centred in it, and returns its index.
    pub fn derived(&mut self, name: &'static str, parent: usize, dur_ns: u64) -> usize {
        let p = &self.spans[parent];
        let dur = dur_ns.min(p.dur());
        let start_ns = p.start_ns + (p.dur() - dur) / 2;
        let request = p.request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur,
            parent: Some(parent),
            request,
            derived: true,
        });
        self.spans.len() - 1
    }
}

/// Each span's self time: its duration minus the part of it that the
/// union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Self time per span name, summed within each request, in
/// microseconds: one sample per request that has a span of that name.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_request: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *per_request.entry((span.name, span.request)).or_default() += own;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_request {
        out.entry(name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"request\": {}, \"derived\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.derived
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
            // Spills past its parent: only the overlap counts against it.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
    }

    #[test]
    fn derived_spans_are_centred_and_clipped() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.span(
            "server",
            epoch,
            epoch + std::time::Duration::from_nanos(100),
            None,
            3,
        );
        let inner = t.derived("service", root, 40);
        let huge = t.derived("solver", inner, 1_000);
        assert_eq!((t.spans[inner].start_ns, t.spans[inner].end_ns), (30, 70));
        assert_eq!((t.spans[huge].start_ns, t.spans[huge].end_ns), (30, 70));
        assert!(t.spans[huge].derived && t.spans[huge].request == 3);
        let by_name = self_us_by_name(t.spans());
        assert_eq!(by_name["server"], vec![0.06]);
        assert_eq!(by_name["service"], vec![0.0]);
        assert_eq!(by_name["solver"], vec![0.04]);
    }
}
