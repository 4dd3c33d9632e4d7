//! In-memory spans: name, start, end and parent, kept until the run ends
//! and then written out with their self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op that
/// reads no clock, so the same driver runs with spans on and off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name roll-up of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, in ns.
    pub total_ns: u64,
    /// Sum of their self times, in ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when the tracer is disabled.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Adds an already-measured span (hand-built trees in tests).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once, and the parts of children outside it not at all).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let r = out.entry(s.name).or_default();
            r.count += 1;
            r.total_ns += s.duration_ns();
            r.self_ns += self_ns;
        }
        out
    }

    /// Writes spans `from..` as tab-separated lines: id, parent, name,
    /// start, end, duration and self time (ns).
    pub fn write_tsv(&self, from: usize, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tdur_ns\tself_ns")?;
        let self_times = self.self_times();
        for (id, s) in self.spans.iter().enumerate().skip(from) {
            match s.parent {
                Some(p) => write!(out, "{id}\t{p}\t")?,
                None => write!(out, "{id}\t-\t")?,
            }
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.duration_ns(),
                self_times[id]
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.push(span("replay", 0, 100, None));
        let read = t.push(span("read", 10, 40, Some(root)));
        t.push(span("decode", 15, 25, Some(read)));
        t.push(span("decode", 20, 30, Some(read))); // overlaps the first
        t.push(span("decide", 50, 90, Some(root)));
        t.push(span("stray", 95, 120, Some(root))); // runs past its parent
        assert_eq!(
            t.self_times(),
            vec![100 - 30 - 40 - 5, 30 - 15, 10, 10, 40, 25]
        );
        let r = t.rollup();
        assert_eq!(
            r["decode"],
            Rollup {
                count: 2,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(r["replay"].self_ns, 25);
        // Self times of a tree add up to the root's duration when every
        // child lies inside its parent.
        let mut tree = Tracer::new(true);
        let root = tree.push(span("root", 0, 1_000, None));
        let a = tree.push(span("a", 0, 600, Some(root)));
        tree.push(span("a1", 100, 200, Some(a)));
        tree.push(span("b", 600, 900, Some(root)));
        assert_eq!(tree.self_times().iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        let mut on = Tracer::new(true);
        let id = on.begin("x", None);
        on.end(id);
        assert_eq!(on.spans().len(), 1);
        let mut tsv = Vec::new();
        on.write_tsv(0, &mut tsv).expect("writes to memory");
        let tsv = String::from_utf8(tsv).expect("utf-8");
        assert!(tsv
            .lines()
            .nth(1)
            .is_some_and(|l| l.starts_with("0\t-\tx\t")));
    }
}
