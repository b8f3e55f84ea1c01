//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(id, parent, request, name, start_ns, end_ns)`. Each
//! thread records into its own [`SpanBuf`] (no shared state on the
//! measured path) and hands it back to the [`Tracer`] when it ends;
//! the tracer writes everything as one TSV at exit. With tracing off a
//! buffer records nothing, so the end-to-end run pays one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one request share this; 0 outside a request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    bufs: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// One thread's spans. Ids are `(buffer number << 40) | counter`, so
/// buffers never coordinate.
pub struct SpanBuf {
    enabled: bool,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            bufs: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer (and the process's run) started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn buf(&self) -> SpanBuf {
        // Relaxed: the counter only hands out distinct numbers.
        let number = self.bufs.fetch_add(1, Ordering::Relaxed) + 1;
        SpanBuf { enabled: self.enabled, next: number << 40, spans: Vec::new() }
    }

    pub fn absorb(&self, buf: SpanBuf) {
        self.spans.lock().expect("no thread panics holding the span list").extend(buf.spans);
    }

    /// Spans absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.spans.lock().expect("no thread panics holding the span list").len()
    }

    /// Every absorbed span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no thread panics holding the span list").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl SpanBuf {
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span and return its id (0 when tracing is off).
    pub fn span(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        self.spans.push(Span { id: self.next, parent, request, name, start_ns, end_ns });
        self.next
    }
}

pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Calls, total time and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus the part
/// of its interval that its direct children cover (overlapping
/// children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, 0, "build", 0, 100),
            span(2, 1, "knn", 0, 90),
            span(3, 1, "opt", 90, 98),
            span(4, 3, "reorder", 90, 95),
            span(5, 3, "merge", 95, 97),
        ];
        let t = self_times(&spans);
        assert_eq!(t["build"], NameTotals { calls: 1, total_ns: 100, self_ns: 2 });
        assert_eq!(t["knn"].self_ns, 90);
        assert_eq!(t["opt"], NameTotals { calls: 1, total_ns: 8, self_ns: 1 });
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 100, "self times of a tree sum to its root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(1, 0, "root", 10, 110),
            span(2, 1, "a", 20, 60),
            span(3, 1, "a", 40, 80),
            span(4, 1, "b", 100, 150),
        ];
        let t = self_times(&spans);
        // Cover is [20, 80) and [100, 110): 70 of 100.
        assert_eq!(t["root"].self_ns, 30);
        assert_eq!(t["a"], NameTotals { calls: 2, total_ns: 80, self_ns: 80 });
    }

    #[test]
    fn a_disabled_buffer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut buf = tracer.buf();
        assert_eq!(buf.span(0, 0, "x", 1, 2), 0);
        tracer.absorb(buf);
        assert_eq!(tracer.absorbed(), 0);
        let on = Tracer::new(true);
        let (mut a, mut b) = (on.buf(), on.buf());
        let (ia, ib) = (a.span(0, 0, "x", 1, 2), b.span(0, 0, "x", 1, 2));
        assert!(ia != 0 && ib != 0 && ia != ib);
        on.absorb(a);
        on.absorb(b);
        assert_eq!(on.spans().len(), 2);
    }
}
