//! Benchmark-side spans: timed from outside around calls into each
//! layer's public functions, kept in memory, written at the end.

use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `tquel.parse`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log for one thread.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// The id [`SpanLog::enter`] returns when the log is disabled.
const NO_SPAN: usize = usize::MAX;

impl SpanLog {
    /// A log whose timestamps count from `epoch`.  A disabled log
    /// records nothing and reads no clock.
    pub fn new(epoch: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn exit(&mut self, id: usize) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Consumes the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its direct children (overlapping children are counted
/// once; a child sticking out of its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as tab-separated `req name start_ns end_ns parent`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}",
            s.req, s.name, s.start_ns, s.end_ns
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
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("root", 10, 50, None), span("a", 0, 20, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
        let spans = [span("root", 10, 50, None), span("a", 60, 70, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn log_nests_and_times() {
        let mut log = SpanLog::new(Instant::now(), true);
        let root = log.enter("root", 7, None);
        let child = log.enter("child", 7, Some(root));
        log.exit(child);
        log.exit(root);
        let spans = &log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(spans);
        assert_eq!(st[0] + st[1], spans[0].dur_ns());
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let root = log.enter("root", 7, None);
        let child = log.enter("child", 7, Some(root));
        log.exit(child);
        log.exit(root);
        assert!(log.into_spans().is_empty());
    }
}
