//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span brackets
//! one public call (`translate`, `run_for`, a `SUBMIT` round trip, …).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span of the same
/// tracer; spans of one benchmark operation share `op`.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A per-thread span recorder. Disabled tracers record nothing and
/// cost one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// across threads so merged spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// An empty tracer for another thread, on the same epoch and
    /// setting; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Appends another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span (its duration minus the time its
    /// children cover), in microseconds, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            by_name
                .entry(s.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        by_name
    }

    /// Writes every span as one tab-separated line:
    /// `id name op start_ns end_ns parent` (`-` for a root).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{parent}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit(outer);
        let times = t.self_times_us();
        assert!(times["inner"][0] >= 20_000.0);
        assert!(times["outer"][0] < 10_000.0, "{:?}", times["outer"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_reindexes() {
        let mut off = Tracer::new(false, Instant::now());
        off.span("x", 0, || ());
        assert!(off.self_times_us().is_empty());

        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, epoch);
        let outer = b.enter("b", 1);
        b.span("c", 1, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
