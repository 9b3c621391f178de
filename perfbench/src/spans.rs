//! In-memory spans recorded around calls into the library, and the
//! per-layer waterfall built from them.
//!
//! A span is (name, layer, start, end, parent). A span's self time is its
//! duration minus its children's. Where one public call covers several
//! layers, the workload supplies a split: the share of that call's self
//! time each layer took, measured by replaying the same inputs through entry
//! points that stop one layer lower. Self time of a top-level span (harness
//! work between calls) is reported as "unattributed", so the waterfall rows
//! always sum to the traced wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran (for example `cell 429.mcf/LRU`).
    pub name: String,
    /// The layer (module) the span's self time belongs to.
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The row of a waterfall that collects self time no layer claimed.
pub const UNATTRIBUTED: &str = "unattributed";

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Runs `f` inside a span named `name` whose self time belongs to
    /// `layer`; spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a finished span timed by the caller (for calls made inside a
    /// library closure the tracer cannot enter), as a child of the span
    /// currently open.
    pub fn record(&mut self, name: &str, layer: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name: name.to_owned(),
            layer,
            parent: self.stack.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.push(span);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `i`: its duration minus its children's.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::dur_ns)
            .sum();
        self.spans[i].dur_ns().saturating_sub(children)
    }

    /// Wall time covered by the top-level spans.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per layer. `splits` maps a span name to the shares of its
    /// self time that other layers took; the rest stays with the span's
    /// own layer. Top-level self time goes to [`UNATTRIBUTED`].
    pub fn waterfall(
        &self,
        splits: &BTreeMap<String, Vec<(&'static str, f64)>>,
    ) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = Vec::new();
        let mut add =
            |layer: &'static str, ns: f64| match rows.iter_mut().find(|(l, _)| *l == layer) {
                Some(row) => row.1 += ns,
                None => rows.push((layer, ns)),
            };
        for (i, span) in self.spans.iter().enumerate() {
            let own = self.self_ns(i) as f64;
            if span.parent.is_none() {
                add(UNATTRIBUTED, own);
                continue;
            }
            let mut left = own;
            if let Some(shares) = splits.get(&span.name) {
                for &(layer, share) in shares {
                    let ns = own * share.clamp(0.0, 1.0);
                    let ns = ns.min(left);
                    add(layer, ns);
                    left -= ns;
                }
            }
            add(span.layer, left);
        }
        rows
    }

    /// The spans as tab-separated text: id, parent, layer, start, end, name.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tlayer\tstart_ns\tend_ns\tname\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.start_ns, s.end_ns, s.name
            );
        }
        out
    }
}

/// Renders a waterfall with each row's share of the traced wall time.
pub fn render_waterfall(
    workload: &str,
    rows: &[(&'static str, f64)],
    wall_ns: u64,
    overhead_pct: f64,
    untraced_s: f64,
) -> String {
    let wall = wall_ns as f64;
    let mut out = format!(
        "waterfall {workload}: traced wall {:.4} s, untraced {:.4} s, tracing overhead {:+.2}%\n",
        wall / 1e9,
        untraced_s,
        overhead_pct
    );
    let _ = writeln!(out, "  {:<34} {:>10} {:>8}", "layer", "self s", "share");
    let mut total = 0.0;
    for &(layer, ns) in rows.iter().filter(|(l, _)| *l != UNATTRIBUTED) {
        total += ns;
        let _ = writeln!(
            out,
            "  {layer:<34} {:>10.4} {:>7.2}%",
            ns / 1e9,
            100.0 * ns / wall.max(1.0)
        );
    }
    let rest = rows
        .iter()
        .filter(|(l, _)| *l == UNATTRIBUTED)
        .map(|&(_, ns)| ns)
        .sum::<f64>();
    total += rest;
    let _ = writeln!(
        out,
        "  {UNATTRIBUTED:<34} {:>10.4} {:>7.2}%",
        rest / 1e9,
        100.0 * rest / wall.max(1.0)
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>10.4} {:>7.2}%",
        "total",
        total / 1e9,
        100.0 * total / wall.max(1.0)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn waterfall_rows_sum_to_the_traced_wall() {
        let mut t = Tracer::on();
        t.span("pass", "runner", |t| {
            t.span("cell a", "cache", |t| {
                busy(3);
                t.span("decode a", "trace_io", |_| busy(2));
            });
            t.span("cell b", "cache", |_| busy(2));
            busy(1);
        });
        let mut splits = BTreeMap::new();
        splits.insert("cell b".to_owned(), vec![("workloads", 0.25)]);
        let rows = t.waterfall(&splits);
        let sum: f64 = rows.iter().map(|&(_, ns)| ns).sum();
        assert!(
            (sum - t.wall_ns() as f64).abs() < 1.0,
            "{rows:?} vs {}",
            t.wall_ns()
        );
        let get = |l: &str| {
            rows.iter()
                .find(|(x, _)| *x == l)
                .map_or(0.0, |&(_, ns)| ns)
        };
        assert!(
            get("trace_io") >= 2e6 && get("cache") >= 3e6 && get("workloads") > 0.0,
            "{rows:?}"
        );
        assert!(
            get(UNATTRIBUTED) >= 1e6,
            "pass self time is unattributed: {rows:?}"
        );
        let rendered = render_waterfall("w", &rows, t.wall_ns(), 1.0, 0.0);
        assert!(
            rendered.contains("total") && rendered.contains("unattributed"),
            "{rendered}"
        );
        assert_eq!(t.to_tsv().lines().count(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", "y", |t| t.span("z", "w", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.wall_ns(), 0);
    }
}
