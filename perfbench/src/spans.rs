//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name (`layer.call`), a start, an end, the span that was
//! open when it began, and the id of the op it belongs to. Spans stay in
//! memory and are written out when the run ends. A layer's self time is its
//! span's duration minus the durations of its child spans; calls are
//! sequential on one thread, so children never overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 for set-up).
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When disabled, [`Tracer::span`] only calls its
/// closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (closed spans are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.dur_ns());
            }
        }
        self_ns
    }

    /// Durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per op, the summed duration (ns) of the spans called `name`; set-up
    /// and ops without such spans are left out.
    #[must_use]
    pub fn per_op_ns(&self, name: &str) -> Vec<f64> {
        sum_per_op(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.op, s.dur_ns())),
        )
    }

    /// Per op, the summed self time (ns) of the spans whose name starts with
    /// `layer.`; set-up and ops without such spans are left out.
    #[must_use]
    pub fn layer_self_per_op(&self, layer: &str) -> Vec<f64> {
        let in_layer = |name: &str| {
            name.strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        };
        sum_per_op(
            self.spans
                .iter()
                .zip(self.self_ns())
                .filter(|(s, _)| in_layer(s.name))
                .map(|(s, own)| (s.op, own)),
        )
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent","op"}`.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        out
    }
}

/// Sums `(op, ns)` pairs per op, leaving out set-up (op 0).
fn sum_per_op(items: impl Iterator<Item = (u32, u64)>) -> Vec<f64> {
    let mut per_op: BTreeMap<u32, f64> = BTreeMap::new();
    for (op, ns) in items.filter(|(op, _)| *op > 0) {
        *per_op.entry(op).or_default() += ns as f64;
    }
    per_op.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(1);
        tracer.span("serve.run", |t| {
            t.span("sim.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = tracer.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(tracer.layer_self_per_op("sim").len(), 1);
        assert_eq!(tracer.per_op_ns("sim.run"), vec![spans[1].dur_ns() as f64]);
        assert!(tracer.layer_self_per_op("si").is_empty());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("sim.run", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
