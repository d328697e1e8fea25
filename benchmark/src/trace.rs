//! The harness's span recorder.
//!
//! Spans are recorded by the benchmark's own files, around the calls into
//! each layer — never inside the program. A span has a name, a start and
//! an end (nanoseconds since the recorder was made), the span that caused
//! it, and an operation id that every span of one request shares. Spans
//! stay in memory and are written out once, when the workload ends.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its direct children cover; per-layer numbers are medians of
//! self time per unit of work.
//!
//! A disabled recorder records nothing and reads no clock, so the same
//! workload code runs untraced for the end-to-end numbers.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; give it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next `begin`.
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span. Spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a span measured elsewhere (a client thread's own clock
    /// readings, taken against [`Recorder::origin`]).
    pub fn add(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                op,
            });
        }
    }

    /// The instant span times count from, for threads that time their own
    /// operations and hand the readings to [`Recorder::add`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Self times of the spans called `name`, in span order.
    pub fn self_ns_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Self time of the spans called `name`, summed per operation: what
    /// one operation spent in a layer it entered several times.
    pub fn self_ns_per_op(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        let mut per_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += t as f64;
            }
        }
        per_op.into_values().collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times_ns();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans, so self time is checked against
    /// arithmetic and not against the clock.
    fn fixed(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Recorder {
        let mut r = Recorder::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 1,
            });
        }
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixed(&[
            ("op", 0, 100, None),
            ("decode", 10, 40, Some(0)),
            ("varint", 15, 25, Some(1)),
            ("apply", 50, 90, Some(0)),
        ]);
        // op: 100 - (30 + 40); decode: 30 - 10; grandchildren are not
        // subtracted twice from the root.
        assert_eq!(r.self_times_ns(), vec![30, 20, 10, 40]);
        assert_eq!(r.self_ns_of("decode"), vec![20.0]);
        assert!(r.self_ns_of("absent").is_empty());
        // Every span here belongs to operation 1.
        assert_eq!(r.self_ns_per_op("apply"), vec![40.0]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let r = fixed(&[
            ("op", 0, 1000, None),
            ("a", 0, 300, Some(0)),
            ("b", 300, 900, Some(0)),
            ("b1", 400, 500, Some(2)),
        ]);
        assert_eq!(r.self_times_ns().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn begin_end_nest_and_share_the_op_id() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        r.end(outer);
        let s = r.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[1].op), (7, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("x", 1);
        r.end(id);
        r.add("z", 3, 0, 10);
        assert!(r.spans().is_empty());
    }
}
