//! The benchmark's own span recorder: spans around each call into a
//! layer, kept in memory, aggregated per name, and written as a Chrome
//! trace file when the run ends.
//!
//! Every span feeds the per-name aggregate (count, total and self
//! time); only the first [`RETAIN_PER_RECORDER`] spans of a recorder
//! are kept individually for the trace file, so a saturating run's
//! millions of spans neither exhaust memory nor produce a
//! multi-gigabyte file.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const RETAIN_PER_RECORDER: usize = 5_000;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder's list, if it
    /// was retained.
    pub parent: Option<usize>,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A span's self time: its duration minus what its children cover.
/// Children are sequential on one thread, so their durations add.
pub fn self_time_ns(duration_ns: u64, children_ns: u64) -> u64 {
    duration_ns.saturating_sub(children_ns)
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    retained_at: Option<usize>,
}

/// Handle returned by [`Recorder::begin`]; pass it to
/// [`Recorder::end`]. Holds whether a span was actually opened.
#[must_use]
pub struct SpanToken(bool);

/// Per-thread recorder. All methods are no-ops (no clock read) while
/// disabled, so the untraced run pays one branch per call site.
pub struct Recorder {
    thread: &'static str,
    epoch: Instant,
    enabled: bool,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Recorder {
    pub fn new(thread: &'static str, epoch: Instant, enabled: bool) -> Self {
        Self {
            thread,
            epoch,
            enabled,
            stack: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        // A span left open across the switch would never close.
        debug_assert!(self.stack.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        if !self.enabled {
            return SpanToken(false);
        }
        let retained_at = (self.spans.len() < RETAIN_PER_RECORDER).then(|| {
            let parent = self.stack.last().and_then(|o| o.retained_at);
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            self.spans.len() - 1
        });
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            retained_at,
        });
        SpanToken(true)
    }

    /// Closes the innermost open span and returns its duration (0 when
    /// recording is off).
    pub fn end(&mut self, token: SpanToken) -> u64 {
        if !token.0 {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration;
        }
        if let Some(i) = open.retained_at {
            self.spans[i].start_ns = open.start_ns;
            self.spans[i].end_ns = end_ns;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += self_time_ns(duration, open.children_ns);
        duration
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }
}

/// Everything the recorders of one run collected.
#[derive(Default)]
pub struct TraceFile {
    threads: Vec<(&'static str, Vec<Span>)>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl TraceFile {
    pub fn absorb(&mut self, rec: Recorder) {
        for (name, agg) in &rec.aggs {
            let a = self.aggs.entry(name).or_default();
            a.count += agg.count;
            a.total_ns += agg.total_ns;
            a.self_ns += agg.self_ns;
        }
        self.threads.push((rec.thread, rec.spans));
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    /// Writes the retained spans in Chrome trace-event format
    /// (`chrome://tracing`, Perfetto): one complete (`X`) event per
    /// span, one `tid` per recorder, the layer as category.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut first = true;
        for (tid, (thread, spans)) in self.threads.iter().enumerate() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{thread}\"}}}}"
            )?;
            for s in spans {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                // `parent` is the index of the enclosing span among this
                // thread's events, -1 for a top-level span.
                write!(
                    out,
                    ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"cat\":\"{layer}\",\
                     \"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                    s.parent.map_or(-1, |p| p as i64),
                )?;
            }
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time_ns(100, 30), 70);
        assert_eq!(self_time_ns(100, 130), 0, "clock skew never goes negative");
    }

    #[test]
    fn nested_spans_aggregate_self_time() {
        let mut r = Recorder::new("t", Instant::now(), true);
        let outer = r.begin("a.outer");
        let inner = r.begin("a.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = r.end(inner);
        let outer_ns = r.end(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        let (o, i) = (r.agg("a.outer"), r.agg("a.inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new("t", Instant::now(), false);
        let t = r.begin("x");
        assert_eq!(r.end(t), 0);
        assert_eq!(r.agg("x"), Agg::default());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn chrome_file_is_json() {
        let mut r = Recorder::new("main", Instant::now(), true);
        let t = r.begin("queue.push");
        r.end(t);
        let mut f = TraceFile::default();
        f.absorb(r);
        let path = std::env::temp_dir().join(format!("bench-trace-{}.json", std::process::id()));
        f.write_chrome(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        let events = v["traceEvents"].as_array().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["cat"].as_str(), Some("queue"));
    }
}
