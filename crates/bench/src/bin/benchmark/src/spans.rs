//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is one timed call: its name (`<layer>.<call>`), start and end
//! relative to the tracer's creation, the span that caused it, and the
//! request it served (a benchmark index or a session index). Spans are
//! kept in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Moves `other`'s spans into this tracer, renumbered and rebased to
    /// this tracer's clock.
    pub fn absorb(&self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0);
        let offset = self
            .next_id
            .fetch_add(other.next_id.into_inner(), Ordering::Relaxed);
        let mut mine = self.spans.lock().expect("span list poisoned");
        for mut s in other.spans.into_inner().expect("span list poisoned") {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s.start += shift;
            s.end += shift;
            mine.push(s);
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where a call sits: the tracer (absent in an untraced run) and the
/// enclosing span. Copy it into closures and threads freely.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u32>,
}

impl<'a> Ctx<'a> {
    /// The root context of a run; `None` runs untraced.
    pub fn root(tracer: Option<&'a Tracer>) -> Self {
        Ctx {
            tracer,
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name` for `request`; `f` receives
    /// the context its own calls should record under. Untraced, this is
    /// a plain call.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce(Ctx<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return f(*self);
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start = tracer.t0.elapsed();
        let out = f(Ctx {
            tracer: Some(tracer),
            parent: Some(id),
        });
        let end = tracer.t0.elapsed();
        tracer.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: self.parent,
            name,
            request,
            start,
            end,
        });
        out
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children never outlive their parent, so plain subtraction).
pub fn self_times(spans: &[Span]) -> Vec<(Span, Duration)> {
    let max_id = spans.iter().map(|s| s.id as usize + 1).max().unwrap_or(0);
    let mut child_time = vec![Duration::ZERO; max_id];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p as usize] += s.duration();
        }
    }
    spans
        .iter()
        .map(|s| (*s, s.duration().saturating_sub(child_time[s.id as usize])))
        .collect()
}

/// Layer spans are named `<layer>.<call>`; request and pass spans are
/// not, so their self time is the part of a pass no layer accounts for.
pub fn is_layer(name: &str) -> bool {
    name.contains('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tracer = Tracer::new();
        let root = Ctx::root(Some(&tracer));
        root.span("pass", 0, |pass| {
            pass.span("bench", 3, |bench| {
                bench.span("trace.decode", 3, |_| {
                    std::thread::sleep(Duration::from_millis(2))
                });
                bench.span("core.step", 3, |_| {
                    std::thread::sleep(Duration::from_millis(3))
                });
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("span recorded");
        let (pass, bench) = (by_name("pass"), by_name("bench"));
        assert_eq!(pass.parent, None);
        assert_eq!(bench.parent, Some(pass.id));
        assert_eq!(by_name("core.step").request, 3);
        assert_eq!(by_name("core.step").parent, Some(bench.id));
        let layer_self: Duration = self_times(&spans)
            .into_iter()
            .filter(|(s, _)| is_layer(s.name))
            .map(|(_, d)| d)
            .sum();
        assert!(layer_self >= Duration::from_millis(5));
        assert!(layer_self <= pass.duration());
        assert_eq!(
            tracer.total("trace.decode"),
            by_name("trace.decode").duration()
        );
    }

    #[test]
    fn absorbed_spans_keep_their_tree() {
        let main = Tracer::new();
        Ctx::root(Some(&main)).span("pass", 0, |_| ());
        let other = Tracer::new();
        Ctx::root(Some(&other)).span("panel", 0, |c| c.span("core.fetch", 1, |_| ()));
        main.absorb(other);
        let spans = main.spans();
        let ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
        let panel = spans.iter().find(|s| s.name == "panel").expect("absorbed");
        let fetch = spans
            .iter()
            .find(|s| s.name == "core.fetch")
            .expect("absorbed");
        assert_eq!(fetch.parent, Some(panel.id));
        assert!(fetch.start >= spans[0].start);
    }

    #[test]
    fn untraced_context_just_calls() {
        assert_eq!(Ctx::root(None).span("pass", 7, |_| 42), 42);
    }
}
