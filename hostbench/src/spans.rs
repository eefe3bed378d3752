//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` in nanoseconds since the
//! recorder was created. Spans are opened around calls into a layer's
//! public functions, kept in memory and written out once at the end, so
//! recording costs two clock reads and a vector push per span.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled recorder runs the closures
/// and records nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations (ns) of every closed span called `name`, in record
    /// order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Total duration (ns) of the spans called `name` recorded at or
    /// after index `from` (a [`Spans::len`] taken earlier).
    pub fn durations_since(&self, from: usize, name: &str) -> u64 {
        self.spans.borrow()[from..].iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Total duration (ns) of the outermost spans: the host time spent
    /// inside traced calls.
    pub fn root_ns(&self) -> u64 {
        self.spans.borrow().iter().filter(|s| s.parent.is_none()).map(Span::ns).sum()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Write every span as one JSON object per line, tagged with the
    /// workload.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
