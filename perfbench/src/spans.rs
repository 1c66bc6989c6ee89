//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end and an optional parent. Spans are
//! kept in memory and written out once the run ends; a span's self time
//! is its duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the recorder.
    pub id: String,
    /// What the span covers (`core.run`, `serve.queue`, ...).
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<String>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

/// A span that has been opened but not closed yet.
#[derive(Debug)]
pub struct Open {
    id: String,
    name: String,
    parent: Option<String>,
    start_ns: u64,
}

impl Open {
    /// The id the span will be recorded under.
    pub fn id(&self) -> &str {
        &self.id
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
        }
    }

    /// Nanoseconds since the origin for `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`, starting now.
    pub fn open(&mut self, name: &str, parent: Option<&str>) -> Open {
        self.next_id += 1;
        Open {
            id: format!("b{}", self.next_id),
            name: name.to_string(),
            parent: parent.map(str::to_string),
            start_ns: self.ns(Instant::now()),
        }
    }

    /// Closes `open` now and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end_ns = self.ns(Instant::now());
        let secs = end_ns.saturating_sub(open.start_ns) as f64 / 1e9;
        self.spans.push(Span {
            id: open.id,
            name: open.name,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
        });
        secs
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        id: &str,
        name: &str,
        parent: Option<&str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id: id.to_string(),
            name: name.to_string(),
            parent: parent.map(str::to_string),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Self time in seconds of every span named `name`, in record order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<&str, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = &s.parent {
                children.entry(p.as_str()).or_default().push(s);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(s.id.as_str()).map_or(&[][..], Vec::as_slice);
                self_ns(s, kids) as f64 / 1e9
            })
            .collect()
    }

    /// Self time in seconds of the span with id `id` (0 if absent).
    pub fn self_time_of(&self, id: &str) -> f64 {
        let kids: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent.as_deref() == Some(id))
            .collect();
        self.spans
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, |s| self_ns(s, &kids) as f64 / 1e9)
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .as_ref()
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"id\":\"{}\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Duration of `span` minus the union of its children's intervals,
/// clipped to the span.
fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut s = Spans::new();
        s.record("p", "parent", None, 0, 100);
        s.record("a", "child", Some("p"), 10, 40);
        s.record("b", "child", Some("p"), 30, 50);
        s.record("c", "child", Some("p"), 90, 120);
        assert_eq!(s.self_times("parent"), vec![(100 - 40 - 10) as f64 / 1e9]);
        assert_eq!(s.self_times("child"), [30.0, 20.0, 30.0].map(|ns| ns / 1e9));
        assert_eq!(s.self_time_of("p"), 50.0 / 1e9);
    }
}
