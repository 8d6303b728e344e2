//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written out when the workload ends. A span's name is
//! `<layer>.<call>` with the crate name as layer; spans inside the engine
//! are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one statement share this.
    pub op: u32,
}

pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Run `f` as a child span of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, Some(parent), self.spans[parent as usize].op);
        let r = f();
        self.end(id);
        r
    }

    /// Nanoseconds of each span name: total duration, and self time (the
    /// duration minus the part its child spans cover).
    pub fn totals(&self) -> BTreeMap<&'static str, (Vec<f64>, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0.push(dur as f64);
            entry.1 += dur.saturating_sub(covered) as f64;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}
