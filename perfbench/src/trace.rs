//! In-memory span recorder for the traced replay.
//!
//! A span is one call into a layer's public function, recorded from
//! the benchmark's own code: name, start, end, parent span and request
//! id. Spans stay in memory and are written out once, when the run
//! ends. A span's self time is its duration minus the part of it that
//! its child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Marks a span that has no parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Cost of recording one span (open plus close), in nanoseconds,
    /// measured over `n` empty spans that are discarded afterwards.
    pub fn calibrate(&mut self, n: usize) -> f64 {
        let keep = self.spans.len();
        self.spans.reserve(n);
        let t0 = Instant::now();
        for i in 0..n {
            let id = self.open("calibrate", i as u64, ROOT);
            self.close(id);
        }
        let per = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
        self.spans.truncate(keep);
        per
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(c) = children.get_mut(s.parent as usize) {
                c.push(i as u32);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .filter_map(|&k| self.spans.get(k as usize))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
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
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = if s.parent == ROOT {
                Json::Num(-1.0)
            } else {
                Json::Int(u64::from(s.parent))
            };
            let line = Json::obj([
                ("id", Json::Int(i as u64)),
                ("name", Json::str(s.name)),
                ("req", Json::Int(s.req)),
                ("parent", parent),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("self_ns", Json::Int(self_ns)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("root", ROOT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 30, 50),
            span("c", 0, 60, 70),
            span("leaf", 3, 61, 65),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 20, 20, 6, 4]);
        // Sequential children: self times partition the root.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
        // Overlapping children are subtracted once.
        t.spans = vec![
            span("root", ROOT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 20, 50),
        ];
        assert_eq!(t.self_times_ns()[0], 60);
    }

    #[test]
    fn calibration_discards_its_spans() {
        let mut t = Tracer::new();
        let id = t.open("x", 0, ROOT);
        t.close(id);
        let per = t.calibrate(1000);
        assert!(per > 0.0);
        assert_eq!(t.spans().len(), 1);
    }
}
