//! The benchmark's own in-memory span recorder.
//!
//! It wraps every boundary the benchmark can reach from outside the
//! program (plan generation, `ThreadCluster::new`, `run`, `crash`,
//! `recover`, read-back, each probe batch). Spans stay in memory and are
//! written as Chrome trace-event JSON when the run ends. Spans inside
//! the program are a later change.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
    trial: u32,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    workload: &'static str,
    trial: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`on`) or only runs the closures.
    pub fn new(workload: &'static str, on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            workload,
            trial: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Trial id stamped on spans from here on.
    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.epoch.elapsed().as_micros() as u64,
            end_us: 0,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_micros() as u64;
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span; `args` carry the span's id, its parent,
    /// workload, trial and self time (duration minus its children's).
    pub fn chrome_json(&self) -> String {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let dur = s.end_us - s.start_us;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"trial\":{},\"self_us\":{}}}}}",
                s.name,
                s.start_us,
                self.workload,
                s.trial,
                dur.saturating_sub(child_us[id]),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
