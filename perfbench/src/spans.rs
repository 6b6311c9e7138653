//! The benchmark's own spans: one per call it makes into a layer, kept in
//! memory and written to one file when the run ends.
//!
//! Untraced samples time the same calls through the same [`Spans::open`] /
//! [`Spans::close`] pair but record nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// A span still running: its start, and its slot when recording.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

#[derive(Debug)]
struct Span {
    sample: u32,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one benchmark invocation.
#[derive(Debug)]
pub struct Spans {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that only measures durations until [`Spans::record`].
    pub fn new() -> Self {
        Self {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on (traced samples) or off (untraced ones).
    pub fn record(&mut self, on: bool) {
        self.recording = on;
    }

    /// Starts the span `name` of `sample`, caused by `parent`.
    pub fn open(&mut self, sample: u32, name: &'static str, parent: Option<Open>) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                sample,
                name,
                parent: parent.and_then(|p| p.index),
                start_ns: self.nanos(start),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.nanos(end);
        }
        (end - open.start).as_secs_f64()
    }

    fn nanos(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    /// Median over samples of each span name's self time (its duration
    /// minus the time its child spans cover), in seconds, by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        let mut per_sample: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *per_sample.entry((s.name, s.sample)).or_default() += ns as f64 / 1e9;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), secs) in per_sample {
            by_name.entry(name).or_default().push(secs);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| (name, crate::median(&mut v)))
            .collect()
    }

    /// The recorded spans as one JSON array; `parent` is an index into it.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"sample\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.sample, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}
