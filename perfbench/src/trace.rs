//! The traced run's recorder: spans stamped from the public `Progress`
//! events, held in memory and written out as one JSON file at the end.

use std::sync::Mutex;
use std::time::Instant;

use autoai_ts::{Progress, ProgressEvent};

/// Stage boundaries of one `AutoAITS::fit`, in emission order: each stage
/// runs from the previous boundary (or the fit's start) to its event.
const STAGES: [(&str, &str); 6] = [
    ("QualityChecked", "orchestrator.quality"),
    ("ZeroModelReady", "orchestrator.zero_model"),
    ("LookbackDiscovered", "lookback.discover"),
    ("PipelinesGenerated", "pipelines.generate"),
    ("TDaubFinished", "tdaub.run"),
    ("Ready", "orchestrator.finalize"),
];

fn event_name(event: &ProgressEvent) -> &'static str {
    match event {
        ProgressEvent::QualityChecked { .. } => "QualityChecked",
        ProgressEvent::ZeroModelReady => "ZeroModelReady",
        ProgressEvent::LookbackDiscovered { .. } => "LookbackDiscovered",
        ProgressEvent::PipelinesGenerated { .. } => "PipelinesGenerated",
        ProgressEvent::PipelineExcluded { .. } => "PipelineExcluded",
        ProgressEvent::TDaubFinished { .. } => "TDaubFinished",
        ProgressEvent::HoldoutScored { .. } => "HoldoutScored",
        ProgressEvent::Degraded { .. } => "Degraded",
        ProgressEvent::Ready => "Ready",
    }
}

/// A `Progress` sink that timestamps every event of one fit.
#[derive(Default)]
pub struct StageClock {
    marks: Mutex<Vec<(Instant, &'static str)>>,
}

impl Progress for StageClock {
    fn report(&self, event: &ProgressEvent) {
        let now = Instant::now();
        if let Ok(mut marks) = self.marks.lock() {
            marks.push((now, event_name(event)));
        }
    }
}

impl StageClock {
    /// `(stage, start, end)` for every stage whose closing event was seen,
    /// the first one starting at `fit_start`.
    pub fn stages(&self, fit_start: Instant) -> Vec<(&'static str, Instant, Instant)> {
        let marks = match self.marks.lock() {
            Ok(m) => m.clone(),
            Err(_) => return Vec::new(),
        };
        let mut prev = fit_start;
        let mut out = Vec::new();
        for (event, stage) in STAGES {
            if let Some(&(at, _)) = marks.iter().find(|(_, e)| *e == event) {
                out.push((stage, prev, at));
                prev = at;
            }
        }
        out
    }
}

/// One timed interval. Spans of one fit share the fit span as parent.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ms: f64,
    end_ms: f64,
}

/// In-memory trace of a run: spans plus named per-fit records.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    records: Vec<String>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Record a span and return its id.
    pub fn span(&mut self, parent: Option<u64>, name: &str, start: Instant, end: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let ms = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e3;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ms: ms(start),
            end_ms: ms(end),
        });
        id
    }

    /// Attach a free-form record (already a JSON object) to the trace.
    pub fn record(&mut self, json_object: String) {
        self.records.push(json_object);
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ms - s.start_ms)
            .sum()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ms\":{:.4},\"end_ms\":{:.4}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_str(&s.name),
                    s.start_ms,
                    s.end_ms
                )
            })
            .collect();
        format!(
            "{{{header},\"spans\":[\n{}\n],\"records\":[\n{}\n]}}\n",
            spans.join(",\n"),
            self.records.join(",\n")
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_chain_from_the_fit_start() {
        let clock = StageClock::default();
        let start = Instant::now();
        clock.report(&ProgressEvent::QualityChecked { issues: 0 });
        clock.report(&ProgressEvent::ZeroModelReady);
        clock.report(&ProgressEvent::Ready);
        let stages = clock.stages(start);
        let names: Vec<&str> = stages.iter().map(|s| s.0).collect();
        // missing boundaries are skipped; the next stage spans the gap
        assert_eq!(
            names,
            [
                "orchestrator.quality",
                "orchestrator.zero_model",
                "orchestrator.finalize"
            ]
        );
        assert_eq!(stages[0].1, start);
        assert_eq!(stages[2].1, stages[1].2);
    }

    #[test]
    fn trace_sums_spans_by_name_and_escapes_json() {
        let mut t = Trace::new();
        let a = Instant::now();
        let b = a + Duration::from_millis(5);
        let root = t.span(None, "fit", a, b);
        t.span(Some(root), "tdaub.run", a, b);
        t.span(Some(root), "tdaub.run", a, b);
        assert!((t.total_ms("tdaub.run") - 10.0).abs() < 1e-9);
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert!(t.to_json("\"w\":1").contains("\"parent\":1"));
    }
}
