//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program carries no spans of the benchmark's; the recorder wraps the
//! public call at each layer boundary of the in-process replica. Spans stay
//! in memory and are written as Chrome trace-event JSON when the pass ends.

use std::time::Instant;

/// One closed span. `parent` indexes the span that was open when this one
/// started; spans of one replayed op share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// A single-threaded span recorder. While disabled (as it starts) every call
/// is a plain pass-through, which is the untraced side of the overhead
/// figure.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`; `f` gets the recorder back so it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans[index].dur_us = end - self.spans[index].start_us;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.dur_us;
        }
    }
    own
}

/// Per span name: calls, median duration and median self time (µs), in
/// first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut by_name: Vec<(&'static str, Vec<f64>, Vec<f64>)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times_us(spans)) {
        let at = by_name
            .iter()
            .position(|(name, ..)| *name == span.name)
            .unwrap_or_else(|| {
                by_name.push((span.name, Vec::new(), Vec::new()));
                by_name.len() - 1
            });
        by_name[at].1.push(span.dur_us);
        by_name[at].2.push(own);
    }
    by_name
        .into_iter()
        .map(|(name, durs, owns)| {
            let mid = |values: &[f64]| crate::stats::median(values).unwrap_or(0.0);
            (name, durs.len(), mid(&durs), mid(&owns))
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, one track per replayed op.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let own = self_times_us(spans);
    let events: Vec<String> = spans
        .iter()
        .zip(&own)
        .map(|(s, own)| {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", spans[p].name));
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {parent}, \"self_us\": {own:.3}}}}}",
                s.name, s.op, s.start_us, s.dur_us, s.op
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, dur: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            dur_us: dur,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("decode", 0.0, 10.0, Some(0)),
            span("run", 10.0, 80.0, Some(0)),
            span("keydist", 10.0, 50.0, Some(2)),
            span("rounds", 60.0, 25.0, Some(2)),
        ];
        // Grandchildren are charged to their parent only.
        assert_eq!(self_times_us(&spans), vec![10.0, 10.0, 5.0, 50.0, 25.0]);
        let summary = summarize(&spans);
        assert_eq!(summary[2], ("run", 1, 80.0, 5.0));
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        rec.set_op(3);
        let got = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].op),
            ("inner", Some(0), 3)
        );
        assert!(spans[0].dur_us >= spans[1].dur_us);
        assert!(self_times_us(spans).iter().all(|own| *own >= 0.0));

        let mut off = Recorder::new();
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let spans = vec![span("op", 0.0, 5.0, None), span("run", 1.0, 3.0, Some(0))];
        let doc = crate::json::Json::parse(&to_chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_str()),
            Some("op")
        );
    }
}
