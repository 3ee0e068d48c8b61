//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory until the run ends; nothing inside the crates is
//! instrumented.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with a stack of open spans: `enter` nests under whatever is
/// open, `exit` closes the innermost.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), round: 0 }
    }

    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Records an interval measured elsewhere (a client thread's query) as a
    /// closed child of the innermost open span.
    pub fn record(&mut self, name: &str, started: Instant, seconds: f64) {
        let start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent: self.open.last().copied(),
            round: self.round,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("round", Json::Num(s.round as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover. Overlapping children (two clients' concurrent queries)
/// cover their union once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, round: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("round", 0, 100, None),
            span("ingest", 10, 40, Some(0)),
            span("read", 40, 60, Some(0)),
            span("rung", 15, 25, Some(1)),
            // Two concurrent queries overlapping on 70..80.
            span("query", 60, 80, Some(0)),
            span("query", 70, 90, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (30 + 20 + 30));
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 20);
    }

    #[test]
    fn a_child_outside_its_parent_is_clamped() {
        let spans =
            [span("p", 10, 20, None), span("c", 0, 15, Some(0)), span("c", 18, 40, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn enter_exit_nest_and_record_attaches_to_the_open_span() {
        let mut t = Trace::new();
        t.set_round(3);
        let root = t.enter("round");
        let child = t.enter("ingest");
        t.exit();
        t.record("query", Instant::now(), 0.001);
        t.exit();
        let spans = t.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        assert_eq!(spans[2].duration_ns(), 1_000_000);
        assert!(spans.iter().all(|s| s.round == 3));
        assert!(spans[root].end_ns >= spans[child].end_ns);
    }
}
