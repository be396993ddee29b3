//! The benchmark's own span recorder for the traced run: spans are opened
//! and closed around the calls into the system from the benchmark's files
//! (set-up, warm-up, each `run_for` slice, collection, checks, probes),
//! kept in memory, and written out once at exit. Spans inside the program
//! are a later issue.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which repetition the span belongs to; spans of one run share it.
    pub run: u32,
    /// Counts sampled at the span's closing boundary.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.enter_at(name, now)
    }

    fn enter_at(&mut self, name: &str, now_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns,
            end_ns: now_ns,
            parent: self.open.last().copied(),
            run: self.run,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) with counts taken at this
    /// boundary.
    pub fn exit(&mut self, id: usize, counts: Vec<(String, u64)>) {
        let now = self.now_ns();
        self.exit_at(id, now, counts);
    }

    fn exit_at(&mut self, id: usize, now_ns: u64, counts: Vec<(String, u64)>) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now_ns;
        self.spans[id].counts = counts;
    }

    /// A span's own time: its duration minus the part of it its child
    /// spans cover (children never overlap: one thread, strict nesting).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Sum of durations of the top-level spans of repetition `run`.
    pub fn top_level_ns(&self, run: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.run == run)
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(&s.name)),
                    ("run", Json::Num(f64::from(s.run))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self.self_time_ns(id) as f64)),
                    (
                        "counts",
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let runs = self.spans.iter().map(|s| s.run).max().map_or(0, |m| m + 1);
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("clock", Json::str("wall, ns since the recorder started")),
            // Per run id: the sum of its top-level spans, which is also the
            // sum of the self times of every span of the run.
            (
                "top_level_ns_by_run",
                Json::Arr(
                    (0..runs)
                        .map(|r| Json::Num(self.top_level_ns(r) as f64))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::default();
        r.set_run(3);
        let root = r.enter_at("bench.run", 100);
        let a = r.enter_at("slice", 150);
        let inner = r.enter_at("inner", 160);
        r.exit_at(inner, 190, vec![]);
        r.exit_at(a, 250, vec![("events".into(), 7)]);
        let b = r.enter_at("slice", 300);
        r.exit_at(b, 450, vec![]);
        r.exit_at(root, 1_000, vec![]);
        let other = r.enter_at("bench.check", 1_000);
        r.exit_at(other, 1_200, vec![]);

        assert_eq!(r.spans[root].duration_ns(), 900);
        // 900 - (100 + 150): grandchildren are charged to their parent only.
        assert_eq!(r.self_time_ns(root), 650);
        assert_eq!(r.self_time_ns(a), 70);
        assert_eq!(r.self_time_ns(inner), 30);
        assert_eq!(r.spans[inner].parent, Some(a));
        assert_eq!(r.spans[b].parent, Some(root));
        assert_eq!(r.spans[a].counts, vec![("events".to_string(), 7)]);
        // Top-level spans tile the run: 900 + 200, and self times of the
        // whole tree add up to the same total.
        assert_eq!(r.top_level_ns(3), 1_100);
        let all_self: u64 = (0..r.spans.len()).map(|i| r.self_time_ns(i)).sum();
        assert_eq!(all_self, 1_100);
        assert_eq!(r.top_level_ns(0), 0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut r = Recorder::default();
        let a = r.enter("a");
        let _b = r.enter("b");
        r.exit(a, vec![]);
    }

    #[test]
    fn json_carries_parent_and_self_time() {
        let mut r = Recorder::default();
        let outer = r.enter("probe.sql.parser");
        let inner = r.enter("child");
        r.exit(inner, vec![]);
        r.exit(outer, vec![]);
        let j = r.to_json("write-sat", 11);
        let spans = j.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert!(spans[0].get("self_ns").is_some());
    }
}
