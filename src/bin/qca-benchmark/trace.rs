//! Spans recorded by the benchmark's own code (nothing inside the
//! program is instrumented), their self times, and the Chrome
//! trace-event file they are written to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed interval on the benchmark's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The job the span belongs to (service job id).
    pub job: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Time totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub spans: usize,
    pub total: Duration,
    /// Duration minus the part of it covered by the span's children.
    pub own: Duration,
}

impl Trace {
    /// Adds a span, clamped into its parent (children cannot outlive
    /// their cause) and to a non-negative length. Returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let (mut start, mut end) = (start, end.max(start));
        if let Some(p) = parent {
            let p = &self.spans[p];
            start = start.clamp(p.start, p.end);
            end = end.clamp(start, p.end);
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Totals per (root span name, span name).
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), SelfTime> {
        let children = self.children();
        // Parents are pushed before their children, so one pass finds
        // every span's root.
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        let mut out: BTreeMap<_, SelfTime> = BTreeMap::new();
        for ((s, kids), r) in self.spans.iter().zip(&children).zip(root) {
            let covered = union_len(
                kids.iter()
                    .map(|&k| (self.spans[k].start, self.spans[k].end)),
            );
            let entry = out.entry((self.spans[r].name, s.name)).or_default();
            entry.spans += 1;
            entry.total += s.end - s.start;
            entry.own += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Chrome trace-event JSON for the given root spans and everything
    /// below them. Job trees go to process 1 and replay trees to
    /// process 2; roots that do not overlap share a thread row.
    pub fn chrome_json(&self, roots: &[usize]) -> String {
        let children = self.children();
        let mut lanes: Vec<Duration> = Vec::new();
        let mut ordered = roots.to_vec();
        ordered.sort_by_key(|&r| self.spans[r].start);
        let mut events = Vec::new();
        for root in ordered {
            let r = &self.spans[root];
            let lane = match lanes.iter().position(|&end| end <= r.start) {
                Some(l) => l,
                None => {
                    lanes.push(Duration::ZERO);
                    lanes.len() - 1
                }
            };
            lanes[lane] = r.end;
            let pid = if r.name == "job" { 1 } else { 2 };
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                events.push(self.event(i, pid, lane + 1));
                stack.extend(&children[i]);
            }
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }

    fn event(&self, i: usize, pid: u32, tid: usize) -> String {
        let s = &self.spans[i];
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"job\":{},\"span\":{i},\"parent\":{}}}}}",
            s.name,
            if pid == 1 { "job" } else { "replay" },
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            s.job,
            s.parent.map_or(-1, |p| p as i64),
        );
        out
    }
}

/// Total length covered by a set of intervals.
fn union_len(intervals: impl Iterator<Item = (Duration, Duration)>) -> Duration {
    let mut sorted: Vec<_> = intervals.collect();
    sorted.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(Duration::ZERO, |(cs, ce)| ce - cs)
}

/// A table of self time per span name in the trees under `root` spans,
/// with each name's share of the roots' total time.
pub fn self_time_table(
    times: &BTreeMap<(&'static str, &'static str), SelfTime>,
    root: &str,
) -> String {
    let root_total = times.get(&(root, root)).map_or(Duration::ZERO, |t| t.total);
    let mut out = format!(
        "  {:<16} {:>8} {:>14} {:>14} {:>7}\n",
        "span", "count", "mean_us", "self_mean_us", "self%"
    );
    for ((_, name), t) in times.iter().filter(|((r, _), _)| *r == root) {
        let per = |d: Duration| d.as_secs_f64() * 1e6 / t.spans.max(1) as f64;
        let share = 100.0 * t.own.as_secs_f64() / root_total.as_secs_f64().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "  {name:<16} {:>8} {:>14.1} {:>14.1} {share:>6.1}%",
            t.spans,
            per(t.total),
            per(t.own)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qca_telemetry::export::validate_chrome_trace;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.push("job", ms(0), ms(10), None, 1);
        t.push("a", ms(1), ms(4), Some(root), 1);
        t.push("b", ms(3), ms(6), Some(root), 1);
        // Clamped into the parent: counts 8..10 only.
        t.push("c", ms(8), ms(30), Some(root), 1);
        let other = t.push("replay", ms(0), ms(1), None, 2);
        t.push("a", ms(0), ms(1), Some(other), 2);
        let times = t.self_times();
        assert_eq!(times[&("job", "job")].own, ms(3));
        assert_eq!(times[&("job", "job")].total, ms(10));
        assert_eq!(times[&("job", "c")].total, ms(2));
        assert_eq!(times[&("job", "a")].own, ms(3));
        assert_eq!(times[&("replay", "a")].own, ms(1));
        let table = self_time_table(&times, "job");
        assert!(
            table.contains("job") && !table.contains("replay"),
            "{table}"
        );
    }

    #[test]
    fn chrome_json_validates() {
        let mut t = Trace::default();
        for job in 0..3 {
            let root = t.push("job", ms(job), ms(job + 5), None, job);
            t.push("service.execute", ms(job + 1), ms(job + 2), Some(root), job);
        }
        let replay = t.push("replay", ms(20), ms(21), None, 0);
        t.push("engine.run", ms(20), ms(21), Some(replay), 0);
        let check = validate_chrome_trace(&t.chrome_json(&[0, 2, 4, 6])).unwrap();
        assert_eq!(check.events, 8);
        assert!(check.names.contains("service.execute"));
        assert!(check.categories.contains("replay"));
    }
}
