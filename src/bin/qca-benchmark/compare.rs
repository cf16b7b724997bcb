//! `--compare A*.json -- B*.json`: two sets of run reports, judged per
//! workload and end-to-end metric against the benchmark's bounds. The
//! per-layer metrics the reports carry are shown beside them, unjudged.

use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use qca_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One side's distribution of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        quartiles(values).map(|[q1, median, q3]| Side { q1, median, q3 })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's run-to-run spread is wider than the bound, so
    /// "within the bound" cannot be told from noise.
    Unresolved,
}

/// Judges one metric: the spreads first, then the change in medians.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Option<(Side, Side, Verdict)> {
    let bound = metric.bound?;
    let (sa, sb) = (Side::of(a)?, Side::of(b)?);
    let worse_by = match metric.better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    // False for a NaN spread too (a zero median).
    let steady = |s: Side| s.spread() <= bound;
    let verdict = if !steady(sa) || !steady(sb) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((sa, sb, verdict))
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    let decimals = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.decimals$}")
}

/// Metric values per workload, from a set of report files: every
/// end-to-end metric, and the per-layer metrics every report has.
type Set = BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>;

fn load(files: &[String]) -> Result<Set, String> {
    let mut set = Set::new();
    let mut runs: BTreeMap<String, usize> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let report = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        let workload = report
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(JsonValue::as_str)
            .ok_or_else(|| {
                format!("{file}: not a qca-benchmark report (no provenance.workload)")
            })?;
        *runs.entry(workload.to_string()).or_default() += 1;
        let metrics = set.entry(workload.to_string()).or_default();
        for (section, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER)] {
            for m in list {
                let value = report
                    .get(section)
                    .and_then(|e| e.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(JsonValue::as_f64);
                match value {
                    Some(v) => metrics.entry(m.name).or_default().push(v),
                    None if m.bound.is_some() => {
                        return Err(format!("{file}: no {section}.{}", m.name))
                    }
                    None => {}
                }
            }
        }
    }
    for (workload, metrics) in &mut set {
        metrics.retain(|_, values| values.len() == runs[workload]);
    }
    Ok(set)
}

/// Prints the comparison; `Ok(true)` when every end-to-end metric of
/// every workload present on both sides is within its bound. Per-layer
/// metrics that every report on both sides has are shown without a
/// verdict.
pub fn compare(a_files: &[String], b_files: &[String]) -> Result<bool, String> {
    let (a, b) = (load(a_files)?, load(b_files)?);
    let mut out = format!(
        "{:<18} {:<26} {:>32} {:>32} {:>8}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A"
    );
    let mut all_ok = true;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<18} (no B runs)");
            all_ok = false;
            continue;
        };
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let (Some(va), Some(vb)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Side::of(va), Side::of(vb)) else {
                continue;
            };
            let verdict = match (judge(m, va, vb), m.bound) {
                (Some((_, _, v)), Some(bound)) => {
                    all_ok &= v == Verdict::Ok;
                    let name = match v {
                        Verdict::Ok => "ok",
                        Verdict::Worse => "WORSE",
                        Verdict::Unresolved => "unresolved",
                    };
                    format!("{name} (bound {:.0}%)", 100.0 * bound)
                }
                _ => "- (per-layer, no bound)".to_string(),
            };
            let side = |s: Side| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
            let _ = writeln!(
                out,
                "{workload:<18} {:<26} {:>32} {:>32} {:>+7.1}%  {verdict}; spreads {:.1}% / {:.1}%",
                m.name,
                side(sa),
                side(sb),
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<18} (no A runs)");
        all_ok = false;
    }
    print!("{out}");
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
        judge(m, a, b).unwrap().2
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let shifted = |by: f64| a.map(|v| v * by);
        let lower = metric(Better::Lower);
        assert_eq!(verdict(&lower, &a, &shifted(1.05)), Verdict::Ok);
        assert_eq!(verdict(&lower, &a, &shifted(1.12)), Verdict::Worse);
        // Lower-is-better: a big drop is an improvement, not a regression.
        assert_eq!(verdict(&lower, &a, &shifted(0.5)), Verdict::Ok);
        let higher = metric(Better::Higher);
        assert_eq!(verdict(&higher, &a, &shifted(0.88)), Verdict::Worse);
        assert_eq!(verdict(&higher, &a, &shifted(1.5)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [70.0, 130.0, 100.0, 85.0, 115.0];
        let lower = metric(Better::Lower);
        let (sa, sb, v) = judge(&lower, &steady, &noisy).unwrap();
        assert!(sa.spread() < 0.1 && sb.spread() > 0.1);
        assert_eq!(v, Verdict::Unresolved);
        assert_eq!(verdict(&lower, &noisy, &steady), Verdict::Unresolved);
        // Even a clear regression is unresolved when one side is noise.
        assert_eq!(verdict(&lower, &noisy, &[200.0; 5]), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &[0.0; 3], &[0.0; 3]), Verdict::Unresolved);
    }
}
