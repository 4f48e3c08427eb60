//! `--compare A.json B.json`: do two result sets agree within each end-to-end
//! metric's own bound?
//!
//! A result set is what `--workload all --out <file>` writes. The same check
//! answers "do two runs of one commit agree" and "is the change (B) within
//! bounds of its parent (A)"; every row names its direction.

use crate::json::Json;
use crate::spec::{Better, Metric, END_TO_END};

/// One `(workload, metric)` pair that differs by more than the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Difference {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`.
    pub change: f64,
    pub bound: f64,
    /// Whether B is the worse side.
    pub b_is_worse: bool,
}

impl std::fmt::Display for Difference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {:<20} A={:<14.6} B={:<14.6} {:+.1}% (bound {:.1}%): B is {}",
            self.workload,
            self.metric,
            self.a,
            self.b,
            self.change * 100.0,
            self.bound * 100.0,
            if self.b_is_worse { "worse" } else { "better" }
        )
    }
}

fn difference(workload: &str, metric: &Metric, a: f64, b: f64) -> Option<Difference> {
    let change = if a == 0.0 { f64::INFINITY } else { (b - a) / a };
    (change.abs() > metric.bound).then(|| Difference {
        workload: workload.to_string(),
        metric: metric.name,
        a,
        b,
        change,
        bound: metric.bound,
        b_is_worse: (change > 0.0) == (metric.better == Better::Lower),
    })
}

/// Every `(workload, end-to-end metric)` of `a` and `b` that differs by more
/// than the metric's bound. A workload or metric present in one set only, or
/// a run that was not correct, is an error: such sets cannot agree.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Difference>, String> {
    let workloads_a = a.get("workloads").ok_or("set A has no 'workloads'")?;
    let workloads_b = b.get("workloads").ok_or("set B has no 'workloads'")?;
    let mut out = Vec::new();
    for (name, run_a) in workloads_a.members() {
        let run_b = workloads_b
            .get(name)
            .ok_or_else(|| format!("workload '{name}' is missing from set B"))?;
        for (side, run) in [("A", run_a), ("B", run_b)] {
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("workload '{name}' of set {side} was not correct"));
            }
        }
        for metric in END_TO_END {
            let value = |side: &str, run: &Json| {
                run.get("end_to_end")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("set {side}: {name} has no {}", metric.name))
            };
            out.extend(difference(
                name,
                metric,
                value("A", run_a)?,
                value("B", run_b)?,
            ));
        }
    }
    if let Some((name, _)) = workloads_b
        .members()
        .iter()
        .find(|(name, _)| workloads_a.get(name).is_none())
    {
        return Err(format!("workload '{name}' is missing from set A"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A one-workload result set with the given cycle time and throughput.
    fn set(cycle_ms: f64, train: f64, correct: bool) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "cycle_ms" => cycle_ms,
                    "train_tuples_per_s" => train,
                    _ => 1.0,
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"workloads\": {{\"w\": {{\"correct\": {correct}, \"end_to_end\": {{{}}}}}}}}}",
            metrics.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn sets_within_bounds_agree() {
        // cycle_ms and train_tuples_per_s are bounded at 25 %.
        assert_eq!(
            compare(&set(100.0, 1000.0, true), &set(120.0, 800.0, true)),
            Ok(vec![])
        );
    }

    #[test]
    fn differences_beyond_the_bound_are_rows_with_a_direction() {
        let rows = compare(&set(100.0, 1000.0, true), &set(130.0, 1300.0, true)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].metric, rows[0].b_is_worse), ("cycle_ms", true));
        assert_eq!(
            (rows[1].metric, rows[1].b_is_worse),
            ("train_tuples_per_s", false)
        );
        assert!(rows[0].to_string().contains("B is worse"));
        // The other direction: lower throughput is worse.
        let rows = compare(&set(100.0, 1000.0, true), &set(100.0, 700.0, true)).unwrap();
        assert_eq!((rows.len(), rows[0].b_is_worse), (1, true));
    }

    #[test]
    fn incorrect_or_mismatched_sets_cannot_agree() {
        assert!(compare(&set(100.0, 1000.0, true), &set(100.0, 1000.0, false)).is_err());
        let empty = json::parse("{\"workloads\": {}}").unwrap();
        assert!(compare(&set(100.0, 1000.0, true), &empty).is_err());
        assert!(compare(&empty, &set(100.0, 1000.0, true)).is_err());
        assert!(compare(&json::parse("{}").unwrap(), &empty).is_err());
    }
}
