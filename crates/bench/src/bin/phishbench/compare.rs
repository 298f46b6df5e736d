//! `compare A.json B.json`: one row per workload and end-to-end metric
//! of two `run` records, judged against the bounds in `BENCHMARK.json`.
//!
//! Each side's values are its per-repetition medians (`run --repeat N`).
//! A metric whose run-to-run spread (interquartile distance over the
//! median) exceeds its bound on either side is `unresolved`, unless
//! every B value beats, or loses to, every A value. Otherwise a change
//! beyond the bound is `better` or `worse`, and anything smaller is
//! `within bound`.

use crate::spec::{MetricSpec, Spec};
use crate::stats::Summary;
use serde_json::Value;

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than the bound.
    Better,
    /// B is worse by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// The run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's values against A's for one metric.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive when B is worse.
    let worse_by = |x: f64, y: f64| {
        let change = (y - x) / x.abs().max(f64::MIN_POSITIVE);
        if m.lower_is_better {
            change
        } else {
            -change
        }
    };
    let all = |pred: &dyn Fn(f64, f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(x, y)));
    if sa.spread() > bound || sb.spread() > bound {
        return if all(&|x, y| worse_by(x, y) < 0.0) {
            Verdict::Better
        } else if all(&|x, y| worse_by(x, y) > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let w = worse_by(sa.median, sb.median);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn values(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("runs")?
        .as_array()?;
    let v: Vec<f64> = runs.iter().filter_map(Value::as_f64).collect();
    (!v.is_empty()).then_some(v)
}

fn cell(s: &Summary) -> String {
    format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n)
}

/// Print the comparison table; returns whether any metric got worse.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> bool {
    println!(
        "{:<13} {:<12} {:<36} {:<36} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (values(a, w, &m.name), values(b, w, &m.name)) else {
                continue;
            };
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(m, &va, &vb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<13} {:<12} {:<36} {:<36} {:>+7.1}% {:>5.0}%  {}",
                w,
                m.name,
                cell(&sa),
                cell(&sb),
                (sb.median / sa.median - 1.0) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                v.label()
            );
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn judges_against_the_bound_in_the_metric_direction() {
        let lower = metric(true);
        let a = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            verdict(&lower, &a, &[1.05, 1.04, 1.06]),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&lower, &a, &[1.3, 1.31, 1.29]), Verdict::Worse);
        assert_eq!(verdict(&lower, &a, &[0.7, 0.71, 0.69]), Verdict::Better);
        let higher = metric(false);
        assert_eq!(verdict(&higher, &a, &[0.7, 0.71, 0.69]), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let m = metric(true);
        let noisy = [1.0, 1.5, 0.7, 1.2, 0.9];
        assert_eq!(verdict(&m, &noisy, &[1.1, 1.0, 1.2]), Verdict::Unresolved);
        assert_eq!(verdict(&m, &noisy, &[2.0, 2.1, 2.2]), Verdict::Worse);
        assert_eq!(verdict(&m, &noisy, &[0.3, 0.35, 0.4]), Verdict::Better);
    }
}
