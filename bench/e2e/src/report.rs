//! Output: the driver's one-line JSON result, the human-readable metric
//! table, the result files of `all`, and `compare`.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{def, Kind, Outcome, METRICS};
use crate::procs;
use crate::stats::median;

/// The metrics of `kind` as a JSON object. A gated metric the workload did
/// not set is an error; an unset layer metric is a layer the workload
/// never entered, reported as 0.
fn metrics_json(out: &Outcome, kind: Kind, with_samples: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for d in METRICS.iter().filter(|d| d.kind == kind) {
        let value = match (out.get(d.name), kind) {
            (Some(v), _) => v,
            (None, Kind::Layer) => 0.0,
            (None, Kind::EndToEnd) => return Err(format!("workload did not report {}", d.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is not a number", d.name));
        }
        let samples = match out.samples(d.name) {
            Some(n) if with_samples => format!(",\"samples\":{n}"),
            _ => String::new(),
        };
        fields.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"{samples}}}",
            d.name, d.unit
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

/// The driver's result object for one run.
pub fn result_json(out: &Outcome, kind: Kind, with_samples: bool) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(out, kind, with_samples)?
    ))
}

/// Every metric of `kind` by name, with unit and sample count, for people.
pub fn print_table(workload: &str, out: &Outcome, kind: Kind) {
    println!(
        "# {workload}: attempted={} failed={}",
        out.attempted, out.failed
    );
    for d in METRICS.iter().filter(|d| d.kind == kind) {
        let value = out.get(d.name).unwrap_or(0.0);
        let samples = out
            .samples(d.name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<44} {value:>16.4} {}{samples}", d.name, d.unit);
    }
    for note in &out.notes {
        println!("# {note}");
    }
}

/// Where a run was made; `compare` refuses to mix core counts.
pub fn runner_json(seed: u64, seconds: f64) -> String {
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"commit\":\"{}\",\"seed\":{seed},\"seconds\":{seconds}}}",
        procs::nproc(),
        json::escape(&procs::cpu_model()),
        json::escape(&procs::commit())
    )
}

/// One side of a comparison: per workload, per metric, the values of every
/// run in the set.
struct RunSet {
    nproc: f64,
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

fn load_set(paths: &str) -> Result<RunSet, String> {
    let mut set = RunSet {
        nproc: 0.0,
        values: BTreeMap::new(),
    };
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let nproc = doc
            .get("runner")
            .and_then(|r| r.get("nproc"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no runner.nproc"))?;
        if set.nproc != 0.0 && set.nproc != nproc {
            return Err(format!(
                "{path}: made on {nproc} cores, the others on {}",
                set.nproc
            ));
        }
        set.nproc = nproc;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: no workloads"))?;
        for (workload, result) in workloads {
            for mode in ["end_to_end", "per_layer"] {
                let Some(metrics) = result
                    .get(mode)
                    .and_then(|m| m.get("metrics"))
                    .and_then(Json::as_object)
                else {
                    continue;
                };
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        set.values
                            .entry(workload.clone())
                            .or_default()
                            .entry(name.clone())
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(set)
}

/// Distance between the quartiles as a share of the median; `None` below
/// four runs.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    // The exclusive method of Python's statistics.quantiles(n=4).
    let q = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let i = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[i - 1] + (pos - i as f64) * (v[i] - v[i - 1])
    };
    let m = median(&v);
    (m != 0.0).then(|| (q(0.75) - q(0.25)) / m.abs())
}

/// `compare A[,A2…] B[,B2…]`: per workload and metric, both medians, the
/// ratio B/A, the bound, and a verdict. Returns whether any gated metric
/// got worse by more than its bound.
pub fn compare(
    a_paths: &str,
    b_paths: &str,
    bounds: &BTreeMap<String, f64>,
) -> Result<bool, String> {
    let (a, b) = (load_set(a_paths)?, load_set(b_paths)?);
    if a.nproc != b.nproc {
        return Err(format!(
            "refusing to compare results from different core counts ({} vs {})",
            a.nproc, b.nproc
        ));
    }
    let mut any_worse = false;
    println!(
        "{:<22} {:<40} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for (workload, metrics) in &a.values {
        for (name, a_values) in metrics {
            let Some(b_values) = b.values.get(workload).and_then(|m| m.get(name)) else {
                continue;
            };
            let (ma, mb) = (median(a_values), median(b_values));
            let ratio = if ma != 0.0 { mb / ma } else { 0.0 };
            let bound = bounds.get(name).copied();
            let verdict = match (bound, def(name)) {
                (Some(bound), Some(d)) if ma != 0.0 => {
                    let worse_by = if d.better == "lower" {
                        ratio - 1.0
                    } else {
                        1.0 - ratio
                    };
                    let wide = [a_values, b_values]
                        .iter()
                        .filter_map(|v| spread(v))
                        .any(|s| s > bound);
                    if wide {
                        "unresolved"
                    } else if worse_by > bound {
                        any_worse = true;
                        "worse"
                    } else {
                        "ok"
                    }
                }
                _ => "-",
            };
            println!(
                "{workload:<22} {name:<40} {ma:>14.4} {mb:>14.4} {ratio:>8.4} {:>6}  {verdict}",
                bound.map_or("-".to_string(), |b| format!("{b}"))
            );
        }
    }
    Ok(any_worse)
}

/// The bounds `BENCHMARK.json` fixes, by metric name.
pub fn load_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn a_missing_gated_metric_is_an_error_and_a_missing_layer_is_zero() {
        let mut out = Outcome::default();
        assert!(result_json(&out, Kind::EndToEnd, false).is_err());
        let layers = result_json(&out, Kind::Layer, false).unwrap();
        assert!(layers.contains("\"store.get_calls\":{\"value\":0,\"unit\":\"count\"}"));
        for d in METRICS.iter().filter(|d| d.kind == Kind::EndToEnd) {
            out.set(d.name, 1.5);
        }
        out.check(true);
        let line = result_json(&out, Kind::EndToEnd, false).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("metrics").unwrap().as_object().unwrap().len(), 4);
    }
}
