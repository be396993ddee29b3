//! `benchmark compare <a.json> <b.json>`: one row per workload and
//! end-to-end metric of two `benchmark all` result files, A being the
//! parent. Used for the A/A acceptance of the benchmark itself and by
//! every later change that claims a gain or "no regression".

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd};
use crate::stats::{quartiles, spread};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A's own run-to-run spread exceeds the bound: the pair cannot be
    /// told apart, which is not the same as "unchanged".
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's median against A's under `m`'s direction and bound.
/// `a_spread` is the spread between A's own processes: the distance between
/// the quartiles of their values as a share of the median (0 for a virtual
/// metric, which every process of one commit and seed reproduces exactly).
pub fn verdict(m: &EndToEnd, a: f64, b: f64, a_spread: f64) -> Verdict {
    if a_spread > m.bound {
        return Verdict::Unresolved;
    }
    if a == b {
        return Verdict::Same;
    }
    if a == 0.0 {
        // No base for a ratio (a failure share that was zero): any move
        // away from zero is judged by its direction alone.
        let worse = (b > 0.0) == (m.better == Better::Lower);
        return if worse {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let change = (b - a) / a.abs();
    let worsening = if m.better == Better::Lower {
        change
    } else {
        -change
    };
    if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Side {
    value: f64,
    samples: Vec<f64>,
}

fn side(file: &Json, workload: &str, section: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    let samples = m
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn quartile_text(s: &Side) -> String {
    if s.samples.len() < 2 {
        return "-".to_string();
    }
    let (q1, q3) = quartiles(&s.samples);
    format!("{q1:.4}..{q3:.4}")
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            eprintln!("warning: the two files differ in '{key}'; virtual metrics will not line up");
        }
    }
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>8} {:>6}  {:<10} {:<22} {:<22}",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict", "A quartiles", "B quartiles"
    );
    let mut counts = [0usize; 4];
    let rows = spec::END_TO_END
        .iter()
        .map(|m| (m, "end_to_end"))
        .chain(spec::WORKLOAD_E2E.iter().map(|m| (m, "per_layer")));
    for (m, section) in rows {
        for w in &spec::WORKLOADS {
            let (Some(sa), Some(sb)) = (
                side(&a, w.name, section, m.name),
                side(&b, w.name, section, m.name),
            ) else {
                return Err(format!(
                    "{} {} is missing from one of the files",
                    w.name, m.name
                ));
            };
            if section == "per_layer" && sa.value == 0.0 && sb.value == 0.0 {
                continue; // not defined on this workload
            }
            let v = verdict(m, sa.value, sb.value, spread(&sa.samples));
            counts[v as usize] += 1;
            let ratio = if sa.value == 0.0 {
                f64::NAN
            } else {
                sb.value / sa.value
            };
            let identical = if sa.value.to_bits() == sb.value.to_bits() {
                "="
            } else {
                " "
            };
            println!(
                "{:<15} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>5.0}% {identical}{:<10} {:<22} {:<22}",
                w.name,
                m.name,
                sa.value,
                sb.value,
                ratio,
                m.bound * 100.0,
                v.name(),
                quartile_text(&sa),
                quartile_text(&sb),
            );
        }
    }
    println!(
        "{} better, {} same, {} worse, {} unresolved ('=' marks bit-identical values)",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: EndToEnd = EndToEnd {
        name: "lat",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const TPS: EndToEnd = EndToEnd {
        name: "tps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };

    #[test]
    fn verdict_follows_direction_and_bound() {
        assert_eq!(verdict(&LAT, 100.0, 100.0, 0.0), Verdict::Same);
        assert_eq!(verdict(&LAT, 100.0, 109.0, 0.0), Verdict::Same);
        assert_eq!(verdict(&LAT, 100.0, 111.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(&LAT, 100.0, 89.0, 0.0), Verdict::Better);
        assert_eq!(verdict(&TPS, 100.0, 94.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(&TPS, 100.0, 106.0, 0.0), Verdict::Better);
        assert_eq!(verdict(&TPS, 100.0, 96.0, 0.0), Verdict::Same);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_not_same() {
        assert_eq!(verdict(&LAT, 100.0, 100.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(&LAT, 100.0, 150.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(&LAT, 100.0, 150.0, 0.10), Verdict::Worse);
    }

    #[test]
    fn zero_base_is_judged_by_direction() {
        assert_eq!(verdict(&LAT, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(&LAT, 0.0, 0.01, 0.0), Verdict::Worse);
        assert_eq!(verdict(&TPS, 0.0, 5.0, 0.0), Verdict::Better);
    }
}
