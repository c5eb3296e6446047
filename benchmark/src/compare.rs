//! `compare` and `selfcheck`: judge two sets of run records against the
//! bounds `BENCHMARK.json` fixes.
//!
//! A record file holds one run record per line (each run writes a
//! one-line file, so `cat` builds a set).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use serde::Value;

use crate::stats::{judge, median, spread, Better, Verdict};
use crate::workloads::Workload;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The end-to-end metrics with their bounds.
    pub end_to_end: Vec<Bounded>,
    /// `(name, unit)` of each per-layer metric.
    pub per_layer: Vec<(String, String)>,
    /// Workload names.
    pub workloads: Vec<String>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` is not a string")),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(xs) => Ok(xs),
        _ => Err(format!("`{key}` is not a list")),
    }
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(src: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(src).map_err(|e| e.to_string())?;
        let end_to_end = list(&v, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bounded {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    better: match text(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("`better` is `{other}`")),
                    },
                    bound: field(m, "bound")?
                        .as_f64()
                        .ok_or("`bound` is not a number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list(&v, "per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let workloads = list(&v, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            end_to_end,
            per_layer,
            workloads,
        })
    }

    /// Read and parse `path`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One run record, reduced to what the comparison reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    quick: bool,
    digest: String,
    correct: bool,
    host: String,
    /// `name -> (value, unit)`.
    metrics: BTreeMap<String, (f64, String)>,
}

impl Record {
    fn parse(line: &str) -> Result<Record, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let Value::Object(fields) = field(&v, "metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                let value = field(m, "value")?
                    .as_f64()
                    .ok_or_else(|| format!("`{name}` has no numeric value"))?;
                Ok((name.clone(), (value, text(m, "unit")?)))
            })
            .collect::<Result<_, String>>()?;
        let host = field(&v, "host")?;
        Ok(Record {
            workload: text(&v, "workload")?,
            seed: field(&v, "seed")?
                .as_u64()
                .ok_or("`seed` is not a number")?,
            trace: field(&v, "trace")?.as_u64() == Some(1),
            quick: matches!(field(&v, "quick")?, Value::Bool(true)),
            digest: text(&v, "sim_digest")?,
            correct: matches!(field(&v, "correct")?, Value::Bool(true)),
            // Calibration time moves from run to run; the rest names the
            // host, the toolchain and the revision.
            host: format!(
                "{} x {} / {}",
                field(host, "nproc")?.as_u64().unwrap_or(0),
                text(host, "cpu_model")?,
                text(host, "rustc")?
            ),
            metrics,
        })
    }
}

/// Read every record of a record file.
pub fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    src.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The table, ready to print.
    pub text: String,
    /// End-to-end rows beyond their bound.
    pub regressed: usize,
    /// End-to-end rows whose spread exceeds their bound.
    pub unresolved: usize,
    /// Runs of the same workload, seed and mode whose `sim_digest`
    /// differs between the sets.
    pub digest_changes: usize,
    /// Exact values (counts, simulated statistics) that differ between
    /// runs of the same workload, seed and mode.
    pub exact_changes: usize,
    /// Records that failed their own correctness checks.
    pub incorrect: usize,
}

fn values(records: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).map(|m| m.0))
        .collect()
}

/// A simulated statistic or a count the program makes: it repeats
/// exactly for one build, seed and host.
fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count" || unit == "B" || matches!(name, "sim_afct_s" | "completed_frac")
}

/// Compare set `b` (the change) against set `a` (the parent).
pub fn compare(spec: &Spec, a: &[Record], b: &[Record]) -> Outcome {
    let mut out = Outcome::default();
    let t = &mut out.text;

    let hosts: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.host.as_str()).collect();
    if hosts.len() > 1 {
        let _ = writeln!(
            t,
            "WARNING: the sets come from different hosts or toolchains; host times do not compare:"
        );
        for h in &hosts {
            let _ = writeln!(t, "  {h}");
        }
    }
    out.incorrect = a.iter().chain(b).filter(|r| !r.correct).count();

    let _ = writeln!(
        t,
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, w, false, &m.name), values(b, w, false, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
            }
            let _ = writeln!(
                t,
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>5.1}%  {}",
                w,
                m.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                100.0 * spread(&va).max(spread(&vb)),
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    let _ = writeln!(
        t,
        "\nper-layer medians (no bound; they explain the rows above)"
    );
    for w in &spec.workloads {
        for (name, unit) in &spec.per_layer {
            let (va, vb) = (values(a, w, true, name), values(b, w, true, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let _ = writeln!(
                t,
                "{:<18} {:<28} {:>16.6} {:>16.6} {unit}",
                w,
                name,
                median(&va),
                median(&vb)
            );
        }
    }

    // Runs both sets hold: same workload, seed and mode.
    for ra in a {
        for rb in b.iter().filter(|rb| {
            (&rb.workload, rb.seed, rb.trace, rb.quick)
                == (&ra.workload, ra.seed, ra.trace, ra.quick)
        }) {
            let tag = format!(
                "{} seed {} trace {}",
                ra.workload,
                ra.seed,
                u8::from(ra.trace)
            );
            if ra.digest != rb.digest {
                out.digest_changes += 1;
                let _ = writeln!(
                    t,
                    "sim_digest CHANGED on {tag}: {} -> {}",
                    ra.digest, rb.digest
                );
            }
            for (name, (x, unit)) in &ra.metrics {
                let Some((y, _)) = rb.metrics.get(name) else {
                    continue;
                };
                if is_exact(name, unit) && x.to_bits() != y.to_bits() {
                    out.exact_changes += 1;
                    let _ = writeln!(t, "exact value {name} differs on {tag}: {x} -> {y}");
                }
            }
        }
    }
    let _ = writeln!(
        t,
        "\n{} regressed, {} unresolved, {} sim_digest changes, {} exact-value changes, {} incorrect runs",
        out.regressed, out.unresolved, out.digest_changes, out.exact_changes, out.incorrect
    );
    out
}

/// Run two full sets of the current build — every workload, both modes,
/// one process each — and compare them. Returns the comparison, or why a
/// run could not be made.
pub fn selfcheck(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut sets: Vec<Vec<Record>> = Vec::new();
    for set in ["a", "b"] {
        let mut lines = String::new();
        for w in Workload::ALL {
            for trace in [false, true] {
                eprintln!(
                    "selfcheck: set {set}, {} trace {}",
                    w.name(),
                    u8::from(trace)
                );
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name()])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(out_dir)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null());
                if quick {
                    cmd.arg("--quick");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{} trace {} exited with {status}",
                        w.name(),
                        u8::from(trace)
                    ));
                }
                let record = out_dir.join(format!("{}-trace{}.json", w.name(), u8::from(trace)));
                lines += &std::fs::read_to_string(&record)
                    .map_err(|e| format!("{}: {e}", record.display()))?;
            }
        }
        let path = out_dir.join(format!("selfcheck-{set}.jsonl"));
        std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
        sets.push(load_records(&path)?);
    }
    Ok(compare(spec, &sets[0], &sets[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{END_TO_END, PER_LAYER};

    fn spec() -> Spec {
        Spec::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let spec = spec();
        let declared: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(declared, END_TO_END);
        let declared: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(declared, PER_LAYER);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        // setup_s carries the largest bound, and none exceeds the cap.
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25 && setup.better == Better::Lower);
    }

    fn record(workload: &str, seed: u64, digest: &str, wall: f64, afct: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":0,\"quick\":false,\
             \"host\":{{\"nproc\":2,\"cpu_model\":\"cpu\",\"rustc\":\"rustc 1\"}},\
             \"sim_digest\":\"{digest}\",\"correct\":true,\
             \"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}},\
             \"sim_afct_s\":{{\"value\":{afct},\"unit\":\"sim_s\"}}}}}}"
        )
    }

    fn parse(lines: &[String]) -> Vec<Record> {
        lines.iter().map(|l| Record::parse(l).unwrap()).collect()
    }

    #[test]
    fn compare_applies_the_bound_per_row() {
        let spec = spec();
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .bound;
        let a = parse(&[record("video_full", 1, "d", 10.0, 0.3)]);
        let within = parse(&[record(
            "video_full",
            1,
            "d",
            10.0 * (1.0 + 0.5 * bound),
            0.3,
        )]);
        let beyond = parse(&[record(
            "video_full",
            1,
            "d",
            10.0 * (1.0 + 2.0 * bound),
            0.3,
        )]);
        let ok = compare(&spec, &a, &within);
        assert_eq!((ok.regressed, ok.unresolved, ok.digest_changes), (0, 0, 0));
        let bad = compare(&spec, &a, &beyond);
        assert_eq!(bad.regressed, 1);
        assert!(bad.text.contains("REGRESSED"));
        // A row on another workload is its own row, not pooled.
        let other = parse(&[record("busy_full", 1, "d", 99.0, 0.3)]);
        assert_eq!(compare(&spec, &a, &other).regressed, 0);
    }

    #[test]
    fn compare_flags_digest_and_exact_changes_on_the_same_seed_only() {
        let spec = spec();
        let a = parse(&[record("video_full", 1, "aaaa", 10.0, 0.3)]);
        let changed = parse(&[record("video_full", 1, "bbbb", 10.0, 0.31)]);
        let out = compare(&spec, &a, &changed);
        assert_eq!((out.digest_changes, out.exact_changes), (1, 1));
        assert!(out.text.contains("sim_digest CHANGED"));
        let other_seed = parse(&[record("video_full", 2, "bbbb", 10.0, 0.31)]);
        let out = compare(&spec, &a, &other_seed);
        assert_eq!((out.digest_changes, out.exact_changes), (0, 0));
    }

    #[test]
    fn compare_reports_unresolved_rows() {
        let spec = spec();
        let noisy: Vec<String> = [6.0, 10.0, 14.0, 8.0, 12.0]
            .iter()
            .enumerate()
            .map(|(i, &w)| record("video_full", i as u64, "d", w, 0.3))
            .collect();
        let out = compare(&spec, &parse(&noisy), &parse(&noisy));
        assert_eq!((out.regressed, out.unresolved), (0, 1));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(Spec::parse("{\"end_to_end\": 3}").is_err());
        assert!(Spec::parse("not json").is_err());
        assert!(Record::parse("{\"workload\":\"x\"}").is_err());
    }
}
