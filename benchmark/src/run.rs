//! One benchmark run: one workload, one seed, tracing off (the
//! end-to-end metrics) or on (the per-layer metrics), with the
//! correctness checks both modes share.

use std::cell::RefCell;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;

use scda_experiments::{run_randtcp, Scenario};
use serde::Value;

use crate::alloc::{self, Stage};
use crate::host;
use crate::probes;
use crate::replay::{build, run_plain, run_traced, set_up, Built, Replayed, SetupTimes};
use crate::stats::{median, min, percentile, Digest};
use crate::trace::{self_times_ns, Recorder, SpanKind};
use crate::workloads::Workload;

/// The end-to-end metrics: `(name, unit)`, printed with tracing off.
/// Host time unless the name says `sim`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("flows_per_s", "flows/s"),
    ("peak_rss_mb", "MiB"),
    ("completed_frac", "ratio"),
    ("sim_afct_s", "sim_s"),
];

/// The per-layer metrics: `(name, unit)`, printed with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("control.prime_s", "s"),
    ("control.admit_s", "s"),
    ("control.admit_n", "count"),
    ("control.admit_us_p50", "us"),
    ("control.admit_us_p99", "us"),
    ("control.open_s", "s"),
    ("control.round_s", "s"),
    ("control.round_n", "count"),
    ("control.round_us_p50", "us"),
    ("control.round_us_p99", "us"),
    ("control.complete_s", "s"),
    ("kernel.traced_wall_s", "s"),
    ("kernel.unattributed_s", "s"),
    ("kernel.unattributed_frac", "ratio"),
    ("kernel.trace_overhead_frac", "ratio"),
    ("kernel.steps", "count"),
    ("transport.tick_s", "s"),
    ("transport.tick_n", "count"),
    ("transport.tick_us_p50", "us"),
    ("transport.tick_us_p99", "us"),
    ("transport.peak_active", "count"),
    ("transport.completed_frac", "ratio"),
    ("metrics.account_s", "s"),
    ("simnet.route_first_us", "us"),
    ("simnet.route_warm_us", "us"),
    ("simnet.distinct_sources", "count"),
    ("simnet.interned_paths", "count"),
    ("simnet.sched_ns_per_event", "ns"),
    ("core.control_round_us", "us"),
    ("core.index_refresh_us", "us"),
    ("core.index_write_us", "us"),
    ("core.index_read_us", "us"),
    ("workloads.generate_s", "s"),
    ("simnet.build_s", "s"),
    ("core.tree_build_s", "s"),
    ("sim.requested", "count"),
    ("sim.completed", "count"),
    ("sim.rounds", "count"),
    ("sim.sla_violations", "count"),
    ("sim.changed_dirs", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("alloc.admit_count", "count"),
    ("alloc.round_count", "count"),
    ("alloc.tick_count", "count"),
];

/// The largest share of a traced run the spans may leave unexplained.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.05;

/// Times the set-up is repeated for its median. A fixed count, so the
/// heap the replays start from is the same in every run.
const SETUPS: usize = 101;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the first trace; replay `i` uses `seed + i`.
    pub seed: u64,
    /// Host seconds of replay to measure.
    pub seconds: f64,
    /// Record the layer ladder instead of the end-to-end metrics.
    pub trace: bool,
    /// `Scale::Quick` fabrics, one replay: the smoke configuration.
    pub quick: bool,
    /// Where the record and the span file go.
    pub out_dir: PathBuf,
}

/// One named number.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// One correctness check.
pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Everything a run reports.
pub struct Report {
    args: Args,
    host: Value,
    digest: Digest,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    /// Sample counts behind the medians and percentiles.
    samples: Vec<(&'static str, u64)>,
}

/// The run's traces, and the median host time of each part of the
/// set-up over [`SETUPS`] whole set-ups (every trace generated, every
/// replay built).
struct Prepared {
    scenarios: Vec<Scenario>,
    generate_s: f64,
    build_s: f64,
    tree_s: f64,
    setup_s: f64,
}

fn prepare(a: &Args) -> Prepared {
    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut scenarios = Vec::new();
    for _ in 0..SETUPS {
        let t;
        (scenarios, t) = set_up(a.workload, a.seed, a.quick);
        times.push(t);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    Prepared {
        scenarios,
        generate_s: med(|t| t.generate_s),
        build_s: med(|t| t.build_s),
        tree_s: med(|t| t.tree_s),
        setup_s: med(SetupTimes::total_s),
    }
}

/// A fresh build of `sc`, outside any timing.
fn fresh(sc: &Scenario) -> Built {
    build(sc, &mut SetupTimes::default())
}

/// Simulated statistics of the first pass, and the checks on them.
struct Pass {
    digests: Vec<Digest>,
    requested: u64,
    completed: u64,
    fct_sum: f64,
    rounds: u64,
    sla_violations: u64,
    changed_dirs: u64,
    impossible: Option<String>,
    afct_first: f64,
}

impl Pass {
    fn new() -> Self {
        Pass {
            digests: Vec::new(),
            requested: 0,
            completed: 0,
            fct_sum: 0.0,
            rounds: 0,
            sla_violations: 0,
            changed_dirs: 0,
            impossible: None,
            afct_first: f64::NAN,
        }
    }

    /// Fold one replay in; returns its digest.
    fn add(&mut self, r: &Replayed) -> Digest {
        let digest = r.digest();
        self.digests.push(digest);
        let res = &r.result;
        if self.digests.len() == 1 {
            self.afct_first = res.fct.mean_fct().unwrap_or(f64::NAN);
        }
        self.requested += res.requested as u64;
        self.completed += res.completed as u64;
        self.fct_sum += res.fct.records().iter().map(|x| x.fct()).sum::<f64>();
        self.rounds += res.control_rounds as u64;
        self.sla_violations += res.sla_violations as u64;
        self.changed_dirs += res.changed_dirs_total as u64;
        if self.impossible.is_none() {
            self.impossible = r.impossible_flow();
        }
        digest
    }

    fn digest(&self) -> Digest {
        let mut all = Digest::new();
        for d in &self.digests {
            all.word(d.value());
        }
        all
    }

    fn afct(&self) -> f64 {
        self.fct_sum / self.completed as f64
    }

    fn checks(&self, a: &Args, first: &Scenario) -> Vec<Check> {
        let mut checks = vec![
            Check {
                name: "completed_le_requested",
                ok: self.completed <= self.requested && self.completed > 0,
                detail: format!("{} of {}", self.completed, self.requested),
            },
            Check {
                name: "fct_ge_size_over_fastest_link",
                ok: self.impossible.is_none(),
                detail: self.impossible.clone().unwrap_or_default(),
            },
        ];
        // The paper's claim, on the paper's workload: SCDA's mean
        // completion time beats random placement over TCP. One untimed
        // RandTCP replay of the first trace.
        if a.workload == Workload::VideoFull {
            let rand = run_randtcp(first).fct.mean_fct().unwrap_or(f64::NAN);
            checks.push(Check {
                name: "scda_afct_below_randtcp",
                ok: self.afct_first < rand,
                detail: format!(
                    "SCDA {} sim_s, RandTCP {rand} sim_s on seed {}",
                    self.afct_first, a.seed
                ),
            });
        }
        checks
    }
}

/// Run with tracing off: the end-to-end metrics.
pub fn end_to_end(a: &Args) -> Report {
    let host = host::fingerprint();
    let Prepared {
        scenarios, setup_s, ..
    } = prepare(a);

    // The first pass replays every trace once and fixes the simulated
    // statistics. Further replays, round-robin, only while the next is
    // predicted to end inside --seconds. Each trace then reports its
    // fastest replay: the work is identical every time and a shared host
    // only ever adds to it, so the minimum is the sample the host
    // disturbed least (on the host this was sized on it spread half as
    // much between runs as the median did).
    let mut pass = Pass::new();
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut measured_s = 0.0;
    for sc in &scenarios {
        let r = run_plain(sc, fresh(sc));
        pass.add(&r);
        measured_s += r.wall_s;
        walls.push(vec![r.wall_s]);
    }
    let mut repeats_agree = true;
    let mut replays = scenarios.len() as u64;
    for i in (0..scenarios.len()).cycle() {
        if measured_s + min(&walls[i]) > a.seconds {
            break;
        }
        let r = run_plain(&scenarios[i], fresh(&scenarios[i]));
        repeats_agree &= r.digest() == pass.digests[i];
        measured_s += r.wall_s;
        walls[i].push(r.wall_s);
        replays += 1;
    }
    let peak_rss_mb = host::proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0;

    let mut checks = pass.checks(a, &scenarios[0]);
    checks.push(Check {
        name: "repeat_replays_same_digest",
        ok: repeats_agree,
        detail: format!("{} replays of {} traces", replays, scenarios.len()),
    });

    let wall_s: f64 = walls.iter().map(|w| min(w)).sum();
    let values = [
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("flows_per_s", pass.completed as f64 / wall_s),
        ("peak_rss_mb", peak_rss_mb),
        (
            "completed_frac",
            pass.completed as f64 / pass.requested as f64,
        ),
        ("sim_afct_s", pass.afct()),
    ];
    Report {
        args: a.clone(),
        host,
        digest: pass.digest(),
        attempted: pass.requested,
        failed: pass.requested - pass.completed,
        metrics: metrics_from(END_TO_END, &values),
        checks,
        samples: vec![("setups", SETUPS as u64), ("replays", replays)],
    }
}

/// Pair the measured `values` with their units: exactly the metrics of
/// `table`, in its order.
fn metrics_from(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(values.len(), table.len(), "every metric is reported");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(measured, value))| {
            assert_eq!(name, measured, "metrics are reported in table order");
            Metric { name, value, unit }
        })
        .collect()
}

/// Run with tracing on: every trace is replayed untraced, traced and
/// untraced again (whatever `--seconds` says — spans need no repetition
/// and exact counts cannot use it), then the layer-direct probes run.
pub fn per_layer(a: &Args) -> std::io::Result<Report> {
    let host = host::fingerprint();
    let Prepared {
        scenarios,
        generate_s,
        build_s,
        tree_s,
        ..
    } = prepare(a);

    let flows: usize = scenarios.iter().map(|sc| sc.workload.len()).sum();
    let steps: f64 = scenarios
        .iter()
        .map(|sc| (sc.duration / sc.dt).ceil())
        .sum();
    let rec = Rc::new(RefCell::new(Recorder::new(
        5 * flows + 3 * steps as usize + 64,
    )));
    let mut traced = Pass::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut references_agree = true;
    for (i, sc) in scenarios.iter().enumerate() {
        // Reference, traced, reference: the host's speed drifts, and the
        // mean of the replays on either side cancels a steady drift out
        // of the overhead figure.
        let before = run_plain(sc, fresh(sc));
        let t = run_traced(sc, fresh(sc), &rec, i as u32);
        let after = run_plain(sc, fresh(sc));
        plain_s += 0.5 * (before.wall_s + after.wall_s);
        traced_s += t.wall_s;
        let digest = traced.add(&t);
        references_agree &= before.digest() == digest && after.digest() == digest;
    }
    let rec = Rc::try_unwrap(rec)
        .unwrap_or_else(|_| panic!("the decorators are dropped with their replay"))
        .into_inner();

    // Self time per layer. Callback spans have no children, so the run
    // spans' self time is what no span explains.
    let own = self_times_ns(&rec.spans);
    let layer_s = |kind: SpanKind| {
        rec.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, &ns)| ns)
            .sum::<u64>() as f64
            / 1e9
    };
    let unattributed_s = layer_s(SpanKind::Run);
    let admit_us = rec.durations_us(SpanKind::Admit);
    let round_us = rec.durations_us(SpanKind::Round);
    let tick_us = rec.durations_us(SpanKind::Tick);

    let probes = probes::run(&scenarios[0], &rec.sources, rec.peak_pending);

    let mut checks = traced.checks(a, &scenarios[0]);
    checks.push(Check {
        name: "traced_digest_equals_untraced",
        ok: references_agree,
        detail: format!(
            "{} traces, each against a replay before and after",
            scenarios.len()
        ),
    });
    checks.push(Check {
        name: "unattributed_frac_within_limit",
        // On the quick fabrics a step is a fraction of a microsecond and
        // the clock reads themselves dominate: the share means nothing.
        ok: a.quick || unattributed_s / traced_s <= MAX_UNATTRIBUTED_FRAC,
        detail: format!(
            "{unattributed_s} s of {traced_s} s, limit {MAX_UNATTRIBUTED_FRAC}{}",
            if a.quick {
                " (not applied to --quick)"
            } else {
                ""
            }
        ),
    });

    let values = [
        ("control.prime_s", layer_s(SpanKind::Prime)),
        ("control.admit_s", layer_s(SpanKind::Admit)),
        ("control.admit_n", admit_us.len() as f64),
        ("control.admit_us_p50", percentile(&admit_us, 0.5)),
        ("control.admit_us_p99", percentile(&admit_us, 0.99)),
        ("control.open_s", layer_s(SpanKind::Open)),
        ("control.round_s", layer_s(SpanKind::Round)),
        ("control.round_n", round_us.len() as f64),
        ("control.round_us_p50", percentile(&round_us, 0.5)),
        ("control.round_us_p99", percentile(&round_us, 0.99)),
        ("control.complete_s", layer_s(SpanKind::Complete)),
        ("kernel.traced_wall_s", traced_s),
        ("kernel.unattributed_s", unattributed_s),
        ("kernel.unattributed_frac", unattributed_s / traced_s),
        ("kernel.trace_overhead_frac", (traced_s - plain_s) / plain_s),
        ("kernel.steps", rec.steps as f64),
        ("transport.tick_s", layer_s(SpanKind::Tick)),
        ("transport.tick_n", tick_us.len() as f64),
        ("transport.tick_us_p50", percentile(&tick_us, 0.5)),
        ("transport.tick_us_p99", percentile(&tick_us, 0.99)),
        ("transport.peak_active", rec.peak_active as f64),
        (
            "transport.completed_frac",
            traced.completed as f64 / traced.requested as f64,
        ),
        ("metrics.account_s", layer_s(SpanKind::Account)),
        ("simnet.route_first_us", probes.route_first_us),
        ("simnet.route_warm_us", probes.route_warm_us),
        ("simnet.distinct_sources", rec.sources.len() as f64),
        ("simnet.interned_paths", rec.pairs.len() as f64),
        ("simnet.sched_ns_per_event", probes.sched_ns_per_event),
        ("core.control_round_us", probes.control_round_us),
        ("core.index_refresh_us", probes.index_refresh_us),
        ("core.index_write_us", probes.index_write_us),
        ("core.index_read_us", probes.index_read_us),
        ("workloads.generate_s", generate_s),
        ("simnet.build_s", build_s),
        ("core.tree_build_s", tree_s),
        ("sim.requested", traced.requested as f64),
        ("sim.completed", traced.completed as f64),
        ("sim.rounds", traced.rounds as f64),
        ("sim.sla_violations", traced.sla_violations as f64),
        ("sim.changed_dirs", traced.changed_dirs as f64),
        ("alloc.count", alloc::total_count() as f64),
        ("alloc.bytes", alloc::total_bytes() as f64),
        ("alloc.admit_count", alloc::count(Stage::Admit) as f64),
        ("alloc.round_count", alloc::count(Stage::Round) as f64),
        ("alloc.tick_count", rec.tick_allocs as f64),
    ];
    let report = Report {
        args: a.clone(),
        host,
        digest: traced.digest(),
        attempted: traced.requested,
        failed: traced.requested - traced.completed,
        metrics: metrics_from(PER_LAYER, &values),
        checks,
        samples: vec![
            ("replays", scenarios.len() as u64),
            ("spans", rec.spans.len() as u64),
        ],
    };

    std::fs::create_dir_all(&a.out_dir)?;
    let path = a.out_dir.join(format!("trace-{}.jsonl", a.workload.name()));
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&report.header_line(), &mut out)?;
    Ok(report)
}

fn json_str(s: &str) -> Value {
    Value::Str(s.into())
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn identity(&self) -> Vec<(String, Value)> {
        vec![
            ("schema".into(), json_str("scda-replay-bench-v1")),
            ("workload".into(), json_str(self.args.workload.name())),
            ("seed".into(), Value::U64(self.args.seed)),
            ("trace".into(), Value::U64(u64::from(self.args.trace))),
            ("quick".into(), Value::Bool(self.args.quick)),
            ("seconds".into(), Value::F64(self.args.seconds)),
            ("host".into(), self.host.clone()),
        ]
    }

    /// First line of the span file: which run the spans belong to.
    fn header_line(&self) -> String {
        serde_json::to_string(&Value::Object(self.identity())).expect("a Value always renders")
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::F64(m.value)),
                            ("unit".into(), json_str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The run's full record, one JSON line: what `compare` reads.
    pub fn record_line(&self) -> String {
        let mut fields = self.identity();
        fields.extend([
            ("sim_digest".into(), json_str(&self.digest.hex())),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            (
                "checks".into(),
                Value::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::Object(vec![
                                ("name".into(), json_str(c.name)),
                                ("ok".into(), Value::Bool(c.ok)),
                                ("detail".into(), json_str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "samples".into(),
                Value::Object(
                    self.samples
                        .iter()
                        .map(|&(k, n)| (k.to_string(), Value::U64(n)))
                        .collect(),
                ),
            ),
            ("metrics".into(), self.metrics_value()),
        ]);
        serde_json::to_string(&Value::Object(fields)).expect("a Value always renders")
    }

    /// The last line of standard output: exactly the four keys the
    /// benchmark contract names.
    pub fn result_line(&self) -> String {
        serde_json::to_string(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), self.metrics_value()),
        ]))
        .expect("a Value always renders")
    }

    /// Where the record goes.
    pub fn record_path(&self) -> PathBuf {
        self.args.out_dir.join(format!(
            "{}-trace{}.json",
            self.args.workload.name(),
            u8::from(self.args.trace)
        ))
    }

    /// Every metric by name with its unit, host and simulated time
    /// labelled, then the checks.
    pub fn human(&self) -> String {
        use std::fmt::Write;
        let a = &self.args;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# scda-replay-bench {} seed={} trace={} quick={} seconds={}",
            a.workload.name(),
            a.seed,
            u8::from(a.trace),
            a.quick,
            a.seconds
        );
        let _ = writeln!(
            s,
            "host {}",
            serde_json::to_string(&self.host).expect("a Value always renders")
        );
        let _ = writeln!(s, "sim_digest {}", self.digest.hex());
        let _ = writeln!(s, "attempted {} failed {}", self.attempted, self.failed);
        for (k, n) in &self.samples {
            let _ = writeln!(s, "samples {k} {n}");
        }
        for m in &self.metrics {
            let clock = match (m.name, m.unit) {
                (_, "count" | "B") => "exact count",
                (name, _) if name.starts_with("sim_") => "simulated time",
                ("completed_frac" | "transport.completed_frac", _) => "simulated outcome",
                (_, "MiB") => "host memory",
                _ => "host time",
            };
            let _ = writeln!(
                s,
                "metric {:<28} {:>16.6} {:<8} [{clock}]",
                m.name, m.value, m.unit
            );
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(s, "check {} {verdict} {}", c.name, c.detail);
        }
        s
    }
}
