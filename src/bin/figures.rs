//! Regenerate the paper's evaluation figures from the command line.
//!
//! ```text
//! figures [--fig N]... [--all] [--scale quick|paper] [--seed S] [--out DIR]
//!         [--trace PATH] [--profile] [--audit PATH] [--metrics-out PATH]
//! ```
//!
//! Prints each figure as a text table (x, RandTCP, SCDA) plus the headline
//! SCDA-vs-RandTCP comparison, and — with `--out` — writes per-figure JSON
//! for archiving. `--trace PATH` records every SCDA run's control-round,
//! flow-lifecycle, server-selection and SLA-violation events to a JSONL
//! file; `--profile` prints the per-phase wall-clock table and the merged
//! metrics registry after the runs; `--audit PATH` writes the SLA audit
//! log (flow spans, attributed violations, time-to-mitigation episodes)
//! as JSONL and prints its summary table; `--metrics-out PATH` dumps the
//! final merged metrics registry as JSON.

use std::collections::BTreeMap;

use scda_audit::Audit;
use scda_experiments::{aggregate, build_figure, run_seeds, Group, Scale, ScdaOptions};
use scda_obs::Obs;

fn usage() -> ! {
    eprintln!(
        "usage: figures [--fig N]... [--all] [--scale quick|paper|full|full100] [--seed S] [--seeds N] [--out DIR] [--trace PATH] [--profile] [--audit PATH] [--metrics-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut figs: Vec<u32> = Vec::new();
    let mut scale = Scale::Quick;
    let mut seed = 1u64;
    let mut n_seeds = 1usize;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut profile = false;
    let mut audit_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                figs.push(n);
            }
            "--all" => figs.extend(7..=18),
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    Some("full") => Scale::Full,
                    Some("full100") => Scale::FullLarge,
                    _ => usage(),
                };
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seeds" => {
                i += 1;
                n_seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--profile" => profile = true,
            "--audit" => {
                i += 1;
                audit_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if figs.is_empty() {
        figs.extend(7..=18);
    }
    figs.sort_unstable();
    figs.dedup();

    // Group figures so each simulation pair runs once.
    let mut by_group: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &f in &figs {
        let g = Group::for_figure(f).unwrap_or_else(|| {
            eprintln!("figure {f} is not in the paper (valid: 7-18)");
            std::process::exit(2);
        });
        by_group.entry(g.figures()[0]).or_default().push(f);
    }

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create output dir");
    }

    // One handle across every group: the trace ring is bounded, and the
    // metrics registry merges the runs.
    let obs = if trace.is_some() || profile || metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    // One audit handle likewise: spans and episodes merge across groups.
    let audit = if audit_path.is_some() {
        Audit::enabled()
    } else {
        Audit::disabled()
    };
    let run_opts = ScdaOptions {
        obs: obs.clone(),
        audit: audit.clone(),
        snapshot_every: trace.as_ref().map(|_| 5),
        ..Default::default()
    };
    if let Some(path) = &trace {
        // Fail before the runs, not after: the trace is written at exit.
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("error: cannot write trace file {path}: {e}");
            std::process::exit(2);
        }
        // The snapshot series is appended per group; start clean.
        let _ = std::fs::remove_file(format!("{path}.snapshots.jsonl"));
    }
    for (flag, path) in [("audit", &audit_path), ("metrics", &metrics_out)] {
        if let Some(path) = path {
            // Same discipline as --trace: both files are written at exit.
            if let Err(e) = std::fs::write(path, "") {
                eprintln!("error: cannot write {flag} file {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    for (lead, figures) in by_group {
        let group = Group::for_figure(lead).expect("lead figure is valid");
        if n_seeds > 1 {
            // Multi-seed confidence pass (one thread per core) before the
            // figure-producing run at the base seed.
            let seeds: Vec<u64> = (0..n_seeds as u64).map(|k| seed + k).collect();
            let agg = aggregate(&run_seeds(group, scale, &seeds));
            eprintln!(
                "# {group:?} over {} seeds: FCT reduction {:.1}% ± {:.1}%, throughput gain {:+.1}% ± {:.1}%",
                agg.n,
                100.0 * agg.mean_fct_reduction,
                100.0 * agg.std_fct_reduction,
                100.0 * agg.mean_throughput_gain,
                100.0 * agg.std_throughput_gain,
            );
        }
        eprintln!(
            "# running group {group:?} ({} figures) at {scale:?} scale...",
            figures.len()
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "progress line on stderr; the elapsed time is printed, never fed to the run"
        )]
        let t0 = std::time::Instant::now();
        let pair = group.run_with(scale, seed, &run_opts);
        eprintln!(
            "#   done in {:.1}s — SCDA {}/{} completed ({} SLA violations), RandTCP {}/{}",
            t0.elapsed().as_secs_f64(),
            pair.scda.completed,
            pair.scda.requested,
            pair.scda.sla_violations,
            pair.randtcp.completed,
            pair.randtcp.requested,
        );
        for f in figures {
            let report = build_figure(f, &pair);
            println!("{}", report.to_table());
            match f {
                7 | 10 | 17 => {
                    if let Some(g) = report.mean_gain() {
                        println!(
                            "# SCDA mean throughput gain over RandTCP: {:+.1}%\n",
                            100.0 * g
                        );
                    }
                }
                8 | 11 | 14 | 16 | 18 => {
                    // CDFs summarize by the median-FCT shift, not by the
                    // (meaningless) mean of CDF values.
                    if let (Some(sm), Some(rm)) =
                        (pair.scda.fct.quantile(0.5), pair.randtcp.fct.quantile(0.5))
                    {
                        println!(
                            "# SCDA median FCT {sm:.3}s vs RandTCP {rm:.3}s ({:.1}% lower)\n",
                            100.0 * (1.0 - sm / rm)
                        );
                    }
                }
                _ => {
                    if let Some(r) = report.mean_reduction() {
                        println!("# SCDA mean AFCT reduction vs RandTCP: {:.1}%\n", 100.0 * r);
                    }
                }
            }
            if let Some(dir) = &out {
                let path = format!("{dir}/fig{f:02}.json");
                std::fs::write(&path, report.to_json()).expect("write figure JSON");
                eprintln!("#   wrote {path}");
            }
        }
        if let (Some(path), Some(stream)) = (&trace, &pair.scda.snapshots) {
            let snap_path = format!("{path}.snapshots.jsonl");
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&snap_path)
                .expect("open snapshot stream file");
            use std::io::Write as _;
            f.write_all(stream.to_jsonl().as_bytes())
                .expect("write snapshot stream");
            eprintln!(
                "#   appended {} tree snapshots (every 5 rounds) to {snap_path}",
                stream.snapshots().len()
            );
        }
    }

    if let Some(path) = &trace {
        obs.write_trace_jsonl(std::path::Path::new(path))
            .expect("write trace JSONL");
        let (events, dropped) = obs
            .with_core(|c| (c.tracer.len(), c.tracer.dropped()))
            .expect("tracing handle is enabled");
        eprintln!("# wrote {events} trace events to {path} ({dropped} dropped by the ring)");
    }
    if profile {
        if let Some(report) = obs.profile_report() {
            println!("== per-phase wall-clock profile ==");
            println!("{}", report.to_table());
        }
        if let Some(reg) = obs.metrics_snapshot() {
            println!("== metrics registry (merged across runs) ==");
            println!("{}", reg.to_table());
        }
    }
    if let Some(path) = &audit_path {
        audit
            .write_jsonl(std::path::Path::new(path))
            .expect("write audit JSONL");
        if let Some(report) = audit.report() {
            println!("== SLA audit report (merged across runs) ==");
            println!("{}", report.to_table());
        }
        eprintln!("# wrote SLA audit log to {path}");
    }
    if let Some(path) = &metrics_out {
        let reg = obs.metrics_snapshot().expect("metrics handle is enabled");
        std::fs::write(path, reg.to_json()).expect("write metrics JSON");
        eprintln!("# wrote metrics registry to {path}");
    }
}
