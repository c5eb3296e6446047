//! scda-replay-bench: `SimKernel` replay workloads measured end to end
//! and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! scda-replay-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! scda-replay-bench compare A.json B.json [--spec BENCHMARK.json]
//! scda-replay-bench selfcheck [--seed N] [--seconds S] [--quick] [--out DIR] [--spec BENCHMARK.json]
//! ```

mod alloc;
mod compare;
mod host;
mod probes;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use compare::Spec;
use run::Args;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: scda-replay-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
       scda-replay-bench compare A.json B.json [--spec BENCHMARK.json]
       scda-replay-bench selfcheck [--seed N] [--seconds S] [--quick] [--out DIR] [--spec BENCHMARK.json]
workloads: video_full dc_write_full hyper_read_churn busy_full";

/// Exit code when the program could not do what the command line asks
/// (1 is a benchmark that ran and failed a check or a bound).
const BAD_USAGE: u8 = 2;

/// The flags of every subcommand, checked as they are read.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
    spec: PathBuf,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--spec" => cli.spec = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => cli.positional.push(word.to_string()),
        }
    }
    Ok(cli)
}

fn bench(cli: &Cli) -> Result<ExitCode, String> {
    let workload = cli.workload.ok_or("--workload is required")?;
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let report = if args.trace {
        run::per_layer(&args).map_err(|e| format!("cannot write the span file: {e}"))?
    } else {
        run::end_to_end(&args)
    };
    let path = report.record_path();
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, report.record_line() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{}", report.human());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(cli: &Cli) -> Result<ExitCode, String> {
    let [_, a, b] = cli.positional.as_slice() else {
        return Err("compare takes two record files".into());
    };
    let spec = Spec::load(&cli.spec)?;
    let out = compare::compare(
        &spec,
        &compare::load_records(Path::new(a))?,
        &compare::load_records(Path::new(b))?,
    );
    print!("{}", out.text);
    // A digest change is flagged, not failed: a change to the modelled
    // design moves simulated statistics on purpose.
    Ok(if out.regressed == 0 && out.incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn selfcheck(cli: &Cli) -> Result<ExitCode, String> {
    let spec = Spec::load(&cli.spec)?;
    let out = compare::selfcheck(&spec, cli.seed, cli.seconds, cli.quick, &cli.out_dir)?;
    print!("{}", out.text);
    // Two sets of one build must agree on everything.
    let agree = out.regressed + out.digest_changes + out.exact_changes + out.incorrect == 0;
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(BAD_USAGE);
        }
    };
    let outcome = match cli.positional.first().map(String::as_str) {
        None => bench(&cli),
        Some("compare") => compare_sets(&cli),
        Some("selfcheck") if cli.positional.len() == 1 => selfcheck(&cli),
        Some(other) => Err(format!("unexpected argument {other}\n{USAGE}")),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(BAD_USAGE)
    })
}
