//! `selfsim-perfbench` — the engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-1e5 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload runs in a child process of its own, so `peak_rss_mb` is
//! that workload's `VmHWM` and not the process-lifetime maximum over
//! earlier workloads.  Every metric is printed as `name value unit`; the
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.  Any failed correctness check exits 1.

#![allow(clippy::disallowed_methods)]

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use selfsim_perfbench::spans::SpanLog;
use selfsim_perfbench::{run_workload, Options, Workload};

const USAGE: &str = "\
selfsim-perfbench — end-to-end and per-layer benchmark of the engine

OPTIONS
    --workload W     churn-1e5, ring-1e6, campaign-grid or all (required)
    --seed N         benchmark seed; derives the graph, value, run and
                     campaign seeds (default 1)
    --seconds S      length of the measured phase (default 20)
    --trace 0|1      0: untraced end-to-end metrics; 1: the traced run's
                     per-layer metrics, replay-checked (default 0)
    --spans-dir D    where the traced run writes its spans as JSON lines
                     (default perfbench/out)
    --help           this text
";

struct Args {
    workloads: Vec<Workload>,
    options: Options,
    spans_dir: PathBuf,
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut options = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
    };
    let mut spans_dir = PathBuf::from("perfbench/out");
    let mut child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workloads = Some(if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)
                        .ok_or_else(|| format!("unknown --workload `{name}`"))?]
                });
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(options.seconds.is_finite() && options.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`: expected 0 or 1")),
                };
            }
            "--spans-dir" => spans_dir = PathBuf::from(value("--spans-dir")?),
            "--child" => child = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        options,
        spans_dir,
        child,
    })
}

/// Runs one workload in this process and prints its metrics and result
/// line; the exit code says whether every check passed.
fn run_child(workload: Workload, args: &Args) -> ExitCode {
    let mut log = SpanLog::new();
    let report = run_workload(workload, &args.options, &mut log);
    if args.options.trace {
        let path = args.spans_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            args.options.seed
        ));
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                log.write_jsonl(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => eprintln!(
                "{}: {} spans written to {}",
                workload.name(),
                log.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "{}: cannot write spans to {}: {e}",
                workload.name(),
                path.display()
            ),
        }
    }
    for line in &report.samples {
        eprintln!("{}: {line}", workload.name());
    }
    for failure in &report.failures {
        eprintln!("{}: FAILED: {failure}", workload.name());
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{} failed_frac {:?} ratio ({} of {} attempted)",
        workload.name(),
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    for (name, value, unit) in report.table(args.options.trace) {
        let _ = writeln!(out, "{} {name} {value:?} {unit}", workload.name());
    }
    let _ = writeln!(out, "{}", report.json_line(args.options.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process, relaying its stdout; `false` when
/// the child failed or could not run.
fn spawn_child(workload: Workload, args: &Args) -> bool {
    let o = &args.options;
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg("--child")
            .args(["--workload", workload.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--spans-dir")
            .arg(&args.spans_dir)
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    match output {
        Ok(output) => {
            let _ = std::io::stdout().write_all(&output.stdout);
            output.status.success()
        }
        Err(e) => {
            eprintln!(
                "{}: cannot start the workload process: {e}",
                workload.name()
            );
            false
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match args.workloads.as_slice() {
            [workload] => run_child(*workload, &args),
            _ => {
                eprintln!("error: a workload process runs exactly one workload");
                ExitCode::from(2)
            }
        };
    }
    let mut ok = true;
    for &workload in &args.workloads {
        ok &= spawn_child(workload, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
