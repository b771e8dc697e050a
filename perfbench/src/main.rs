//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it, prefixed `#`,
//! state the tail percentile, the pass digest and any failure.

use scc_perfbench::bench::{end_to_end, per_layer, setup, Config, Report};
use scc_perfbench::host::Pinning;
use scc_perfbench::workload::Workload;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Internal flag: set up, print `ready <seconds>`, exit. Used for
/// `setup_s`.
const SETUP_PROBE_FLAG: &str = "--setup-probe";

const USAGE: &str = "usage: perfbench --workload <bulk_bcast|small_bcast|audited_soak> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    cfg: Config,
    trace: bool,
    setup_probe: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == SETUP_PROBE_FLAG {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("expected whole seconds"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        cfg: Config { workload, seed: seed.unwrap_or(1), seconds: seconds.unwrap_or(10.0) },
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// One `setup_s` sample: a fresh process of this program times itself
/// from entering `main` to its set-up being done (pool spawned, inputs
/// generated, warm-up scenario run and checked). Timing inside the
/// child keeps the jitter of `fork`, `exec` and the pipe out.
fn setup_probe(exe: &Path, cfg: &Config) -> Result<f64, String> {
    let mut child = Command::new(exe)
        .args(["--workload", cfg.workload.name(), "--seed", &cfg.seed.to_string()])
        .arg(SETUP_PROBE_FLAG)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a set-up probe: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out).read_line(&mut line),
        None => Ok(0),
    };
    let status = child.wait().map_err(|e| format!("waiting for a set-up probe: {e}"))?;
    let elapsed = line.trim().strip_prefix("ready ").and_then(|s| s.parse::<f64>().ok());
    match elapsed {
        Some(s) if read.is_ok() && status.success() => Ok(s),
        _ => Err(format!("set-up probe failed ({status}): {line:?}")),
    }
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.verdict.failed == 0 && report.verdict.attempted > 0,
        report.verdict.attempted,
        report.verdict.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Set-up probes inherit the pinning from their parent.
    if args.setup_probe {
        let (_, v) = setup(&args.cfg);
        let elapsed = entered.elapsed().as_secs_f64();
        if v.failed > 0 {
            eprintln!("perfbench: warm-up failed: {:?}", v.reasons);
            return ExitCode::FAILURE;
        }
        println!("ready {elapsed}");
        return ExitCode::SUCCESS;
    }
    let pinning = Pinning::pin_process();
    let report = if args.trace {
        per_layer(&args.cfg, pinning.as_ref())
    } else {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("perfbench: locating this program: {e}");
                return ExitCode::FAILURE;
            }
        };
        match end_to_end(&args.cfg, &mut || setup_probe(&exe, &args.cfg)) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number: {}", bad.name, bad.value);
        return ExitCode::FAILURE;
    }
    match &pinning {
        Some(p) => println!("# pinned to CPU {} of {} allowed", p.cpu, p.free_cpus()),
        None => println!("# running unpinned: the CPU mask could not be set"),
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for reason in &report.verdict.reasons {
        println!("# FAILED: {reason}");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
