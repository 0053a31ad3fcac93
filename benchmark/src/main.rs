//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! paella-benchmark [--seed N] [--seconds S]                  every workload, untraced
//! paella-benchmark --traced                                  ... and the per-layer set
//! paella-benchmark --selfcheck                               untraced set twice, compared
//! paella-benchmark --workload W --trace 0|1 [--seed N] [--seconds S]   one workload, in process
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own,
//! one after the other, so `VmHWM` is per workload and nothing shares a heap.
//! The simulator is single-threaded and so is the load generator.

mod drive;
mod host;
mod layers;
mod measure;
mod reduce;
mod report;
mod spans;
mod timed_sched;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use measure::{measure, Measured};
use report::{json_line, print_lines, Values, END_TO_END};
use workloads::Workload;

/// Default seed; claims are re-checked on the hold-out seed 101.
const DEFAULT_SEED: u64 = 23;
/// Default measuring time per workload, the `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    selfcheck: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("paella-benchmark: {problem}");
    eprintln!(
        "usage: paella-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
         [--traced] [--selfcheck]"
    );
    eprintln!("workloads: {}", Workload::ALL.map(Workload::name).join(" "));
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn end_to_end(m: &Measured) -> Values {
    vec![
        ("setup_s", m.setup_s()),
        ("host_us_per_request", m.host_us_per_request()),
        ("host_ns_per_kernel", m.host_ns_per_kernel()),
        ("host_peak_rss_mb", m.peak_rss_bytes as f64 / 1e6),
        ("sim_jct_p50_us", m.sim.jct_p50_us),
        ("sim_jct_p99_us", m.sim.jct_tail.1),
        ("sim_throughput_rps", m.sim.throughput_rps),
        ("sim_goodput_rps", m.sim.goodput_rps),
        ("sim_served_share", m.sim.served_share),
    ]
}

/// One workload, in this process. Prints the metric lines, then the result
/// line the driver reads.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let name = w.name();
    let (values, violations, attempted, failed) = if args.trace {
        let out_dir = if std::path::Path::new("benchmark").is_dir() {
            "benchmark/out"
        } else {
            "out"
        };
        let (values, violations, attempted) =
            traced::trace(w, args.seed, std::path::Path::new(out_dir));
        println!(
            "# {name} seed {}: traced set; spans in {out_dir}/trace-{name}.json",
            args.seed
        );
        (values, violations, attempted.max(1), 0)
    } else {
        let m = measure(w, args.seed, args.seconds);
        let (min, q1, med, q3) = m.rep_quartiles_us_per_request();
        println!(
            "# {name} seed {}: {} reps x {} requests ({} measured after warm-up), {} {} per rep",
            args.seed,
            m.reps.len(),
            m.sim.submitted,
            m.sim.measured,
            m.sim.work_units,
            if w == Workload::LlmChat {
                "tokens"
            } else {
                "kernels"
            },
        );
        println!(
            "# {name} open loop in virtual time, JCT from the scheduled submitted_at: generator lateness 0"
        );
        println!(
            "# {name} host us/request over whole reps: min {min:.3} q1 {q1:.3} median {med:.3} q3 {q3:.3}; \
             reported: fastest repetition of each of {} trace slices; on-CPU share {:.3}",
            drive::SEGMENTS,
            m.oncpu_share()
        );
        println!(
            "# {name} sim_jct_p99_us is p{} ({} samples, {} beyond it); digest {:016x}",
            m.sim.jct_tail.0 as f64 / 10.0,
            m.sim.measured,
            m.sim.measured - (m.sim.measured * m.sim.jct_tail.0 as usize).div_ceil(1000),
            m.sim.digest
        );
        let attempted = (m.sim.submitted * m.reps.len()) as u64;
        let failed = m.unaccounted as u64;
        (end_to_end(&m), m.violations, attempted, failed)
    };
    for v in &violations {
        println!("# {name} CHECK FAILED: {v}");
    }
    let nonzero = args.trace || values.iter().all(|&(_, v)| v > 0.0);
    if !nonzero {
        println!("# {name} CHECK FAILED: an end-to-end metric is zero");
    }
    let correct = violations.is_empty() && nonzero;
    print_lines(name, &values);
    println!("{}", json_line(correct, attempted, failed, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(workload, metric) -> value` as printed by a child.
type Table = Vec<(String, String, f64)>;

/// Runs one workload in a child process, echoes what it printed (minus the
/// driver's JSON line) and returns its metric lines and whether it passed.
fn run_child(w: Workload, args: &Args, trace: bool) -> std::io::Result<(Table, bool)> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut table = Table::new();
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ([workload, metric, value, _unit], false) = (f.as_slice(), line.starts_with('#')) {
            if let Ok(value) = value.parse() {
                table.push((workload.to_string(), metric.to_string(), value));
            }
        }
    }
    Ok((table, out.status.success()))
}

fn run_set(args: &Args, trace: bool) -> std::io::Result<(Table, bool)> {
    let mut table = Table::new();
    let mut ok = true;
    for w in Workload::ALL {
        let (rows, passed) = run_child(w, args, trace)?;
        if !passed {
            println!("# {} FAILED", w.name());
        }
        ok &= passed;
        table.extend(rows);
    }
    Ok((table, ok))
}

/// Runs the untraced set twice in fresh processes and compares: simulated
/// results must be identical, host metrics within their bound.
fn selfcheck(args: &Args) -> std::io::Result<bool> {
    let (a, ok_a) = run_set(args, false)?;
    let (b, ok_b) = run_set(args, false)?;
    let mut ok = ok_a && ok_b && a.len() == b.len();
    println!("# selfcheck: workload metric first second gap bound verdict");
    for ((w, metric, x), (_, _, y)) in a.iter().zip(&b) {
        let bound = END_TO_END
            .iter()
            .find(|m| m.0 == metric)
            .map_or(0.0, |m| m.3);
        let gap = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
        // A seeded deterministic simulator repeats itself exactly.
        let allowed = if metric.starts_with("sim_") {
            0.0
        } else {
            bound
        };
        let verdict = if gap <= allowed { "ok" } else { "FAIL" };
        ok &= gap <= allowed;
        println!("selfcheck {w} {metric} {x} {y} {gap:.4} {allowed} {verdict}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if let Some(w) = args.workload {
        return run_one(w, &args);
    }
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else {
        run_set(&args, false).and_then(|(_, ok)| {
            if args.traced {
                run_set(&args, true).map(|(_, traced_ok)| ok && traced_ok)
            } else {
                Ok(ok)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("# FAILED: see the lines marked FAILED above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("paella-benchmark: cannot run a workload in a child process: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "cluster4",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::Cluster4));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let d = args(&[]).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (23, DEFAULT_SECONDS, false));
        assert!(d.workload.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
