//! The `paella-check` CI gate.
//!
//! ```text
//! paella-check [all|analyze|selftest|model|mutate] [--root <workspace-root>]
//! ```
//!
//! * `analyze`  — run the source rules (R1–R9) over `crates/*/src`.
//! * `selftest` — graft every analyzer mutant into the real sources and
//!   require its rule to fire (the analyzer's own mutation test).
//! * `model`    — exhaustively model-check the clean channel models.
//! * `mutate`   — run the seeded-mutant corpus; every mutant must be caught.
//! * `all`      — all of the above (the default).
//!
//! Exits 0 only if every selected stage is fully green.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paella_check::analysis::{self, selftest};
use paella_check::{clean_models, mutants};

fn usage() -> ! {
    eprintln!("usage: paella-check [all|analyze|selftest|model|mutate] [--root <workspace-root>]");
    std::process::exit(2);
}

/// Finds the workspace root: `--root` if given, else the nearest ancestor of
/// the current directory whose `Cargo.toml` declares `[workspace]`.
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(r) = explicit {
        return r;
    }
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            eprintln!("error: no workspace root found above the current directory");
            std::process::exit(2);
        }
    }
}

fn run_analyze(root: &Path) -> bool {
    println!("== analyze: source rules R1–R9 over crates/*/src ==");
    match analysis::analyze(root) {
        Ok(a) => {
            println!("{a}");
            a.ok()
        }
        Err(e) => {
            eprintln!("analyze walk failed: {e}");
            false
        }
    }
}

fn run_selftest(root: &Path) -> bool {
    println!("== analyzer self-test: grafted mutants must be caught ==");
    let outcomes = match selftest::run(root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("selftest walk failed: {e}");
            return false;
        }
    };
    let mut ok = true;
    for o in &outcomes {
        match &o.failure {
            None => println!("  caught   {}", o.id),
            Some(why) => {
                ok = false;
                println!("  ESCAPED  {} — {why}", o.id);
            }
        }
    }
    println!(
        "selftest: {}/{} mutants caught",
        outcomes.iter().filter(|o| o.failure.is_none()).count(),
        outcomes.len()
    );
    ok
}

fn run_models() -> bool {
    println!("== model check: clean channel models ==");
    let mut ok = true;
    for m in clean_models() {
        let report = (m.run)();
        let status = if report.passed() {
            "ok"
        } else if let Some(f) = &report.failure {
            ok = false;
            println!("  FAIL {}: {}", m.name, f.message);
            for step in &f.trace {
                println!("       | {step}");
            }
            continue;
        } else {
            ok = false;
            "NOT EXHAUSTED (raise max_executions)"
        };
        println!(
            "  {:<28} {:>9} executions  {}",
            m.name, report.executions, status
        );
    }
    ok
}

fn run_mutants() -> bool {
    println!("== mutation self-test: every seeded bug must be caught ==");
    let mut ok = true;
    for m in mutants() {
        let report = (m.run)();
        match &report.failure {
            Some(f) => {
                let first = f.message.lines().next().unwrap_or("");
                println!(
                    "  caught   {:<26} [{}] after {} executions: {first}",
                    m.id, m.class, report.executions
                );
            }
            None => {
                ok = false;
                println!(
                    "  SURVIVED {:<26} [{}] — checker blind spot: {}",
                    m.id, m.class, m.description
                );
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut cmd = String::from("all");
    let mut root = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "all" | "analyze" | "selftest" | "model" | "mutate" => cmd = a,
            "--root" => root = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let root = workspace_root(root);

    let mut ok = true;
    if cmd == "all" || cmd == "analyze" {
        ok &= run_analyze(&root);
    }
    if cmd == "all" || cmd == "selftest" {
        ok &= run_selftest(&root);
    }
    if cmd == "all" || cmd == "model" {
        ok &= run_models();
    }
    if cmd == "all" || cmd == "mutate" {
        ok &= run_mutants();
    }
    if ok {
        println!("paella-check: all green");
        ExitCode::SUCCESS
    } else {
        println!("paella-check: FAILED");
        ExitCode::FAILURE
    }
}
