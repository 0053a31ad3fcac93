//! The sweep harness's determinism contract, enforced at the binary level:
//! every figure binary's stdout must be **byte-identical at every thread
//! count**. Each test runs one binary with `PAELLA_BENCH_THREADS` ∈
//! {1, 2, 8} at reduced scale and compares the raw stdout bytes.
//!
//! Thread count 1 takes the serial short-circuit inside `SweepExecutor`
//! (the pre-harness reference path), so these tests also pin the parallel
//! grids against the original serial loops.

use std::process::Command;

/// Runs `bin` with the given worker count and returns its raw stdout.
fn stdout_at(bin: &str, args: &[&str], threads: usize) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .env("PAELLA_BENCH_THREADS", threads.to_string())
        // Shrink request counts so debug-build test runs stay quick; the
        // floor in `paella_bench::scaled` keeps grids non-trivial.
        .env("PAELLA_BENCH_SCALE", "0.05")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} (threads={threads}) exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Asserts stdout is byte-identical across thread counts 1, 2, and 8.
fn assert_deterministic(bin: &str, args: &[&str]) {
    let serial = stdout_at(bin, args, 1);
    assert!(!serial.is_empty(), "{bin} produced no output");
    for threads in [2usize, 8] {
        let parallel = stdout_at(bin, args, threads);
        assert_eq!(
            serial,
            parallel,
            "{bin}: stdout differs between 1 and {threads} threads\n\
             --- serial ---\n{}\n--- {threads} threads ---\n{}",
            String::from_utf8_lossy(&serial),
            String::from_utf8_lossy(&parallel)
        );
    }
}

#[test]
fn fig02_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig02"), &[]);
}

#[test]
fn fig13_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig13"), &[]);
}

#[test]
fn fig14_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig14"), &[]);
}

#[test]
fn fig_cluster_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig_cluster"), &["--smoke"]);
}

#[test]
fn fig_llm_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig_llm"), &["--smoke"]);
}

#[test]
fn fig_faults_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig_faults"), &["--smoke"]);
}

#[test]
fn fig_latency_blame_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig_latency_blame"), &["--smoke"]);
}

#[test]
fn flight_dump_stdout_is_thread_count_invariant() {
    // The dump contents themselves (not just the summary line) must be
    // byte-identical: the flight ring is populated on virtual time only.
    assert_deterministic(env!("CARGO_BIN_EXE_flight_dump"), &[]);
}
