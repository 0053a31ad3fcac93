//! The sweep harness's determinism contract, enforced at the binary level:
//! every figure binary's stdout must be **byte-identical at every thread
//! count**. Each test runs one binary with `PAELLA_BENCH_THREADS` ∈
//! {1, 2, 8} at reduced scale and compares the raw stdout bytes.
//!
//! Thread count 1 takes the serial short-circuit inside `SweepExecutor`
//! (the pre-harness reference path), so these tests also pin the parallel
//! grids against the original serial loops.
//!
//! The binaries whose grid does not depend on `PAELLA_BENCH_SCALE` also pin
//! a golden digest of that serial stdout: "the figures are byte-identical"
//! is a constant a refactor must leave alone, not a manual `cmp` against a
//! build of the parent. A change that means to move a figure re-records its
//! digest and says so.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with the given worker count and returns its raw stdout.
fn stdout_at(bin: &str, args: &[&str], threads: usize) -> Vec<u8> {
    stdout_in(Path::new("."), bin, args, threads)
}

/// [`stdout_at`], with `dir` as the binary's working directory.
fn stdout_in(dir: &Path, bin: &str, args: &[&str], threads: usize) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
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

/// FNV-1a over `bytes`.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts stdout is byte-identical across thread counts 1, 2, and 8, and
/// that its FNV-1a digest is `golden` when one is given.
fn assert_deterministic(bin: &str, args: &[&str], golden: Option<u64>) {
    let serial = stdout_at(bin, args, 1);
    assert!(!serial.is_empty(), "{bin} produced no output");
    if let Some(want) = golden {
        let got = digest(&serial);
        assert_eq!(
            got,
            want,
            "{bin}: stdout moved (digest {got:#018x}):\n{}",
            String::from_utf8_lossy(&serial)
        );
    }
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
    assert_deterministic(env!("CARGO_BIN_EXE_fig02"), &[], None);
}

#[test]
fn fig13_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig13"), &[], None);
}

#[test]
fn fig14_stdout_is_thread_count_invariant() {
    assert_deterministic(env!("CARGO_BIN_EXE_fig14"), &[], None);
}

#[test]
fn fig_cluster_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig_cluster"),
        &["--smoke"],
        Some(0xd81f_4e2c_7f24_e37e),
    );
}

#[test]
fn fig_llm_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig_llm"),
        &["--smoke"],
        Some(0x3823_b52b_b339_a3fc),
    );
}

#[test]
fn fig_faults_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig_faults"),
        &["--smoke"],
        Some(0x9a6f_72d0_0218_9239),
    );
}

#[test]
fn fig_latency_blame_smoke_stdout_is_thread_count_invariant() {
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig_latency_blame"),
        &["--smoke"],
        Some(0x1689_8f9f_3e16_11aa),
    );
}

#[test]
fn flight_dump_stdout_is_thread_count_invariant() {
    // The dump contents themselves (not just the summary line) must be
    // byte-identical: the flight ring is populated on virtual time only.
    assert_deterministic(
        env!("CARGO_BIN_EXE_flight_dump"),
        &[],
        Some(0xd836_be86_9848_dabf),
    );
}

#[test]
fn fig01_stdout_is_thread_count_invariant() {
    // The timeline is drawn from the tracer's SM spans, so this digest also
    // pins the device-side trace of the two Fig. 1 schedules.
    assert_deterministic(
        env!("CARGO_BIN_EXE_fig01"),
        &[],
        Some(0x605e_960c_56a0_6002),
    );
}

#[test]
fn trace_dump_stdout_and_export_are_pinned() {
    // The text summary (per-kind counts of the word-level log, per-SM busy
    // time, the metrics) and the Chrome-trace file, which the binary writes
    // under its working directory: the whole exporter surface, byte for byte.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_dump");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for threads in [1usize, 8] {
        let stdout = stdout_in(&dir, env!("CARGO_BIN_EXE_trace_dump"), &[], threads);
        let json = std::fs::read(dir.join("results/trace_dump.json")).expect("trace file");
        assert_eq!(
            (digest(&stdout), digest(&json)),
            (0x8117_b3d9_6d87_004f, 0xa2ed_3b8a_301e_7602),
            "trace_dump moved at {threads} thread(s): (stdout, results/trace_dump.json)\n{}",
            String::from_utf8_lossy(&stdout)
        );
    }
}
