//! Graft-mutant self-test for the analyzer: prove every rule has teeth.
//!
//! Each [`GraftMutant`] splices a known-bad pattern into a *real* workspace
//! file (string surgery on an anchor that must exist — a missing anchor is
//! itself a failure, so mutants cannot rot silently) and re-runs the full
//! analysis. The mutant is caught iff its rule fires on the mutated file.
//! This is the PR-2 pattern from the model-checker mutants, applied to the
//! static analyzer: a rule that stops firing on its own seeded bug turns
//! the run red before it can wave a real bug through.

use std::io;
use std::path::Path;

use super::analyze_sources;

/// One seeded source-level bug the analyzer must catch.
pub struct GraftMutant {
    /// Stable identifier, `r6-sched-hashmap-clients` style.
    pub id: &'static str,
    /// Rule expected to fire (`Violation::rule`).
    pub rule: &'static str,
    /// Workspace-relative file the graft lands in.
    pub file: &'static str,
    /// Anchor text that must exist in the file (first occurrence mutated).
    pub find: &'static str,
    /// Replacement text introducing the bug.
    pub replace: &'static str,
    /// What bug class the graft simulates.
    pub description: &'static str,
}

/// The mutant corpus: ≥2 per rule R1 and R3–R11 (R2 is retired). (R5 once had an
/// `r5-unhandled-variant` graft; with no wildcard arm allowed, a variant
/// without an arm is a compile error rather than an analysis finding, so the
/// second R5 mutant is a wildcard in the exporter instead.)
#[must_use]
pub fn graft_mutants() -> Vec<GraftMutant> {
    vec![
        GraftMutant {
            id: "r1-sched-instant",
            rule: "no-wall-clock",
            file: "crates/core/src/sched.rs",
            find: "impl SrptDeficitScheduler {",
            replace: "impl SrptDeficitScheduler {\n    fn wall() -> std::time::Instant { std::time::Instant::now() }\n",
            description: "wall-clock read grafted into the scheduler",
        },
        GraftMutant {
            id: "r1-engine-systemtime",
            rule: "no-wall-clock",
            file: "crates/gpu/src/engine.rs",
            find: "let blocks: u32 = allocs.iter().map(|&(_, g)| g).sum();",
            replace: "let _t = std::time::SystemTime::now();\n        let blocks: u32 = allocs.iter().map(|&(_, g)| g).sum();",
            description: "SystemTime read grafted into the GPU engine",
        },
        GraftMutant {
            id: "r8-spsc-head-load-downgrade",
            rule: "atomic-ordering-audit",
            file: "crates/channels/src/spsc.rs",
            find: "head_load: Ordering::Acquire,",
            replace: "head_load: Ordering::Relaxed,",
            description: "the producer's head load downgraded to Relaxed under its acquire: tag",
        },
        GraftMutant {
            id: "r8-notifq-ordering-downgrade",
            rule: "atomic-ordering-audit",
            file: "crates/channels/src/notifq.rs",
            find: "scan: Ordering::Acquire,",
            replace: "scan: Ordering::Relaxed,",
            description: "the profile's acquire scan downgraded to Relaxed (stale acquire: tag; the claim's relaxed: tag above does not cover it)",
        },
        GraftMutant {
            id: "r3-dispatcher-unwrap",
            rule: "hot-path-unwrap",
            file: "crates/core/src/dispatcher/feedback.rs",
            find: ".expect(\"finishing unknown job\")",
            replace: ".unwrap()",
            description: "bare unwrap grafted onto the job-finish hot path",
        },
        GraftMutant {
            id: "r3-dispatcher-invariant-stripped",
            rule: "hot-path-unwrap",
            file: "crates/core/src/dispatcher/feedback.rs",
            find: "// invariant: the only caller just indexed",
            replace: "// the only caller just indexed",
            description: "expect() whose invariant: justification was deleted",
        },
        GraftMutant {
            id: "r3-stream-pool-invariant-stripped",
            rule: "hot-path-unwrap",
            file: "crates/core/src/dispatcher/streams.rs",
            find: "// invariant: the len() >= want guard above bounds the pops.",
            replace: "// the len() >= want guard above bounds the pops.",
            description: "the stream pool's expect() with its invariant: justification deleted",
        },
        GraftMutant {
            id: "r4-waitlist-sleep",
            rule: "no-thread-sleep",
            file: "crates/core/src/waitlist.rs",
            find: "q.remove(pos);",
            replace: "q.remove(pos);\n        std::thread::sleep(std::time::Duration::from_nanos(1));",
            description: "thread::sleep grafted into library code",
        },
        GraftMutant {
            id: "r4-spsc-sleep",
            rule: "no-thread-sleep",
            file: "crates/channels/src/spsc.rs",
            find: "*cached_head = self.head.0.load_fresh(c, ords.head_load);",
            replace: "*cached_head = self.head.0.load_fresh(c, ords.head_load);\n            std::thread::sleep(std::time::Duration::from_nanos(1));",
            description: "spin-to-sleep grafted into the SPSC producer",
        },
        GraftMutant {
            id: "r5-exporter-wildcard-arm",
            rule: "trace-event-exhaustiveness",
            file: "crates/telemetry/src/export.rs",
            find: "TraceEvent::SmSpanBegin { .. } | TraceEvent::SmSpanEnd { .. } => continue,",
            replace: "_ => continue,",
            description: "wildcard arm grafted into the Chrome exporter's rendering match",
        },
        GraftMutant {
            id: "r5-wildcard-arm",
            rule: "trace-event-exhaustiveness",
            file: "crates/telemetry/src/event.rs",
            find: "$(TraceEvent::$v { .. } => $vl,)*",
            replace: "_ => \"inline\",",
            description: "wildcard arm grafted into the vocabulary table's kind(): swallows future variants",
        },
        GraftMutant {
            id: "r6-sched-hashmap-clients",
            rule: "det-hash-container",
            file: "crates/core/src/sched.rs",
            find: "clients: BTreeMap<ClientId, ClientState>,",
            replace: "clients: HashMap<ClientId, ClientState>,",
            description: "PR-4 bug resurrected: seeded-hash client walk in the fairness argmax",
        },
        GraftMutant {
            id: "r6-router-hashset-seen",
            rule: "det-hash-container",
            file: "crates/cluster/src/router.rs",
            find: "    rng: Xoshiro256pp,\n}",
            replace: "    rng: Xoshiro256pp,\n    seen: std::collections::HashSet<usize>,\n}",
            description: "a lookup-only hash set added to the router: banned by name, not audited per use",
        },
        GraftMutant {
            id: "r6-llm-client-jobs-hashmap",
            rule: "det-hash-container",
            file: "crates/llm/src/engine.rs",
            find: "    client_jobs: BTreeMap<ClientId, u64>,",
            replace: "    client_jobs: std::collections::HashMap<ClientId, u64>,",
            description: "the LLM engine's per-client in-flight table keyed by a per-process seeded hash",
        },
        GraftMutant {
            id: "r7-dispatcher-debit-bypassed",
            rule: "unchecked-counter-sub",
            file: "crates/core/src/dispatcher/feedback.rs",
            find: "self.core.debit(&mut j.outstanding, 1, \"job outstanding\");",
            replace: "j.outstanding -= 1;",
            description: "PR-5 bug class: a bare subtraction in place of the checked debit",
        },
        GraftMutant {
            id: "r7-engine-guard-stripped",
            rule: "unchecked-counter-sub",
            file: "crates/gpu/src/engine.rs",
            find: "k.running >= blocks,",
            replace: "true,",
            description: "running-blocks underflow guard neutered",
        },
        GraftMutant {
            id: "r7-origin-tag-stripped",
            rule: "unchecked-counter-sub",
            file: "crates/core/src/remote.rs",
            find: "// sub: `seen ≥ ingress` is asserted above",
            replace: "// `seen ≥ ingress` is asserted above",
            description: "saturating_sub whose sub: justification was deleted",
        },
        GraftMutant {
            id: "r7-dispatcher-saturating-debit",
            rule: "unchecked-counter-sub",
            file: "crates/core/src/dispatcher/failure.rs",
            find: "self.core.debit(&mut j.outstanding, 1, \"job outstanding\");",
            replace: "j.outstanding = j.outstanding.saturating_sub(1);",
            description: "the checked debit replaced by a clamp that masks the underflow",
        },
        GraftMutant {
            id: "r8-notifq-tag-stripped",
            rule: "atomic-ordering-audit",
            file: "crates/channels/src/notifq.rs",
            find: "// release: every prior write of the posting thread",
            replace: "// every prior write of the posting thread",
            description: "the profile's release publish with its tag deleted",
        },
        GraftMutant {
            id: "r8-spsc-tag-stripped",
            rule: "atomic-ordering-audit",
            file: "crates/channels/src/spsc.rs",
            find: "// release: publishes the slot write before it",
            replace: "// publishes the slot write before it",
            description: "the profile's release publish with its tag deleted",
        },
        GraftMutant {
            id: "r9-stats-partial-cmp",
            rule: "float-cmp-totality",
            file: "crates/sim/src/stats.rs",
            find: "self.samples.sort_by(f64::total_cmp);",
            replace: "self.samples.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\"));",
            description: "quantile sort reverted to NaN-panicking partial_cmp",
        },
        GraftMutant {
            id: "r9-sched-nan-argmax",
            rule: "float-cmp-totality",
            file: "crates/core/src/sched.rs",
            find: "fn key(info: &JobInfo) -> (u64, u64) {",
            replace: "fn worst(v: &[f64]) -> Option<&f64> {\n        v.iter().max_by(|a, b| a.partial_cmp(b).unwrap())\n    }\n\n    fn key(info: &JobInfo) -> (u64, u64) {",
            description: "NaN-unsafe max_by argmax grafted into the scheduler",
        },
        GraftMutant {
            id: "r10-readme-dangling-path",
            rule: "doc-path",
            file: "README.md",
            find: "(`crates/core/src/serve.rs`)",
            replace: "(`crates/core/src/serve/mod.rs`)",
            description: "the README pointing at a file that does not exist",
        },
        GraftMutant {
            id: "r10-design-line-anchor",
            rule: "doc-path",
            file: "DESIGN.md",
            find: "(`cluster/src/host.rs`)",
            replace: "(`cluster/src/host.rs:40`)",
            description: "a line anchor grafted into DESIGN.md: right today, wrong after the next edit",
        },
        GraftMutant {
            id: "r10-source-design-section",
            rule: "doc-path",
            file: "crates/sim/src/fault.rs",
            find: "//! Deterministic fault injection (DESIGN §11).",
            replace: "//! Deterministic fault injection (DESIGN §99).",
            description: "a source comment citing a DESIGN.md section that does not exist",
        },
        GraftMutant {
            id: "r11-design-deleted-fn",
            rule: "doc-item",
            file: "DESIGN.md",
            find: "which is what `Dispatcher::submit` does",
            replace: "which is what `Dispatcher::submit_now` does",
            description: "DESIGN.md naming a fn that no longer exists",
        },
        GraftMutant {
            id: "r11-readme-unknown-type",
            rule: "doc-item",
            file: "README.md",
            find: "through `ServingSystem::drain_failures` just like",
            replace: "through `ServingTier::drain_failures` just like",
            description: "README naming an item on a type that does not exist",
        },
    ]
}

/// Outcome of one mutant run.
pub struct MutantOutcome {
    /// Mutant identifier.
    pub id: &'static str,
    /// `None` = caught; `Some(reason)` = escaped or broken anchor.
    pub failure: Option<String>,
}

/// Runs every graft mutant against the workspace at `root`. The baseline
/// must be clean first — a dirty baseline would let any mutant "pass" by
/// pointing at a pre-existing finding.
///
/// # Errors
///
/// Propagates filesystem errors loading the workspace.
pub fn run(root: &Path) -> io::Result<Vec<MutantOutcome>> {
    let files = super::load_workspace(root)?;
    let mut out = Vec::new();

    let baseline = analyze_sources(&files);
    if !baseline.ok() {
        out.push(MutantOutcome {
            id: "baseline-clean",
            failure: Some(format!("baseline workspace not clean:\n{baseline}")),
        });
        return Ok(out);
    }

    for m in graft_mutants() {
        let Some(idx) = files.iter().position(|(p, _)| p == m.file) else {
            out.push(MutantOutcome {
                id: m.id,
                failure: Some(format!("file {} not found in workspace", m.file)),
            });
            continue;
        };
        if !files[idx].1.contains(m.find) {
            out.push(MutantOutcome {
                id: m.id,
                failure: Some(format!(
                    "anchor not found in {} — update the mutant: {:?}",
                    m.file, m.find
                )),
            });
            continue;
        }
        let mut mutated = files.clone();
        mutated[idx].1 = mutated[idx].1.replacen(m.find, m.replace, 1);
        let a = analyze_sources(&mutated);
        let caught = a
            .findings
            .iter()
            .any(|v| v.rule == m.rule && v.file == m.file);
        out.push(MutantOutcome {
            id: m.id,
            failure: if caught {
                None
            } else {
                Some(format!(
                    "rule {} did not fire on {} ({})",
                    m.rule, m.file, m.description
                ))
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_rule_twice() {
        let mutants = graft_mutants();
        for rule in [
            "no-wall-clock",
            "hot-path-unwrap",
            "no-thread-sleep",
            "trace-event-exhaustiveness",
            "det-hash-container",
            "unchecked-counter-sub",
            "atomic-ordering-audit",
            "float-cmp-totality",
            "doc-path",
            "doc-item",
        ] {
            let n = mutants.iter().filter(|m| m.rule == rule).count();
            assert!(n >= 2, "rule {rule} has only {n} mutant(s)");
        }
    }

    #[test]
    fn mutant_ids_are_unique() {
        let mutants = graft_mutants();
        for (i, a) in mutants.iter().enumerate() {
            for b in &mutants[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }
}
