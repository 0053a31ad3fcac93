//! `paella-check`: the verification layer for the Paella reproduction.
//!
//! Correctness of this codebase leans on three properties that `cargo test`
//! alone cannot establish, and this crate attacks each with a dedicated
//! tool:
//!
//! 1. **Memory-ordering correctness of the lock-free channels** — the
//!    [`mc`] module is a self-contained stateless model checker (in the
//!    spirit of `loom`) that exhaustively explores bounded-preemption
//!    interleavings under a view-based release/acquire memory model. The
//!    [`models`] module runs it over the `notifQ` and SPSC code as shipped
//!    (`paella-channels`' own bodies on the checker's atomics), plus a
//!    corpus of *seeded mutants* (downgraded shipped orderings, dropped flow
//!    control) that the checker must catch — a self-test that the checker
//!    itself has teeth. The doorbell is a `std` `Mutex` and `Condvar` and
//!    has no model.
//! 2. **Bookkeeping invariants of the dispatcher** — the [`oracle`] module
//!    provides brute-force reference implementations of CUDA stream
//!    semantics and Table-1 block conservation, cross-checked against the
//!    production `Waitlist` and `OccupancyTracker` by property tests.
//! 3. **Source-level contracts, determinism & accounting** — the
//!    [`analysis`] module is a std-only token-level engine (tokenizer, a
//!    flat lexed stream, one pass per file; no parser and no classification
//!    of what a name means) hosting the repo rules no off-the-shelf linter
//!    knows, R1 and R3–R11 (R2 is retired into R8): no wall clock in the
//!    virtual-time stack, no `unwrap()` or unexplained `expect()` in the
//!    serving engines, no `thread::sleep` in library code, no wildcard arm
//!    where every `TraceEvent` variant is consumed, no hash container in
//!    the virtual-time stack (R6), no engine subtraction without an assert
//!    naming it or a written `sub:` reason (R7), per-operation atomic
//!    ordering justifications (R8), and total float comparators (R9); and
//!    over the prose docs, paths that resolve, no line anchors and DESIGN.md
//!    section references that resolve, also in `.rs` comments (R10), and
//!    `Type::item` names the sources declare (R11). A
//!    rule's exception is a tagged comment at the site, never a list
//!    elsewhere, and a graft-mutant self-test ([`analysis::selftest`])
//!    proves every rule fires. The [`lint`] module holds what the rules
//!    share: the tokenizer and justification comments.
//!
//! The `paella-check` binary wires all three into CI:
//! `cargo run -p paella-check` exits nonzero on any violation, finding,
//! surviving mutant, or non-exhausted model.

pub mod analysis;
pub mod lint;
pub mod mc;
pub mod models;
pub mod oracle;

pub use analysis::{analyze, analyze_sources, Analysis};
pub use lint::Violation;
pub use mc::{Checker, Config, Report};
pub use models::{clean_models, mutants, ModelCheck, Mutant};
pub use oracle::{check_journeys, check_kv, ConservationOracle, KvOracle, StreamOracle};
