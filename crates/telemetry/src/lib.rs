//! Deterministic virtual-time observability for the Paella reproduction.
//!
//! Everything in this crate is stamped with [`paella_sim::SimTime`] — never
//! wall clock — so traces and metrics are byte-for-byte reproducible across
//! runs with the same seed.

pub mod critical_path;
pub mod event;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod tracer;

pub use critical_path::{
    extract_journeys, p99_blame, per_tenant_blame, BlameReport, Journey, PhaseBreakdown, PHASES,
};
pub use event::{
    HoldReason, HostOpKind, JobBegin, JobEnd, JobJourney, NotifRun, PickRationale, RouteDecision,
    SmWave, TraceEvent,
};
pub use export::{chrome_trace_json, text_summary, validate_chrome_trace};
pub use metrics::{MetricsRegistry, MetricsSnapshot, TenantSloSummary};
pub use tracer::{TraceLog, TracedEvent, Tracer};
