//! Core identifiers and request/response types of the Paella service.

use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{JobEnd, JobJourney};

/// Identifier of a registered model in the dispatcher's library.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModelId(pub u32);

/// Identifier of a client connection (one shared-memory region each).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

/// Identifier of an inference job (the `req_id` returned by
/// `paella.predict`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

/// An inference request as written to the client→Paella shared-memory ring:
/// a model name (pre-resolved to an id), the shared buffer, and options.
/// No marshalling — the paper's `predict(model, len, io_ptr, options)`.
#[derive(Clone, Copy, Debug)]
pub struct InferenceRequest {
    /// Submitting client.
    pub client: ClientId,
    /// Which model to run.
    pub model: ModelId,
    /// Time the client called `predict` (for end-to-end accounting).
    pub submitted_at: SimTime,
}

/// Per-request latency breakdown in the Fig. 10 categories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Client-side send + receive path (predict call, result pickup).
    pub client_send_recv: SimDuration,
    /// Channel/communication latency (rings, notifications, launch paths).
    pub communication: SimDuration,
    /// Time spent queued or waiting on scheduling decisions.
    pub queuing_scheduling: SimDuration,
    /// Serving-framework CPU time (adaptor, dispatch loop, bookkeeping).
    pub framework: SimDuration,
    /// Pure device time (kernels + memcpys on the critical path).
    pub device: SimDuration,
}

impl LatencyBreakdown {
    /// Total non-device overhead.
    pub fn overhead(&self) -> SimDuration {
        self.client_send_recv + self.communication + self.queuing_scheduling + self.framework
    }

    /// Total end-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.overhead() + self.device
    }
}

impl From<&JobJourney> for LatencyBreakdown {
    /// The five categories of a journey (its [`JobEnd`] view), as durations.
    fn from(journey: &JobJourney) -> Self {
        let end = JobEnd::from(journey);
        let ns = SimDuration::from_nanos;
        LatencyBreakdown {
            client_send_recv: ns(end.client_send_recv_ns),
            communication: ns(end.communication_ns),
            queuing_scheduling: ns(end.queuing_scheduling_ns),
            framework: ns(end.framework_ns),
            device: ns(end.device_ns),
        }
    }
}

/// A point-in-time load summary a serving system exports to layers above it
/// (a cluster router, an autoscaler). The `remaining_work` field is the
/// dispatcher's SRPT signal — the profiled estimated-remaining-time summed
/// over everything it has accepted — which is exactly the quantity Paella's
/// scheduler already maintains per job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadSignal {
    /// Requests accepted (`submit`) but not yet ingested off the ring.
    pub queued: u64,
    /// Jobs currently in flight inside the system.
    pub inflight: u64,
    /// Estimated remaining device work across queued + in-flight jobs.
    pub remaining_work: SimDuration,
    /// KV-cache pages currently resident on the device, for systems with a
    /// paged KV memory budget (autoregressive serving). Zero for systems
    /// without one.
    pub kv_pages_used: u64,
    /// Total KV-cache pages on the device; zero means "no KV budget" and
    /// makes [`LoadSignal::kv_pressure_bp`] report zero pressure.
    pub kv_pages_total: u64,
}

impl LoadSignal {
    /// Total requests the system is holding (queued + in flight).
    pub fn outstanding(&self) -> u64 {
        self.queued + self.inflight
    }

    /// KV-cache occupancy in basis points (0..=10000). Integer math so
    /// identical states compare identically everywhere; saturates at 10000
    /// even if accounting transiently reports used > total.
    pub fn kv_pressure_bp(&self) -> u64 {
        if self.kv_pages_total == 0 {
            return 0;
        }
        ((u128::from(self.kv_pages_used) * 10_000) / u128::from(self.kv_pages_total)).min(10_000)
            as u64
    }
}

impl std::ops::Add for LoadSignal {
    type Output = LoadSignal;

    /// The load of two systems taken together.
    fn add(self, other: LoadSignal) -> LoadSignal {
        LoadSignal {
            queued: self.queued + other.queued,
            inflight: self.inflight + other.inflight,
            remaining_work: self.remaining_work + other.remaining_work,
            kv_pages_used: self.kv_pages_used + other.kv_pages_used,
            kv_pages_total: self.kv_pages_total + other.kv_pages_total,
        }
    }
}

/// Why a request failed instead of completing (DESIGN §11).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureReason {
    /// The job's deadline passed before its last op finished; the
    /// dispatcher cancelled it and reclaimed its resources.
    DeadlineExceeded,
    /// Admission control refused the request: the load signal was at or
    /// above the shed watermark when it arrived.
    Shed,
    /// The submitting client disconnected (injected fault).
    Disconnected,
    /// A kernel faulted more times than the retry budget allows.
    RetryBudgetExhausted,
    /// The node holding the request crashed (the cluster tier may re-route
    /// and retry; standalone dispatchers report it terminally).
    NodeCrash,
}

impl FailureReason {
    /// Stable display name (telemetry labels, bench output).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureReason::DeadlineExceeded => "deadline-exceeded",
            FailureReason::Shed => "shed",
            FailureReason::Disconnected => "disconnected",
            FailureReason::RetryBudgetExhausted => "retry-budget-exhausted",
            FailureReason::NodeCrash => "node-crash",
        }
    }
}

/// A request that terminated without a [`JobCompletion`].
#[derive(Clone, Copy, Debug)]
pub struct JobFailure {
    /// The failed request.
    pub request: InferenceRequest,
    /// Why it failed.
    pub reason: FailureReason,
    /// When the failure was decided.
    pub at: SimTime,
}

/// A finished job as reported back to the harness/client.
#[derive(Clone, Copy, Debug)]
pub struct JobCompletion {
    /// The job.
    pub job: JobId,
    /// The request that spawned it.
    pub request: InferenceRequest,
    /// When the *almost finished* wake-up was sent (`None` if never).
    pub almost_finished_at: Option<SimTime>,
    /// When the final device op finished.
    pub device_done_at: SimTime,
    /// When the result became visible to the client (end of JCT).
    pub client_visible_at: SimTime,
    /// Latency breakdown.
    pub breakdown: LatencyBreakdown,
}

impl JobCompletion {
    /// Job completion time: client-visible completion minus submission.
    pub fn jct(&self) -> SimDuration {
        self.client_visible_at
            .saturating_since(self.request.submitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums() {
        let b = LatencyBreakdown {
            client_send_recv: SimDuration::from_micros(5),
            communication: SimDuration::from_micros(10),
            queuing_scheduling: SimDuration::from_micros(20),
            framework: SimDuration::from_micros(15),
            device: SimDuration::from_micros(1000),
        };
        assert_eq!(b.overhead(), SimDuration::from_micros(50));
        assert_eq!(b.total(), SimDuration::from_micros(1050));
    }

    #[test]
    fn jct_saturates() {
        let c = JobCompletion {
            job: JobId(1),
            request: InferenceRequest {
                client: ClientId(0),
                model: ModelId(0),
                submitted_at: SimTime::from_micros(100),
            },
            almost_finished_at: None,
            device_done_at: SimTime::from_micros(90),
            client_visible_at: SimTime::from_micros(150),
            breakdown: LatencyBreakdown::default(),
        };
        assert_eq!(c.jct(), SimDuration::from_micros(50));
    }
}
