//! The critical-path analyzer: exact, conservation-checked JCT phase
//! decomposition and "p99 blame" aggregation (DESIGN §12).
//!
//! The input is the [`TraceEvent::JobJourney`] stream: each journey carries
//! the request's JCT split into eight phases that sum *exactly* to the JCT
//! on virtual time — no rounding slack, no sampling. On top of the raw
//! journeys this module answers the question the paper's Figs. 11–12 beg:
//! *where* does a tail request spend its time — queueing behind the
//! scheduler, blocked by flow control, parked in retry backoff, or actually
//! executing — and how does that blame shift across policies and tenants.

use std::collections::BTreeMap;

use crate::event::TraceEvent;
use crate::tracer::TraceLog;

/// The phase taxonomy, in fixed report order. Blame ties break toward the
/// earlier phase in this order.
pub const PHASES: [&str; 8] = [
    "client_send_recv",
    "communication",
    "framework",
    "device",
    "retry_backoff",
    "queue_dep",
    "queue_occupancy",
    "queue_hol",
];

/// One request's JCT decomposed into the eight-phase taxonomy. All values
/// are nanoseconds of virtual time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseBreakdown {
    /// End-to-end JCT.
    pub jct_ns: u64,
    /// Client send/receive channel time.
    pub client_send_recv_ns: u64,
    /// PCIe/launch/notification communication time.
    pub communication_ns: u64,
    /// Framework (dispatcher CPU) time.
    pub framework_ns: u64,
    /// Device execution time.
    pub device_ns: u64,
    /// Retry backoff after injected kernel faults.
    pub retry_backoff_ns: u64,
    /// Frontier blocked on the job's own dependencies.
    pub queue_dep_ns: u64,
    /// Held by dispatcher flow control.
    pub queue_occupancy_ns: u64,
    /// Residual queuing (scheduler head-of-line wait).
    pub queue_hol_ns: u64,
    /// Prefill sub-split of `device_ns` for autoregressive jobs (zero for
    /// fixed-trace jobs). Not a ninth phase: `device_prefill_ns +
    /// device_decode_ns == device_ns` is its own conservation law, checked
    /// by [`PhaseBreakdown::check_device_split`].
    pub device_prefill_ns: u64,
    /// Decode sub-split of `device_ns` (zero for fixed-trace jobs).
    pub device_decode_ns: u64,
}

impl PhaseBreakdown {
    /// The phase values in [`PHASES`] order.
    pub fn phases(&self) -> [u64; 8] {
        [
            self.client_send_recv_ns,
            self.communication_ns,
            self.framework_ns,
            self.device_ns,
            self.retry_backoff_ns,
            self.queue_dep_ns,
            self.queue_occupancy_ns,
            self.queue_hol_ns,
        ]
    }

    /// The conservation law: the eight phases must sum *exactly* to the
    /// JCT. Exact equality on virtual time — any slack is a bug.
    pub fn check_conservation(&self) -> Result<(), String> {
        let sum: u64 = self.phases().iter().sum();
        if sum == self.jct_ns {
            Ok(())
        } else {
            Err(format!(
                "phase sum {} != jct {} (delta {})",
                sum,
                self.jct_ns,
                self.jct_ns as i128 - sum as i128
            ))
        }
    }

    /// The device sub-split conservation law: prefill + decode must equal
    /// device time exactly. Fixed-trace jobs carry their whole device time
    /// as prefill (one uninterrupted pass over the precompiled trace is the
    /// degenerate "prompt"), so the law is uniform across job classes.
    pub fn check_device_split(&self) -> Result<(), String> {
        let sum = self.device_prefill_ns + self.device_decode_ns;
        if sum == self.device_ns {
            Ok(())
        } else {
            Err(format!(
                "device split {} + {} != device {}",
                self.device_prefill_ns, self.device_decode_ns, self.device_ns
            ))
        }
    }
}

/// One completed request's journey, extracted from the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Journey {
    /// Dispatcher-assigned job id.
    pub job: u64,
    /// Submitting client — the tenant.
    pub tenant: u32,
    /// The phase decomposition.
    pub breakdown: PhaseBreakdown,
}

/// Extracts every [`TraceEvent::JobJourney`] from a trace, in log order.
pub fn extract_journeys(log: &TraceLog) -> Vec<Journey> {
    log.events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::JobJourney(j) => Some(Journey {
                job: j.job,
                tenant: j.client,
                breakdown: PhaseBreakdown {
                    jct_ns: j.jct_ns,
                    client_send_recv_ns: j.client_send_recv_ns,
                    communication_ns: j.communication_ns,
                    framework_ns: j.framework_ns,
                    device_ns: j.device_ns,
                    retry_backoff_ns: j.retry_backoff_ns,
                    queue_dep_ns: j.queue_dep_ns,
                    queue_occupancy_ns: j.queue_occupancy_ns,
                    queue_hol_ns: j.queue_hol_ns,
                    device_prefill_ns: j.device_prefill_ns,
                    device_decode_ns: j.device_decode_ns,
                },
            }),
            _ => None,
        })
        .collect()
}

/// The blame verdict over one set of journeys: which phase dominates the
/// p99 tail, and each phase's integer share of tail time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlameReport {
    /// Journeys analyzed.
    pub requests: usize,
    /// Journeys at or above the p99 JCT rank (the tail under blame).
    pub tail_requests: usize,
    /// The exact-rank p99 JCT, nanoseconds.
    pub p99_jct_ns: u64,
    /// Per-phase nanoseconds summed over the tail, in [`PHASES`] order.
    pub tail_phase_ns: [u64; 8],
    /// The phase with the largest tail share (ties → earlier in
    /// [`PHASES`]).
    pub dominant: &'static str,
}

impl BlameReport {
    /// Per-phase share of total tail time in basis points (0..=10000),
    /// integer math so identical runs print identical bytes. All-zero
    /// when the tail has no time at all.
    pub fn shares_bp(&self) -> [u64; 8] {
        let total: u64 = self.tail_phase_ns.iter().sum();
        let mut out = [0u64; 8];
        if total == 0 {
            return out;
        }
        for (o, &p) in out.iter_mut().zip(self.tail_phase_ns.iter()) {
            *o = (u128::from(p) * 10_000 / u128::from(total)) as u64;
        }
        out
    }

    /// One stable report row:
    /// `requests,tail,p99_jct_ns,dominant,<8 shares in basis points>`.
    pub fn row(&self) -> String {
        let s = self.shares_bp();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            self.requests,
            self.tail_requests,
            self.p99_jct_ns,
            self.dominant,
            s[0],
            s[1],
            s[2],
            s[3],
            s[4],
            s[5],
            s[6],
            s[7],
        )
    }
}

/// Aggregates "p99 blame" over a set of journeys: the tail is every journey
/// whose JCT is at or above the exact-rank p99 (index `ceil(0.99·n) − 1` of
/// the sorted JCTs), and blame is the phase with the largest summed time
/// over that tail. Returns `None` for an empty set.
pub fn p99_blame(journeys: &[Journey]) -> Option<BlameReport> {
    if journeys.is_empty() {
        return None;
    }
    let mut jcts: Vec<u64> = journeys.iter().map(|j| j.breakdown.jct_ns).collect();
    jcts.sort_unstable();
    let n = jcts.len();
    // ceil(0.99·n) in pure integer math, clamped to a valid 1-based rank.
    let rank = (99 * n).div_ceil(100).max(1);
    let p99 = jcts[rank - 1];
    let mut tail_phase_ns = [0u64; 8];
    let mut tail_requests = 0usize;
    for j in journeys {
        if j.breakdown.jct_ns >= p99 {
            tail_requests += 1;
            for (acc, p) in tail_phase_ns.iter_mut().zip(j.breakdown.phases()) {
                *acc += p;
            }
        }
    }
    let mut dominant = 0usize;
    for (i, &p) in tail_phase_ns.iter().enumerate() {
        if p > tail_phase_ns[dominant] {
            dominant = i;
        }
    }
    Some(BlameReport {
        requests: n,
        tail_requests,
        p99_jct_ns: p99,
        tail_phase_ns,
        dominant: PHASES[dominant],
    })
}

/// Per-tenant p99 blame: the journeys are partitioned by tenant and each
/// partition gets its own [`p99_blame`]. Tenant-sorted for determinism.
pub fn per_tenant_blame(journeys: &[Journey]) -> Vec<(u32, BlameReport)> {
    let mut by_tenant: BTreeMap<u32, Vec<Journey>> = BTreeMap::new();
    for j in journeys {
        by_tenant.entry(j.tenant).or_default().push(*j);
    }
    by_tenant
        .into_iter()
        .filter_map(|(t, js)| p99_blame(&js).map(|r| (t, r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JobJourney;
    use crate::tracer::TracedEvent;
    use paella_sim::SimTime;

    fn journey(job: u64, tenant: u32, device: u64, hol: u64) -> Journey {
        Journey {
            job,
            tenant,
            breakdown: PhaseBreakdown {
                jct_ns: device + hol,
                client_send_recv_ns: 0,
                communication_ns: 0,
                framework_ns: 0,
                device_ns: device,
                retry_backoff_ns: 0,
                queue_dep_ns: 0,
                queue_occupancy_ns: 0,
                queue_hol_ns: hol,
                device_prefill_ns: device,
                device_decode_ns: 0,
            },
        }
    }

    #[test]
    fn conservation_catches_slack() {
        let mut b = journey(1, 0, 100, 50).breakdown;
        assert!(b.check_conservation().is_ok());
        b.jct_ns += 1;
        let err = b.check_conservation().unwrap_err();
        assert!(err.contains("delta 1"), "{err}");
    }

    #[test]
    fn device_split_catches_slack() {
        let mut b = journey(1, 0, 100, 50).breakdown;
        assert!(b.check_device_split().is_ok());
        b.device_decode_ns += 1;
        let err = b.check_device_split().unwrap_err();
        assert!(err.contains("device split"), "{err}");
    }

    #[test]
    fn blame_picks_the_dominant_tail_phase() {
        // 99 fast device-bound requests (distinct JCTs) and one huge
        // HoL-bound straggler: the p99 tail is the rank request plus the
        // straggler, and blame lands on queue_hol.
        let mut js: Vec<Journey> = (0..99).map(|i| journey(i, 0, 1_000 + i, 10)).collect();
        js.push(journey(99, 1, 1_000, 1_000_000));
        let r = p99_blame(&js).unwrap();
        assert_eq!(r.requests, 100);
        assert_eq!(r.tail_requests, 2, "rank request + straggler");
        assert_eq!(r.dominant, "queue_hol");
        assert_eq!(r.p99_jct_ns, 1_108, "exact-rank p99 (index 98)");
        let s = r.shares_bp();
        assert!(s[7] > 9_900, "HoL share {} bp", s[7]);
        assert_eq!(p99_blame(&[]), None);
    }

    #[test]
    fn blame_ties_break_toward_earlier_phase() {
        // device == queue_hol on every request: the dominant phase must be
        // device (earlier in PHASES), deterministically.
        let js: Vec<Journey> = (0..10).map(|i| journey(i, 0, 500, 500)).collect();
        let r = p99_blame(&js).unwrap();
        assert_eq!(r.dominant, "device");
    }

    #[test]
    fn per_tenant_partitions_and_sorts() {
        let js = vec![
            journey(1, 7, 100, 0),
            journey(2, 3, 0, 100),
            journey(3, 7, 100, 0),
        ];
        let per = per_tenant_blame(&js);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, 3);
        assert_eq!(per[0].1.dominant, "queue_hol");
        assert_eq!(per[1].0, 7);
        assert_eq!(per[1].1.requests, 2);
        assert_eq!(per[1].1.dominant, "device");
    }

    #[test]
    fn extract_reads_journeys_back() {
        let j = journey(42, 5, 300, 70);
        let b = j.breakdown;
        let log = TraceLog {
            events: vec![
                TracedEvent {
                    at: SimTime::ZERO,
                    seq: 0,
                    event: TraceEvent::KernelCompleted { kernel: 1 },
                },
                TracedEvent {
                    at: SimTime::from_micros(1),
                    seq: 1,
                    event: TraceEvent::JobJourney(Box::new(JobJourney {
                        job: 42,
                        client: 5,
                        jct_ns: b.jct_ns,
                        client_send_recv_ns: b.client_send_recv_ns,
                        communication_ns: b.communication_ns,
                        framework_ns: b.framework_ns,
                        device_ns: b.device_ns,
                        retry_backoff_ns: b.retry_backoff_ns,
                        queue_dep_ns: b.queue_dep_ns,
                        queue_occupancy_ns: b.queue_occupancy_ns,
                        queue_hol_ns: b.queue_hol_ns,
                        device_prefill_ns: b.device_prefill_ns,
                        device_decode_ns: b.device_decode_ns,
                    })),
                },
            ],
        };
        let out = extract_journeys(&log);
        assert_eq!(out, vec![j]);
    }
}
