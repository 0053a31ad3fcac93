//! Latency-breakdown and client-CPU-utilization reductions (Figs. 10 & 14).

use paella_channels::UnixSocketModel;
use paella_core::{JobCompletion, LatencyBreakdown, WakeupMode};
use paella_sim::SimDuration;

/// Averaged Fig. 10 breakdown over a set of completions, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakdownUs {
    /// Framework overhead.
    pub framework: f64,
    /// Queuing + scheduling.
    pub queuing_scheduling: f64,
    /// Communication latency.
    pub communication: f64,
    /// Client send/receive.
    pub client_send_recv: f64,
    /// Device time (excluded from the Fig. 10 bars, reported for context).
    pub device: f64,
}

impl BreakdownUs {
    /// Total overhead (everything except device time).
    pub fn overhead(&self) -> f64 {
        self.framework + self.queuing_scheduling + self.communication + self.client_send_recv
    }
}

/// Averages breakdowns over completions.
pub fn average_breakdown(completions: &[JobCompletion]) -> BreakdownUs {
    if completions.is_empty() {
        return BreakdownUs::default();
    }
    let n = completions.len() as f64;
    let mut acc = BreakdownUs::default();
    for c in completions {
        let LatencyBreakdown {
            client_send_recv,
            communication,
            queuing_scheduling,
            framework,
            device,
        } = c.breakdown;
        acc.client_send_recv += client_send_recv.as_micros_f64() / n;
        acc.communication += communication.as_micros_f64() / n;
        acc.queuing_scheduling += queuing_scheduling.as_micros_f64() / n;
        acc.framework += framework.as_micros_f64() / n;
        acc.device += device.as_micros_f64() / n;
    }
    acc
}

/// Client CPU utilization under the three §5.3 wake-up protocols (Fig. 14),
/// computed from the completion timeline:
///
/// * **Polling** — the client burns CPU from submission until the result is
///   visible: utilization ≈ 100 % while jobs are in flight.
/// * **Socket** — the client sleeps; CPU is only the syscall path per
///   request, each syscall costing a socket send.
/// * **Hybrid** — the client sleeps until the *almost finished* interrupt,
///   then polls until the completion lands.
pub fn client_utilization(completions: &[JobCompletion], mode: WakeupMode) -> f64 {
    let syscall_cost = UnixSocketModel::SEND_SYSCALL;
    if completions.is_empty() {
        return 0.0;
    }
    let first = completions
        .iter()
        .map(|c| c.request.submitted_at)
        .min()
        .expect("non-empty");
    let last = completions
        .iter()
        .map(|c| c.client_visible_at)
        .max()
        .expect("non-empty");
    let window = last.saturating_since(first);
    if window == SimDuration::ZERO {
        return 0.0;
    }
    let mut busy = SimDuration::ZERO;
    for c in completions {
        busy += match mode {
            WakeupMode::Polling => c.client_visible_at.saturating_since(c.request.submitted_at),
            WakeupMode::Socket => syscall_cost * 3, // send, blocked recv return, read
            WakeupMode::Hybrid => {
                let poll = match c.almost_finished_at {
                    Some(w) => c.client_visible_at.saturating_since(w),
                    None => SimDuration::ZERO,
                };
                poll + syscall_cost * 2
            }
        };
    }
    (busy.as_nanos() as f64 / window.as_nanos() as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_core::{ClientId, InferenceRequest, JobId, ModelId};
    use paella_sim::SimTime;

    fn completion(submit_us: u64, almost_us: u64, done_us: u64) -> JobCompletion {
        JobCompletion {
            job: JobId(1),
            request: InferenceRequest {
                client: ClientId(0),
                model: ModelId(0),
                submitted_at: SimTime::from_micros(submit_us),
            },
            almost_finished_at: Some(SimTime::from_micros(almost_us)),
            device_done_at: SimTime::from_micros(done_us),
            client_visible_at: SimTime::from_micros(done_us),
            breakdown: LatencyBreakdown {
                client_send_recv: SimDuration::from_micros(2),
                communication: SimDuration::from_micros(8),
                queuing_scheduling: SimDuration::from_micros(10),
                framework: SimDuration::from_micros(20),
                device: SimDuration::from_micros(done_us - submit_us - 40),
            },
        }
    }

    #[test]
    fn breakdown_average() {
        let cs = vec![completion(0, 900, 1000), completion(0, 1900, 2000)];
        let b = average_breakdown(&cs);
        assert_eq!(b.framework, 20.0);
        assert_eq!(b.overhead(), 40.0);
        assert!((b.device - ((960.0 + 1960.0) / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = average_breakdown(&[]);
        assert_eq!(b.overhead(), 0.0);
    }

    #[test]
    fn utilization_ordering_matches_fig14() {
        // 10 jobs back to back, each 1 ms, almost-finished 200 µs early.
        let cs: Vec<JobCompletion> = (0..10)
            .map(|i| completion(i * 1_000, i * 1_000 + 800, (i + 1) * 1_000))
            .collect();
        let poll = client_utilization(&cs, WakeupMode::Polling);
        let hybrid = client_utilization(&cs, WakeupMode::Hybrid);
        let socket = client_utilization(&cs, WakeupMode::Socket);
        assert!(poll > 0.95, "continuous polling pegs the core: {poll}");
        assert!(
            hybrid > socket && hybrid < poll,
            "hybrid {hybrid} must sit between socket {socket} and polling {poll}"
        );
        // Hybrid ≈ the final-operator fraction (~20 %), as in the paper's 23%.
        assert!((0.1..0.4).contains(&hybrid), "hybrid {hybrid}");
        assert!(socket < 0.02, "socket client mostly sleeps: {socket}");
    }
}
