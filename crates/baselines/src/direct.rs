//! Direct CUDA submission baselines (no serving system): CUDA-SS, CUDA-MS,
//! and MPS (Table 3).
//!
//! Clients submit whole jobs straight to the CUDA runtime: there is no
//! ingest channel, host costs are paid on each client's own CPU, and the
//! GPU's hardware scheduler makes every decision. The three variants differ
//! only in how streams map onto the device:
//!
//! * **CUDA-SS** — one process, one stream: every job serializes.
//! * **CUDA-MS** — one process, one stream per job: streams beyond the 32
//!   hardware queues alias, producing the §2.1 HoL blocking.
//! * **MPS** — one *process per client* with post-Volta MPS: behaves like
//!   CUDA-MS at the queue level plus a small per-launch MPS server cost;
//!   the paper notes MPS supports at most a handful of client processes.

use paella_channels::ChannelConfig;
use paella_core::{Dispatcher, DispatcherConfig, FifoScheduler, StreamPolicy};
use paella_gpu::DeviceConfig;
use paella_sim::SimDuration;

/// Which direct-submission variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirectMode {
    /// Single process, single CUDA stream.
    SingleStream,
    /// Single process, one stream per job.
    MultiStream,
    /// Multi-process with post-Volta MPS.
    Mps,
}

/// A direct-submission baseline: a job-granularity dispatcher with nothing
/// in front of it but the clients' own `predict` calls, each submitted at its
/// own `submitted_at`. The hardware queues make the scheduling decisions.
pub fn direct_cuda(device: DeviceConfig, mode: DirectMode, seed: u64) -> Dispatcher {
    let streams = match mode {
        DirectMode::SingleStream => StreamPolicy::Single,
        DirectMode::MultiStream | DirectMode::Mps => StreamPolicy::PerJobUnbounded,
    };
    let mut cfg = DispatcherConfig::direct(streams);
    match mode {
        // CUDA-SS and CUDA-MS are a *single process*: launches serialize
        // on one submitting context.
        DirectMode::SingleStream | DirectMode::MultiStream => cfg.central_cpu = true,
        // MPS keeps per-process submission but pays a small per-launch
        // MPS-server cost.
        DirectMode::Mps => cfg.ingest_cost = SimDuration::from_nanos(500),
    }
    Dispatcher::new(
        device,
        ChannelConfig::default(),
        Box::new(FifoScheduler::new()),
        cfg,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_core::{ClientId, InferenceRequest, JobCompletion, ServingSystem};
    use paella_models::synthetic;
    use paella_sim::SimTime;

    fn run(mode: DirectMode, n: usize) -> Vec<JobCompletion> {
        let mut sys = direct_cuda(DeviceConfig::gtx_1660_super(), mode, 9);
        let model = sys.register_model(&synthetic::fig2_job());
        for i in 0..n {
            sys.submit(InferenceRequest {
                client: ClientId((i % 4) as u32),
                model,
                submitted_at: SimTime::ZERO,
            });
        }
        sys.run_to_idle();
        let mut done = sys.drain_completions();
        done.sort_by_key(|c| c.client_visible_at);
        done
    }

    #[test]
    fn single_stream_serializes() {
        let done = run(DirectMode::SingleStream, 4);
        assert_eq!(done.len(), 4);
        // 4 jobs × 8 kernels × ~300 µs serialized ≈ ≥ 9 ms for the last.
        let last = done.last().unwrap().client_visible_at;
        assert!(last >= SimTime::from_micros(9_000), "last = {last}");
    }

    #[test]
    fn multi_stream_overlaps_independent_jobs() {
        let ss = run(DirectMode::SingleStream, 4);
        let ms = run(DirectMode::MultiStream, 4);
        let last_ss = ss.last().unwrap().client_visible_at;
        let last_ms = ms.last().unwrap().client_visible_at;
        // 4 jobs fit 4 distinct queues → near-perfect overlap.
        assert!(
            last_ms.as_nanos() * 3 < last_ss.as_nanos(),
            "MS {last_ms} should crush SS {last_ss} at low concurrency"
        );
    }

    #[test]
    fn multi_stream_hits_hol_wall_at_high_concurrency() {
        // 128 chains on 32 queues: ≤ 32 concurrent blocks of 176 possible.
        let done = run(DirectMode::MultiStream, 128);
        let last = done.last().unwrap().client_visible_at;
        // Perfect interleaving would need 128·8·300 µs / 176 ≈ 1.75 ms plus
        // the 2.4 ms chain; HoL caps concurrency at 32 → ≈ 9.6 ms.
        assert!(
            last >= SimTime::from_micros(8_500),
            "HoL expected, last = {last}"
        );
    }

    #[test]
    fn mps_close_to_multistream() {
        let ms = run(DirectMode::MultiStream, 8);
        let mps = run(DirectMode::Mps, 8);
        let (a, b) = (
            ms.last().unwrap().client_visible_at.as_nanos() as f64,
            mps.last().unwrap().client_visible_at.as_nanos() as f64,
        );
        assert!((b / a - 1.0).abs() < 0.1, "MPS ≈ CUDA-MS at queue level");
    }
}
