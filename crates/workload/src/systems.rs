//! The Table 3 system registry: every compared system and Paella variant,
//! constructible by key so experiment binaries can iterate over them.

use paella_baselines::{direct_cuda, Clockwork, DirectMode, Triton};
use paella_channels::ChannelConfig;
use paella_core::{
    Dispatcher, DispatcherConfig, FifoScheduler, RrScheduler, ServingSystem, SjfScheduler,
    SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;

/// Keys of the compared systems (Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKey {
    /// Single CUDA stream, direct submission, FIFO.
    CudaSs,
    /// Multiple CUDA streams, direct submission, GPU scheduling.
    CudaMs,
    /// Post-Volta MPS, direct submission.
    Mps,
    /// Clockwork-like predictable executor.
    Clockwork,
    /// Triton-like gRPC server.
    Triton,
    /// Paella frontend + single-stream FIFO (ablation).
    PaellaSs,
    /// Paella frontend + job-by-job multi-stream (ablation).
    PaellaMsJbj,
    /// Paella frontend + kernel-by-kernel multi-stream (ablation).
    PaellaMsKbk,
    /// Full Paella with the §6 SRPT + deficit scheduler.
    Paella,
    /// Paella with shortest-job-first.
    PaellaSjf,
    /// Paella with round-robin.
    PaellaRr,
}

impl SystemKey {
    /// Every key, in Table 3 order.
    pub const ALL: [SystemKey; 11] = [
        SystemKey::CudaSs,
        SystemKey::CudaMs,
        SystemKey::Mps,
        SystemKey::Clockwork,
        SystemKey::Triton,
        SystemKey::PaellaSs,
        SystemKey::PaellaMsJbj,
        SystemKey::PaellaMsKbk,
        SystemKey::Paella,
        SystemKey::PaellaSjf,
        SystemKey::PaellaRr,
    ];

    /// The paper's display key.
    pub fn key(&self) -> &'static str {
        match self {
            SystemKey::CudaSs => "CUDA-SS",
            SystemKey::CudaMs => "CUDA-MS",
            SystemKey::Mps => "MPS",
            SystemKey::Clockwork => "Clockwork",
            SystemKey::Triton => "Triton",
            SystemKey::PaellaSs => "Paella-SS",
            SystemKey::PaellaMsJbj => "Paella-MS-jbj",
            SystemKey::PaellaMsKbk => "Paella-MS-kbk",
            SystemKey::Paella => "Paella",
            SystemKey::PaellaSjf => "Paella-SJF",
            SystemKey::PaellaRr => "Paella-RR",
        }
    }

    /// The default fairness threshold for the full Paella system.
    pub const DEFAULT_FAIRNESS: f64 = 2_000.0;
}

/// Builds a fresh instance of the keyed system over a fresh device.
pub fn make_system(key: SystemKey, device: DeviceConfig, seed: u64) -> Box<dyn ServingSystem> {
    match key {
        SystemKey::CudaSs => Box::new(direct_cuda(device, DirectMode::SingleStream, seed)),
        SystemKey::CudaMs => Box::new(direct_cuda(device, DirectMode::MultiStream, seed)),
        SystemKey::Mps => Box::new(direct_cuda(device, DirectMode::Mps, seed)),
        SystemKey::Clockwork => Box::new(Clockwork::new(device, seed)),
        SystemKey::Triton => Box::new(Triton::new(device, seed)),
        SystemKey::PaellaSs => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(FifoScheduler::new()),
            DispatcherConfig::paella_ss(),
            seed,
        )),
        SystemKey::PaellaMsJbj => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(FifoScheduler::new()),
            DispatcherConfig::paella_ms_jbj(),
            seed,
        )),
        SystemKey::PaellaMsKbk => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(FifoScheduler::new()),
            DispatcherConfig::paella_ms_kbk(),
            seed,
        )),
        SystemKey::Paella => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS))),
            DispatcherConfig::paella(),
            seed,
        )),
        SystemKey::PaellaSjf => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(SjfScheduler::new()),
            DispatcherConfig::paella(),
            seed,
        )),
        SystemKey::PaellaRr => Box::new(Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(RrScheduler::new()),
            DispatcherConfig::paella(),
            seed,
        )),
    }
}

/// Paella with a specific fairness threshold (`None` = pure SRPT) —
/// the Fig. 13 sweep.
pub fn make_paella_with_fairness(
    device: DeviceConfig,
    threshold: Option<f64>,
    seed: u64,
) -> Box<dyn ServingSystem> {
    Box::new(Dispatcher::new(
        device,
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(threshold)),
        DispatcherConfig::paella(),
        seed,
    ))
}

/// Paella with a specific injected scheduling delay — the Fig. 9 sweep.
pub fn make_paella_with_delay(
    device: DeviceConfig,
    delay: paella_sim::SimDuration,
    seed: u64,
) -> Box<dyn ServingSystem> {
    let mut cfg = DispatcherConfig::paella();
    cfg.injected_delay = delay;
    Box::new(Dispatcher::new(
        device,
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS))),
        cfg,
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Mix, WorkloadSpec};
    use crate::runner::run_trace;
    use paella_models::synthetic;
    use paella_sim::SimDuration;

    #[test]
    fn every_system_constructs_and_serves() {
        for key in SystemKey::ALL {
            let mut sys = make_system(key, DeviceConfig::tesla_t4(), 1);
            let m = sys.register_model(&synthetic::uniform_job(
                "u",
                4,
                SimDuration::from_micros(100),
                8,
            ));
            let arrivals = generate(&WorkloadSpec::steady(500.0, 40), &Mix::single(m));
            let stats = run_trace(sys.as_mut(), &arrivals, 0);
            assert_eq!(stats.completions.len(), 40, "{} lost requests", key.key());
        }
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<&str> = SystemKey::ALL.iter().map(|k| k.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), SystemKey::ALL.len());
    }
}
