//! Device configurations and microarchitecture presets.

use paella_sim::SimDuration;

use crate::resources::SmLimits;

/// How streams map onto hardware queues — the property that drives every
/// scheduling pathology in §2.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Microarch {
    /// Fermi and earlier: a single hardware queue; all streams serialize into
    /// it in issue order.
    Fermi,
    /// Kepler and later (including post-Volta MPS): multiple hardware queues;
    /// stream *s* maps to queue *s mod N*, so more streams than queues share
    /// queues and pick up false dependencies.
    KeplerPlus,
}

/// Static description of a simulated GPU.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Per-SM capacity limits.
    pub sm_limits: SmLimits,
    /// Number of hardware kernel queues (32 on Kepler+ parts).
    pub num_hw_queues: u32,
    /// Stream→queue mapping behaviour.
    pub microarch: Microarch,
    /// Effective PCIe copy bandwidth, bytes per second (one direction).
    pub pcie_bytes_per_sec: f64,
    /// Number of independent copy engines (H2D + D2H can overlap with 2).
    pub copy_engines: u32,
    /// Latency for a device-side notifQ write to become visible to a polling
    /// host thread (PCIe posted write to pinned memory).
    pub notif_visibility: SimDuration,
    /// Delay from a kernel entering a hardware queue until the block
    /// scheduler first considers it.
    pub queue_to_scheduler: SimDuration,
    /// Fraction of notification words silently dropped — fault injection
    /// for testing dispatcher robustness to notifQ overruns. Zero on every
    /// preset; the paper's flow control makes loss impossible in normal
    /// operation.
    pub notif_drop_rate: f64,
}

impl DeviceConfig {
    /// NVIDIA Tesla T4: the paper's main evaluation GPU (Turing, 40 SMs).
    pub fn tesla_t4() -> Self {
        DeviceConfig {
            name: "Tesla T4",
            num_sms: 40,
            sm_limits: SmLimits::TURING,
            num_hw_queues: 32,
            microarch: Microarch::KeplerPlus,
            pcie_bytes_per_sec: 12.0e9,
            copy_engines: 2,
            notif_visibility: SimDuration::from_micros(1),
            queue_to_scheduler: SimDuration::from_nanos(300),
            notif_drop_rate: 0.0,
        }
    }

    /// GeForce GTX 1660 SUPER: the §2.1 HoL-blocking demonstration GPU
    /// (22 SMs, 1024 threads/SM, 32 hardware queues).
    pub fn gtx_1660_super() -> Self {
        DeviceConfig {
            name: "GTX 1660 SUPER",
            num_sms: 22,
            sm_limits: SmLimits::TURING,
            num_hw_queues: 32,
            microarch: Microarch::KeplerPlus,
            pcie_bytes_per_sec: 12.0e9,
            copy_engines: 2,
            notif_visibility: SimDuration::from_micros(1),
            queue_to_scheduler: SimDuration::from_nanos(300),
            notif_drop_rate: 0.0,
        }
    }

    /// NVIDIA Tesla P100 (Pascal, 56 SMs) — the paper's secondary GPU.
    pub fn tesla_p100() -> Self {
        DeviceConfig {
            name: "Tesla P100",
            num_sms: 56,
            sm_limits: SmLimits::PASCAL,
            num_hw_queues: 32,
            microarch: Microarch::KeplerPlus,
            pcie_bytes_per_sec: 12.0e9,
            copy_engines: 2,
            notif_visibility: SimDuration::from_micros(1),
            queue_to_scheduler: SimDuration::from_nanos(300),
            notif_drop_rate: 0.0,
        }
    }

    /// A toy device for the Figure 1 illustration: `num_sms` SMs, each able
    /// to hold exactly one block of the illustration's kernels.
    pub fn tiny(num_sms: u32, num_hw_queues: u32, microarch: Microarch) -> Self {
        DeviceConfig {
            name: "tiny",
            num_sms,
            sm_limits: SmLimits::TURING,
            num_hw_queues,
            microarch,
            pcie_bytes_per_sec: 12.0e9,
            copy_engines: 2,
            notif_visibility: SimDuration::from_nanos(200),
            queue_to_scheduler: SimDuration::ZERO,
            notif_drop_rate: 0.0,
        }
    }

    /// The hardware queue a stream's kernels land in.
    pub fn queue_for_stream(&self, stream: u32) -> u32 {
        match self.microarch {
            Microarch::Fermi => 0,
            Microarch::KeplerPlus => stream % self.num_hw_queues,
        }
    }

    /// Time to copy `bytes` over PCIe.
    pub fn copy_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.pcie_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shapes() {
        let t4 = DeviceConfig::tesla_t4();
        assert_eq!(t4.num_sms, 40);
        assert_eq!(t4.num_hw_queues, 32);
        let gtx = DeviceConfig::gtx_1660_super();
        assert_eq!(gtx.num_sms, 22);
        assert_eq!(gtx.sm_limits.max_threads, 1024);
        let p100 = DeviceConfig::tesla_p100();
        assert_eq!(p100.sm_limits, SmLimits::PASCAL);
    }

    #[test]
    fn fermi_maps_all_streams_to_queue_zero() {
        let d = DeviceConfig::tiny(2, 4, Microarch::Fermi);
        for s in 0..100 {
            assert_eq!(d.queue_for_stream(s), 0);
        }
    }

    #[test]
    fn kepler_wraps_streams_over_queues() {
        let d = DeviceConfig::tesla_t4();
        assert_eq!(d.queue_for_stream(0), 0);
        assert_eq!(d.queue_for_stream(31), 31);
        assert_eq!(d.queue_for_stream(32), 0, "33rd stream shares queue 0");
        assert_eq!(d.queue_for_stream(45), 13);
    }

    #[test]
    fn copy_time_scales() {
        let d = DeviceConfig::tesla_t4();
        let one_mb = d.copy_time(1 << 20);
        // 1 MiB at 12 GB/s ≈ 87 µs.
        assert!(one_mb > SimDuration::from_micros(80));
        assert!(one_mb < SimDuration::from_micros(95));
        assert_eq!(d.copy_time(0), SimDuration::ZERO);
    }
}
