//! Calibrated latency models for every communication path in the system.
//!
//! The DES charges each hop a cost drawn from these models. The constants
//! follow the magnitudes the paper reports or that are well established for
//! the mechanism in question (gRPC marshal + HTTP/2 round trip: hundreds of
//! µs; Unix socket wakeup: ~5–10 µs; shared-memory poll: tens–hundreds of ns;
//! PCIe kernel launch: ~5–10 µs). Each cost is a fixed constant of its
//! mechanism, as `paella_core::RpcNetModel`'s network crossing is.

use paella_sim::SimDuration;

/// Cost model for a shared-memory SPSC ring hop (client→dispatcher and the
/// completion ring back).
pub struct ShmRingModel;

impl ShmRingModel {
    /// Producer-side cost of a push (write + release store).
    const PUSH: SimDuration = SimDuration::from_nanos(60);
    /// Visibility delay: time until a polling consumer can observe the entry
    /// (cache-coherence transfer of the line).
    const VISIBILITY: SimDuration = SimDuration::from_nanos(200);
    /// Consumer-side cost of a pop.
    const POP: SimDuration = SimDuration::from_nanos(60);

    /// One-way latency for a message through the ring, excluding any time the
    /// consumer spends before its next poll.
    pub fn one_way() -> SimDuration {
        Self::PUSH + Self::VISIBILITY + Self::POP
    }
}

/// Cost model for a Unix-domain-socket style interrupt channel.
pub struct UnixSocketModel;

impl UnixSocketModel {
    /// Sender syscall cost (`write(2)`).
    pub const SEND_SYSCALL: SimDuration = SimDuration::from_micros(1);
    /// Receiver wakeup latency: scheduler wakeup + `read(2)` return.
    const WAKEUP: SimDuration = SimDuration::from_micros(7);

    /// One-way latency for an interrupt-style notification.
    pub fn one_way() -> SimDuration {
        Self::SEND_SYSCALL + Self::WAKEUP
    }
}

/// Cost model for an RPC stack (gRPC in Triton's case): per-message base plus
/// per-byte marshal/unmarshal. Loopback gRPC with protobuf tensors: ~100 µs
/// fixed each way plus ~0.25 ns/B (≈ 4 GB/s effective marshal bandwidth).
pub struct RpcModel;

impl RpcModel {
    /// Fixed per-message cost on the sender (framing, HTTP/2, syscalls).
    const SEND_BASE: SimDuration = SimDuration::from_micros(110);
    /// Fixed per-message cost on the receiver.
    const RECV_BASE: SimDuration = SimDuration::from_micros(90);
    /// Serialization cost per byte of payload, in nanoseconds (applies on
    /// both sides).
    const PER_BYTE_NS: f64 = 0.25;

    /// Total cost to move a `bytes`-sized payload one way, including both
    /// sides' fixed costs and marshal/unmarshal.
    pub fn one_way(bytes: usize) -> SimDuration {
        let marshal = SimDuration::from_micros_f64(Self::PER_BYTE_NS * bytes as f64 / 1_000.0);
        Self::SEND_BASE + Self::RECV_BASE + marshal * 2
    }
}

/// Cost model for CUDA runtime interactions from the host.
pub struct CudaRuntimeModel;

impl CudaRuntimeModel {
    /// Host-side cost of `cudaLaunchKernel` (driver + ring doorbell).
    pub const LAUNCH_OVERHEAD: SimDuration = SimDuration::from_micros(4);
    /// Latency from launch until the hardware queue sees the kernel.
    pub const LAUNCH_LATENCY: SimDuration = SimDuration::from_micros(6);
    /// Cost of `cudaStreamSynchronize` per call (blocking poll in driver).
    pub const STREAM_SYNCHRONIZE: SimDuration = SimDuration::from_micros(12);
    /// Cost of a `cudaStreamAddCallback` completion: the runtime executes
    /// callbacks on an internal thread with notorious latency. It serializes
    /// onto one runtime thread and wakes it through the OS; tens of µs per
    /// callback is typical and is what makes the Fig. 4 curve so steep.
    pub const STREAM_CALLBACK: SimDuration = SimDuration::from_micros(85);
    /// Host-side cost of queuing an async memcpy.
    pub const MEMCPY_OVERHEAD: SimDuration = SimDuration::from_micros(3);
}

/// Carries nothing: every channel and CUDA-runtime cost above is a constant.
/// It stays only so that the standalone `benchmark` crate's call to
/// `Dispatcher::new`, which passes one, still compiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelConfig {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_is_sub_microsecond() {
        assert!(ShmRingModel::one_way() < SimDuration::from_micros(1));
    }

    #[test]
    fn socket_is_microseconds() {
        assert!(UnixSocketModel::one_way() >= SimDuration::from_micros(5));
        assert!(UnixSocketModel::one_way() <= SimDuration::from_micros(20));
    }

    #[test]
    fn rpc_scales_with_payload() {
        let small = RpcModel::one_way(16);
        let large = RpcModel::one_way(602_112); // a 224×224×3 float32 tensor
        assert!(large > small);
        // Fixed costs dominate small messages.
        assert!(small >= SimDuration::from_micros(190));
        // A ResNet input should cost hundreds of µs — the Fig. 3 regime.
        assert!(large >= SimDuration::from_micros(300), "large = {large}");
        assert!(large <= SimDuration::from_millis(2), "large = {large}");
    }

    #[test]
    fn rpc_zero_bytes_is_just_fixed_cost() {
        assert_eq!(
            RpcModel::one_way(0),
            RpcModel::SEND_BASE + RpcModel::RECV_BASE
        );
    }

    #[test]
    fn cuda_callback_much_slower_than_sync() {
        assert!(CudaRuntimeModel::STREAM_CALLBACK > CudaRuntimeModel::STREAM_SYNCHRONIZE * 4);
    }

    #[test]
    fn ordering_of_mechanisms_matches_paper() {
        // shm ≪ socket ≪ rpc: the premise of §5's channel specialization.
        assert!(ShmRingModel::one_way() < UnixSocketModel::one_way());
        assert!(UnixSocketModel::one_way() < RpcModel::one_way(0));
    }
}
