//! The network cost of remote inference (§5.1 "Remote inference").
//!
//! Paella handles remote requests by running a local client that acts as an
//! RPC server for remote callers, transparently forwarding messages between
//! the remote client and the shared-memory protocol, with both ends using
//! kernel-bypass networking (the paper cites eRPC). [`RpcNetModel`] prices
//! one such crossing; the cluster's router (`paella-cluster`) charges it on
//! the client↔router and router↔node hops.

use paella_sim::{SimDuration, SimTime};

/// Cost model for an eRPC-style kernel-bypass network path on a datacenter
/// network: ~2 µs one-way, ~100 Gb/s line rate.
pub struct RpcNetModel;

impl RpcNetModel {
    /// One-way network + NIC latency per message.
    const ONE_WAY: SimDuration = SimDuration::from_micros(2);
    /// Payload cost per byte (line rate), applied per direction.
    const PER_BYTE_NS: f64 = 0.08;
    /// Gateway (local client) CPU per forwarded message.
    const FORWARD_COST: SimDuration = SimDuration::from_nanos(600);

    /// One-way cost for a `bytes` payload.
    pub fn transfer(bytes: usize) -> SimDuration {
        Self::ONE_WAY
            + Self::FORWARD_COST
            + SimDuration::from_micros_f64(Self::PER_BYTE_NS * bytes as f64 / 1_000.0)
    }

    /// The instant a caller submitted a request, recovered from the
    /// submission time `seen` by a system behind `ingress` of network: the
    /// crossing is deterministic per model, so a front end folds it into the
    /// time it hands inward and subtracts it back out exactly on the way
    /// out. A `seen` earlier than `ingress` never crossed this network.
    pub fn origin(seen: SimTime, ingress: SimDuration) -> SimTime {
        debug_assert!(
            seen >= SimTime::ZERO + ingress,
            "restoring an origin from {seen}, which predates the {ingress} ingress"
        );
        // sub: `seen ≥ ingress` is asserted above; the clamp only keeps a
        // release build from wrapping if a caller breaks that.
        SimTime::from_nanos(seen.as_nanos().saturating_sub(ingress.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bypass_is_far_cheaper_than_grpc() {
        // The premise for using eRPC: a 600 KB tensor costs ~50 µs, not
        // hundreds (Fig. 3's gRPC numbers).
        let t = RpcNetModel::transfer(600_000);
        assert!(t < SimDuration::from_micros(60), "eRPC transfer {t}");
        assert!(t > SimDuration::from_micros(40));
    }
}
