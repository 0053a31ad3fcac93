#![warn(missing_docs)]

//! # paella-channels
//!
//! The specialized communication channels of the Paella design (§5 of the
//! paper), in two forms:
//!
//! 1. **For real threads** — lock-free data structures built on `std`
//!    atomics: an SPSC request ring ([`spsc`]), the multi-writer device→host
//!    notification ring with single-word atomic notifications ([`notifq`] +
//!    [`notif`]), and the hybrid interrupt-then-poll doorbell ([`doorbell`]).
//!    The ring and notifQ bodies exist once, generic over an
//!    [`atomic::AtomicCell`]: the handles run them on `std` atomics, and
//!    `paella-check` model-checks the same bodies under their shipped
//!    orderings. All three are exercised by their own tests, Criterion
//!    benches, and the `live_channels` example.
//! 2. **For the discrete-event simulation** — calibrated latency models
//!    ([`latency`]) so that end-to-end experiment figures account for every
//!    hop's cost. The simulation charges these costs; it never runs the
//!    structures of (1).

pub mod atomic;
pub mod doorbell;
pub mod latency;
pub mod notif;
pub mod notifq;
pub mod spsc;

pub use doorbell::{Doorbell, HybridWaiter, Ticket, WaitStats};
pub use latency::{ChannelConfig, CudaRuntimeModel, RpcModel, ShmRingModel, UnixSocketModel};
pub use notif::{KernelUid, NotifKind, Notification, SmId, INVALID_WORD};
pub use notifq::{notif_queue, NotifReader, NotifWriter};
pub use spsc::{ring, Consumer, PopError, Producer, PushError};
