//! The stream pool: which real CUDA streams back a job's virtual streams
//! (§5.2), and the jobs waiting for them.

use std::collections::VecDeque;

use paella_gpu::StreamId;

use super::config::StreamPolicy;
use crate::types::JobId;

/// Real streams handed to jobs under the configured [`StreamPolicy`]. Stream
/// ids decide the hardware queues, so the order here is behaviour: a pool
/// hands out its most recently returned streams first (LIFO), and parked
/// jobs are served oldest first (FIFO).
pub(super) struct StreamPool {
    policy: StreamPolicy,
    /// Pool streams no live job holds.
    free: Vec<StreamId>,
    /// Jobs parked until the pool can hand them their streams.
    pub(super) waiters: VecDeque<JobId>,
    /// Next fresh id under [`StreamPolicy::PerJobUnbounded`].
    next: u32,
}

impl StreamPool {
    pub(super) fn new(policy: StreamPolicy) -> Self {
        let free = match policy {
            StreamPolicy::Pool(n) => (1..=n).map(StreamId).collect(),
            StreamPolicy::Single | StreamPolicy::PerJobUnbounded => Vec::new(),
        };
        StreamPool {
            policy,
            free,
            waiters: VecDeque::new(),
            next: 1,
        }
    }

    /// Streams backing `want` virtual streams, or `None` while the pool
    /// holds fewer than `want` free ones.
    pub(super) fn take(&mut self, want: usize) -> Option<Vec<StreamId>> {
        match self.policy {
            // A single shared stream backs every virtual stream (correct but
            // serialized — deps still hold because dispatch order respects
            // the op graph).
            StreamPolicy::Single => Some(vec![StreamId(1); want]),
            StreamPolicy::PerJobUnbounded => {
                let first = self.next;
                self.next += want as u32;
                Some((first..self.next).map(StreamId).collect())
            }
            StreamPolicy::Pool(_) => (self.free.len() >= want).then(|| {
                // invariant: the len() >= want guard above bounds the pops.
                (0..want)
                    .map(|_| self.free.pop().expect("checked"))
                    .collect()
            }),
        }
    }

    /// Takes back a retiring job's streams; whether the pool grew, so that a
    /// waiter may now fit.
    pub(super) fn give_back(&mut self, streams: &[StreamId]) -> bool {
        let pooled = matches!(self.policy, StreamPolicy::Pool(_)) && !streams.is_empty();
        if pooled {
            self.free.extend_from_slice(streams);
        }
        pooled
    }

    /// Pool streams no live job holds (post-mortem state).
    pub(super) fn free_len(&self) -> usize {
        self.free.len()
    }
}
