//! The discrete-event GPU engine.
//!
//! This module simulates the scheduling behaviour of an NVIDIA GPU as
//! documented in §2.1 of the paper and the real-time-systems literature it
//! cites:
//!
//! * Kernel launches enter one of a fixed number of **hardware queues**
//!   (stream → queue per [`Microarch`](crate::config::Microarch)).
//! * Each queue is **strictly FIFO**: the block scheduler only examines the
//!   queue's *head* kernel; a head whose stream dependency is unsatisfied
//!   stalls the whole queue (Head-of-Line blocking).
//! * Placing a block statically allocates its footprint on an SM until the
//!   block finishes ([`SmUsage`]).
//! * **Stream semantics**: operations on the same stream execute in issue
//!   order; an op starts only after its predecessor on that stream completed.
//! * Memory copies run on copy engines, FIFO per engine, overlapping compute.
//!
//! Blocks are placed in *groups* — the run of identical blocks that fits on
//! one SM at one instant — which keeps the event count per kernel at
//! O(#SMs) instead of O(#blocks) without changing any resource accounting.
//!
//! The engine is driven by its host: call [`GpuSim::launch_kernel`] /
//! [`GpuSim::enqueue_memcpy`], then [`GpuSim::advance_until`] to pump
//! simulated time forward and collect host-visible [`GpuOutput`]s.

use std::collections::VecDeque;
use std::sync::Arc;

use paella_channels::{KernelUid, NotifKind, Notification, SmId};
use paella_sim::rng::Xoshiro256pp;
use paella_sim::{EventQueue, IdMap, SimDuration, SimTime};
use paella_telemetry::{SmWave, TraceEvent, TraceLog, Tracer};

use crate::config::DeviceConfig;
use crate::kernel::{KernelLaunch, StreamId};
use crate::resources::{blocks_per_sm, SmPool, SmUsage};

/// Identifier of a memory-copy operation, assigned by the host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemcpyUid(pub u64);

/// Direction of a PCIe copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyDir {
    /// Host → device.
    HostToDevice,
    /// Device → host.
    DeviceToHost,
}

/// A memory-copy command submitted to a stream.
#[derive(Clone, Copy, Debug)]
pub struct MemcpyOp {
    /// Host-assigned id, echoed in the completion output.
    pub uid: MemcpyUid,
    /// Stream the copy is ordered on.
    pub stream: StreamId,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Copy direction (selects the copy engine on 2-engine parts).
    pub dir: CopyDir,
}

/// Host-visible outputs of the device, one notification word at a time, in
/// *emission* order: nondecreasing in device time but not in `at` — a word's
/// `at` is its host-visibility instant, `notif_visibility` after the device
/// posted it, so a kernel's last words precede its `KernelCompleted`, whose
/// `at` is earlier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuOutput {
    /// A kernel's last block finished at device time `at` (host observes
    /// this through stream queries/synchronization, which add their own
    /// cost).
    KernelCompleted {
        /// The launch's unique id.
        uid: KernelUid,
        /// Completion time on the device.
        at: SimTime,
    },
    /// An instrumented-kernel notification became visible to a polling host
    /// thread at `at` (device write + PCIe visibility already included).
    Notif {
        /// The decoded notification word.
        n: Notification,
        /// Host visibility time.
        at: SimTime,
    },
    /// A memory copy finished at device time `at`.
    MemcpyCompleted {
        /// The op's host-assigned id.
        uid: MemcpyUid,
        /// Completion time.
        at: SimTime,
    },
}

/// A [`GpuOutput`] with a wave's words kept together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuRunOutput {
    /// [`GpuOutput::KernelCompleted`]'s `uid` and `at`.
    KernelCompleted(KernelUid, SimTime),
    /// [`GpuOutput::MemcpyCompleted`]'s `uid` and `at`.
    MemcpyCompleted(MemcpyUid, SimTime),
    /// A run: the words one wave posted, all for one `kernel`, of one `kind`,
    /// visible to the host at one instant `at`, in posting order; their
    /// `(sm, group)` pairs travel beside it. Words lost to `notif_drop_rate`
    /// are absent, and a wave that lost them all has no run.
    Notifs {
        /// The kernel every word names.
        kernel: KernelUid,
        /// Placement or completion, for every word.
        kind: NotifKind,
        /// Host visibility time of every word.
        at: SimTime,
        /// Number of words (≥ 1).
        len: u32,
    },
}

/// What the device produces: its outputs in emission order and, run after
/// run, the `(sm, group)` pair of every word. The word-level stream of
/// [`GpuSim::advance_until`] is the expansion of this one.
#[derive(Debug, Default)]
pub struct GpuRuns {
    outputs: Vec<GpuRunOutput>,
    words: Vec<(SmId, u16)>,
}

impl GpuRuns {
    /// Each output with its words (none unless it is a run).
    pub fn iter(&self) -> impl Iterator<Item = (GpuRunOutput, &[(SmId, u16)])> {
        let mut rest = &self.words[..];
        self.outputs.iter().map(move |&out| {
            let len = match out {
                GpuRunOutput::Notifs { len, .. } => len as usize,
                _ => 0,
            };
            let (words, tail) = rest.split_at(len);
            rest = tail;
            (out, words)
        })
    }

    fn clear(&mut self) {
        self.outputs.clear();
        self.words.clear();
    }
}

#[derive(Clone, Debug)]
enum Ev {
    /// A launch reached its hardware queue and may now be considered.
    QueueArrival { uid: KernelUid },
    /// A placed wave of block groups finished; `allocs` holds the per-SM
    /// block counts.
    GroupFinish {
        uid: KernelUid,
        wave: u32,
        allocs: Vec<(u32, u32)>,
    },
    /// A memcpy finished on its engine.
    CopyFinish { uid: MemcpyUid, engine: u32 },
}

/// Per-stream op, in issue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamOp {
    Kernel(KernelUid),
    Copy(MemcpyUid),
}

/// A stream with work outstanding; dropped as soon as `pending` empties.
#[derive(Debug, Default)]
struct StreamState {
    /// Ops issued on this stream that have not yet *completed*, in order.
    /// Only the front op may run.
    pending: VecDeque<StreamOp>,
    /// Hardware-queue arrival time of the stream's latest launch: same-stream
    /// launches reach the queue in issue order even if host timestamps
    /// interleave (the CUDA runtime serializes per-stream submission). Safe
    /// to forget with the rest of the state: the arrival fired before the
    /// stream drained, so it is ≤ the engine clock ≤ any later arrival.
    last_arrival: SimTime,
}

struct KernelState {
    launch: KernelLaunch,
    /// Blocks not yet placed.
    unplaced: u32,
    /// Blocks placed but not finished.
    running: u32,
    /// Whether the launch has reached its hardware queue.
    in_queue: bool,
    /// Blocks that have finished.
    finished_blocks: u32,
    /// Placement waves issued so far (telemetry span key).
    waves: u32,
    /// Smallest wave worth a finish event (fewer blocks only when fewer
    /// remain): 1/8 of an empty device's fill of this footprint.
    wave_quantum: u64,
    /// Telemetry payloads of the waves still running, each shared by its
    /// begin event and the end event to come. Empty with telemetry off.
    open_waves: Vec<Arc<SmWave>>,
}

impl KernelState {
    /// What the telemetry events of wave `wave`, placed as `allocs`, carry.
    fn wave_span(&self, wave: u32, allocs: &[(u32, u32)]) -> Arc<SmWave> {
        Arc::new(SmWave {
            kernel: u64::from(self.launch.uid),
            wave,
            name: self.launch.desc.name.clone(),
            groups: allocs.into(),
        })
    }
}

struct CopyEngine {
    /// Queue of (uid, stream, bytes) waiting, front is running.
    queue: VecDeque<(MemcpyUid, StreamId, usize)>,
    /// When the currently running copy finishes (if any).
    busy_until: Option<SimTime>,
}

/// The simulated GPU.
pub struct GpuSim {
    cfg: DeviceConfig,
    rng: Xoshiro256pp,
    events: EventQueue<Ev>,
    pool: SmPool,
    /// Hardware queues of kernels, in arrival order.
    queues: Vec<VecDeque<KernelUid>>,
    /// Bit `q` is set while `queues[q]` holds a kernel, so the block
    /// scheduler visits those queues only.
    busy_queues: u64,
    /// In-flight kernels, indexed by launch uid.
    kernels: IdMap<KernelState>,
    /// Streams with outstanding ops, indexed by stream id.
    streams: IdMap<StreamState>,
    copy_engines: Vec<CopyEngine>,
    outputs: GpuRuns,
    rr_sm: usize,
    resident_blocks: u64,
    /// Structured telemetry sink (no-op unless enabled by the host).
    tracer: Tracer,
    /// Round-robin cursor over the hardware queues.
    rr_queue: usize,
    /// Copies submitted but not yet at the front of their stream.
    pending_copies: Vec<(MemcpyOp, SimTime)>,
    /// Emptied `allocs` buffers of finished waves, for the next waves.
    spare_allocs: Vec<Vec<(u32, u32)>>,
}

impl GpuSim {
    /// Creates a device in the idle state.
    pub fn new(cfg: DeviceConfig, seed: u64) -> Self {
        let pool = SmPool::new(cfg.num_sms, cfg.sm_limits);
        let num_queues = cfg.num_hw_queues as usize;
        assert!(num_queues <= 64, "one bit of `busy_queues` per queue");
        let engines = cfg.copy_engines.max(1) as usize;
        GpuSim {
            cfg,
            rng: Xoshiro256pp::seed_from_u64(seed),
            events: EventQueue::new(),
            pool,
            queues: vec![VecDeque::new(); num_queues],
            busy_queues: 0,
            kernels: IdMap::new(),
            streams: IdMap::new(),
            copy_engines: (0..engines)
                .map(|_| CopyEngine {
                    queue: VecDeque::new(),
                    busy_until: None,
                })
                .collect(),
            outputs: GpuRuns::default(),
            rr_sm: 0,
            resident_blocks: 0,
            tracer: Tracer::disabled(),
            rr_queue: 0,
            pending_copies: Vec::new(),
            spare_allocs: Vec::new(),
        }
    }

    /// Enables structured telemetry: hardware-queue, per-SM placement, and
    /// completion events flow into the given sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Takes everything the telemetry sink recorded so far.
    pub fn take_trace_log(&mut self) -> TraceLog {
        self.tracer.take()
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Ground-truth count of currently resident (placed, unfinished) blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.resident_blocks
    }

    /// Ground-truth usage of one SM.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm_usage(&self, sm: u32) -> SmUsage {
        // invariant: the documented panic; no serving path calls this.
        *self.pool.usage(sm as usize).expect("SM out of range")
    }

    /// Number of kernels the device still knows about (queued or running).
    pub fn inflight_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Whether all queues, SMs, and copy engines are idle.
    pub fn is_idle(&self) -> bool {
        self.kernels.is_empty()
            && self
                .copy_engines
                .iter()
                .all(|e| e.busy_until.is_none() && e.queue.is_empty())
    }

    /// Submits a kernel launch at time `now`. Host-side launch overhead must
    /// already be accounted by the caller; the kernel becomes schedulable
    /// after the device's internal `queue_to_scheduler` delay.
    ///
    /// # Panics
    ///
    /// Panics if the launch's `uid` is already in flight.
    pub fn launch_kernel(&mut self, now: SimTime, launch: KernelLaunch) {
        assert!(
            self.kernels.get(u64::from(launch.uid)).is_none(),
            "kernel uid {:?} already in flight",
            launch.uid
        );
        let uid = launch.uid;
        let stream = launch.stream;
        let blocks = launch.desc.grid_blocks;
        assert!(blocks > 0, "kernel must have at least one block");
        let earliest = now
            .saturating_add(self.cfg.queue_to_scheduler)
            .max(self.events.now());
        let s = self.stream_mut(stream);
        s.pending.push_back(StreamOp::Kernel(uid));
        // Same-stream launches reach the hardware queue in issue order even
        // when host-side timestamps interleave across submitting threads.
        let at = earliest.max(s.last_arrival);
        s.last_arrival = at;
        let per_sm_fit = u64::from(blocks_per_sm(&launch.desc.footprint, &self.cfg.sm_limits));
        let wave_quantum = (per_sm_fit * u64::from(self.cfg.num_sms) / 8).max(1);
        self.kernels.insert(
            u64::from(uid),
            KernelState {
                launch,
                unplaced: blocks,
                running: 0,
                in_queue: false,
                finished_blocks: 0,
                waves: 0,
                wave_quantum,
                open_waves: Vec::new(),
            },
        );
        self.events.schedule_at(at, Ev::QueueArrival { uid });
    }

    /// The state of `stream`, created idle if it has no outstanding op.
    fn stream_mut(&mut self, stream: StreamId) -> &mut StreamState {
        self.streams
            .get_or_insert_with(u64::from(stream.0), StreamState::default)
    }

    /// Retires the front op of `stream`, dropping the stream once drained.
    fn pop_stream_front(&mut self, stream: StreamId, op: StreamOp) {
        let id = u64::from(stream.0);
        // invariant: an op is pushed on its stream when enqueued and a
        // stream is dropped only once drained, so a finishing op has one.
        let s = self.streams.get_mut(id).expect("op without its stream");
        debug_assert_eq!(s.pending.front(), Some(&op));
        s.pending.pop_front();
        if s.pending.is_empty() {
            self.streams.remove(id);
        }
    }

    /// Whether `op` is at the front of `stream` (its predecessor finished).
    fn at_stream_front(&self, stream: StreamId, op: StreamOp) -> bool {
        self.streams
            .get(u64::from(stream.0))
            .and_then(|s| s.pending.front())
            .is_some_and(|&front| front == op)
    }

    /// Submits an async memory copy at time `now`.
    pub fn enqueue_memcpy(&mut self, now: SimTime, op: MemcpyOp) {
        self.stream_mut(op.stream)
            .pending
            .push_back(StreamOp::Copy(op.uid));
        // Stash the op so it can start when it reaches the stream front.
        self.pending_copies.push((op, now));
        self.try_start_copies(now);
    }

    /// Earliest pending internal event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Processes all internal events with timestamp ≤ `t` and appends the
    /// host-visible outputs, in emission order (see [`GpuOutput`]), to
    /// `sink`, a run as one [`GpuOutput::Notif`] per word.
    pub fn advance_until(&mut self, t: SimTime, sink: &mut Vec<GpuOutput>) {
        self.run_until(t);
        for (out, words) in self.outputs.iter() {
            match out {
                GpuRunOutput::KernelCompleted(uid, at) => {
                    sink.push(GpuOutput::KernelCompleted { uid, at });
                }
                GpuRunOutput::MemcpyCompleted(uid, at) => {
                    sink.push(GpuOutput::MemcpyCompleted { uid, at });
                }
                GpuRunOutput::Notifs {
                    kernel, kind, at, ..
                } => sink.extend(words.iter().map(|&(sm_id, group)| {
                    let n = Notification {
                        kind,
                        sm_id,
                        group,
                        kernel,
                    };
                    GpuOutput::Notif { n, at }
                })),
            }
        }
        self.outputs.clear();
    }

    /// [`advance_until`](Self::advance_until) with runs kept whole. The
    /// outputs replace what `sink` held: host and device swap two buffers.
    pub fn advance_until_runs(&mut self, t: SimTime, sink: &mut GpuRuns) {
        self.run_until(t);
        sink.clear();
        std::mem::swap(sink, &mut self.outputs);
    }

    fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.events.peek_time() {
            if next > t {
                break;
            }
            // invariant: `peek_time` just returned this event's time.
            let (at, ev) = self.events.pop().expect("peeked event");
            self.handle(at, ev);
        }
    }

    fn handle(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::QueueArrival { uid } => {
                // invariant: `launch` inserts the record before scheduling
                // the arrival, and only completion removes it.
                let k = self
                    .kernels
                    .get_mut(u64::from(uid))
                    .expect("arrival for unknown kernel");
                k.in_queue = true;
                let stream = k.launch.stream.0;
                let q = self.cfg.queue_for_stream(stream) as usize;
                self.queues[q].push_back(uid);
                self.busy_queues |= 1 << q;
                self.tracer.record_with(at, || TraceEvent::KernelQueued {
                    kernel: u64::from(uid),
                    stream,
                    hw_queue: q as u32,
                });
                self.schedule_blocks(at);
            }
            Ev::GroupFinish {
                uid,
                wave,
                mut allocs,
            } => {
                self.on_group_finish(at, uid, wave, &allocs);
                allocs.clear();
                self.spare_allocs.push(allocs);
            }
            Ev::CopyFinish { uid, engine } => {
                self.on_copy_finish(at, uid, engine);
            }
        }
    }

    /// The hardware block scheduler: one pass over the queue heads, placing
    /// whatever fits, strictly FIFO within each queue. A single pass is
    /// complete because placements only *consume* resources — a queue head
    /// becomes eligible through completions or arrivals, both of which call
    /// back into this scheduler.
    fn schedule_blocks(&mut self, now: SimTime) {
        // Round-robin from the cursor over the queues that hold a kernel:
        // those at or past it, then those before it. Nothing enters a queue
        // during the pass.
        let before_cursor = (1u64 << self.rr_queue) - 1;
        for mut round in [
            self.busy_queues & !before_cursor,
            self.busy_queues & before_cursor,
        ] {
            while round != 0 {
                let qi = round.trailing_zeros() as usize;
                round &= round - 1;
                self.schedule_queue(now, qi);
            }
        }
        self.rr_queue = wrapping_succ(self.rr_queue, self.queues.len());
    }

    /// Places from the head of hardware queue `qi` until a head stalls, does
    /// not fit whole, or the queue empties.
    fn schedule_queue(&mut self, now: SimTime, qi: usize) {
        while let Some(&head) = self.queues[qi].front() {
            if !self.stream_ready(head) {
                // HoL blocking: an ineligible head stalls this queue.
                self.tracer.record_with(now, || TraceEvent::HwQueueStall {
                    hw_queue: qi as u32,
                    kernel: u64::from(head),
                });
                return;
            }
            self.place_head_blocks(now, head);
            if self.kernel(head).unplaced > 0 {
                // Strict FIFO: cannot look past a partially placed head.
                return;
            }
            // Fully placed: the kernel leaves the hardware queue; the next
            // kernel in this queue may now be considered.
            self.queues[qi].pop_front();
        }
        self.busy_queues &= !(1 << qi);
    }

    /// Whether `uid` is at the front of its stream (its predecessor finished).
    fn stream_ready(&self, uid: KernelUid) -> bool {
        self.at_stream_front(self.kernel(uid).launch.stream, StreamOp::Kernel(uid))
    }

    /// The in-flight kernel `uid`.
    fn kernel(&self, uid: KernelUid) -> &KernelState {
        // invariant: callers take `uid` from a hardware queue or a pending
        // event, and a kernel leaves both before its record is removed.
        self.kernels
            .get(u64::from(uid))
            .expect("kernel not in flight")
    }

    /// Places as many blocks of `uid` as fit right now, as one *wave*: a
    /// single pass over the SMs allocating per-SM groups, scheduled as one
    /// finish event. This keeps the event count per kernel at O(waves)
    /// instead of O(per-SM groups) without changing resource accounting.
    fn place_head_blocks(&mut self, now: SimTime, uid: KernelUid) {
        let (mut unplaced, fp, instr, wave_quantum) = {
            let k = self.kernel(uid);
            (
                k.unplaced,
                k.launch.desc.footprint,
                k.launch.desc.instrumentation,
                k.wave_quantum,
            )
        };
        if unplaced == 0 {
            return;
        }
        // Cheap aggregate bound: if even the device-wide free resources
        // cannot host a worthwhile wave, skip the per-SM scan entirely (the
        // common case on a saturated device). Waves are quantized to 1/8 of
        // a device fill so a large kernel back-fills in a handful of events
        // instead of block-by-block; the resulting timing shift is bounded
        // by one wave's drain time, far below the latencies measured.
        if !self
            .pool
            .room_for(&fp, u64::from(unplaced).min(wave_quantum))
        {
            return;
        }
        // Round-robin wave over the SMs.
        let num_sms = self.pool.num_sms();
        let mut allocs = self.spare_allocs.pop().unwrap_or_default();
        let mut smi = self.rr_sm;
        for _ in 0..num_sms {
            if unplaced == 0 {
                break;
            }
            let fit = self.pool.fit(smi, &fp);
            if fit > 0 {
                let group = fit.min(unplaced);
                self.pool.allocate_on(smi, &fp, group);
                unplaced -= group; // sub: `group ≤ unplaced` by the `min` above
                allocs.push((smi as u32, group));
            }
            smi = wrapping_succ(smi, num_sms);
        }
        if allocs.is_empty() {
            self.spare_allocs.push(allocs);
            return;
        }
        self.rr_sm = wrapping_succ(self.rr_sm, num_sms);
        let placed: u32 = allocs.iter().map(|&(_, g)| g).sum();
        self.pool.settle_allocated(&fp, u64::from(placed));
        self.resident_blocks += u64::from(placed);

        // Sample one duration for the wave and add instrumentation overhead.
        let mut dur = {
            // invariant: `self.kernel(uid)` resolved at the top of this fn.
            let k = self
                .kernels
                .get(u64::from(uid))
                .expect("placing unknown kernel");
            k.launch.desc.duration.sample(&mut self.rng)
        };
        if let Some(spec) = instr {
            // The notification epilogue serializes blocks on the queue-tail
            // atomic and the start/end counters. In short waves every block
            // hits the atomics nearly simultaneously and the serialization
            // lands on the critical path in full — the Fig. 15 regime of
            // (near-)empty kernels. In longer waves the block starts/ends
            // spread out, the atomic queue stays drained, and only a small
            // residue reaches the critical path.
            let oh = spec.kernel_overhead(placed);
            dur += if dur <= SimDuration::from_micros(15) {
                oh
            } else {
                oh / 8
            };
        }

        let wave = {
            // invariant: `self.kernel(uid)` resolved at the top of this fn.
            let k = self
                .kernels
                .get_mut(u64::from(uid))
                .expect("placing unknown kernel");
            debug_assert!(
                k.unplaced >= placed,
                "kernel unplaced underflow: wave placed more than remained"
            );
            k.unplaced -= placed;
            k.running += placed;
            let wave = k.waves;
            k.waves += 1;
            if self.tracer.is_enabled() {
                let span = k.wave_span(wave, &allocs);
                k.open_waves.push(span.clone());
                self.tracer
                    .record_with(now, || TraceEvent::SmWaveBegin(span));
            }
            wave
        };

        // Placement notifications, attributed to the SM each group landed
        // on.
        if let Some(spec) = instr {
            self.emit_notif_run(now, uid, &allocs, spec.aggregation, NotifKind::Placement);
        }

        self.events
            .schedule_at(now + dur, Ev::GroupFinish { uid, wave, allocs });
    }

    /// Emits a wave's start or end notifications as one run, group by group.
    /// Aggregation batches a group's blocks into one word (groups are ≤
    /// blocks-per-SM ≈ the paper's aggregation factor of 16); without it,
    /// one word per block (Fig. 6 semantics applied per group).
    fn emit_notif_run(
        &mut self,
        now: SimTime,
        kernel: KernelUid,
        allocs: &[(u32, u32)],
        aggregation: u32,
        kind: NotifKind,
    ) {
        let first = self.outputs.words.len();
        for &(sm, blocks) in allocs {
            let word_size = if aggregation <= 1 {
                1
            } else {
                blocks.min(u16::MAX as u32)
            };
            let mut remaining = blocks;
            while remaining > 0 {
                let g = remaining.min(word_size).max(1) as u16;
                // sub: `1 ≤ g ≤ remaining`, the loop tests `> 0`.
                remaining -= u32::from(g);
                // Fault injection: a dropped word models a notifQ overrun.
                if self.cfg.notif_drop_rate > 0.0 && self.rng.chance(self.cfg.notif_drop_rate) {
                    continue;
                }
                self.outputs.words.push(((sm % 256) as u8, g));
            }
        }
        let len = (self.outputs.words.len() - first) as u32;
        if len > 0 {
            let at = now + self.cfg.notif_visibility;
            self.outputs.outputs.push(GpuRunOutput::Notifs {
                kernel,
                kind,
                at,
                len,
            });
        }
    }

    fn on_group_finish(&mut self, at: SimTime, uid: KernelUid, wave: u32, allocs: &[(u32, u32)]) {
        let (fp, instr) = {
            let k = self.kernel(uid);
            (k.launch.desc.footprint, k.launch.desc.instrumentation)
        };
        let blocks: u32 = allocs.iter().map(|&(_, g)| g).sum();
        for &(sm, group) in allocs {
            self.pool.release_on(sm as usize, &fp, group);
        }
        self.pool.settle_released(&fp, u64::from(blocks));
        debug_assert!(
            self.resident_blocks >= u64::from(blocks),
            "resident_blocks underflow: finishing blocks that never placed"
        );
        self.resident_blocks -= u64::from(blocks);

        let kernel_done = {
            // invariant: a wave's finish event is scheduled at placement and
            // the record is removed only after the last wave finished.
            let k = self
                .kernels
                .get_mut(u64::from(uid))
                .expect("finish for unknown kernel");
            debug_assert!(
                k.running >= blocks,
                "kernel running underflow: more blocks finished than ran"
            );
            k.running -= blocks;
            k.finished_blocks += blocks;
            if self.tracer.is_enabled() {
                let span = match k.open_waves.iter().position(|w| w.wave == wave) {
                    Some(open) => k.open_waves.swap_remove(open),
                    // Telemetry came on with the wave already running.
                    None => k.wave_span(wave, allocs),
                };
                self.tracer.record_with(at, || TraceEvent::SmWaveEnd(span));
            }
            k.finished_blocks == k.launch.desc.grid_blocks && k.running == 0 && k.unplaced == 0
        };

        if let Some(spec) = instr {
            self.emit_notif_run(at, uid, allocs, spec.aggregation, NotifKind::Completion);
        }
        if kernel_done {
            self.complete_kernel(at, uid);
        }
        // Freed resources: let the block scheduler try again.
        self.schedule_blocks(at);
    }

    fn complete_kernel(&mut self, at: SimTime, uid: KernelUid) {
        // invariant: called once per kernel, from the wave-finish that saw
        // its last block, on the record it had just borrowed.
        let k = self
            .kernels
            .remove(u64::from(uid))
            .expect("completing unknown kernel");
        debug_assert!(k.in_queue, "kernel completed before reaching its queue");
        self.pop_stream_front(k.launch.stream, StreamOp::Kernel(uid));
        self.tracer.record_with(at, || TraceEvent::KernelCompleted {
            kernel: u64::from(uid),
        });
        self.outputs
            .outputs
            .push(GpuRunOutput::KernelCompleted(uid, at));
        // The stream's next op may now start.
        self.try_start_copies(at);
        self.schedule_blocks(at);
    }

    // ---- memcpy machinery ----

    fn try_start_copies(&mut self, now: SimTime) {
        // Move stream-ready pending copies onto their engines.
        let mut i = 0;
        while i < self.pending_copies.len() {
            let (op, _submitted) = self.pending_copies[i];
            if self.at_stream_front(op.stream, StreamOp::Copy(op.uid)) {
                self.pending_copies.remove(i);
                let engine = self.engine_for(op.dir);
                self.copy_engines[engine as usize]
                    .queue
                    .push_back((op.uid, op.stream, op.bytes));
                self.pump_engine(now, engine);
            } else {
                i += 1;
            }
        }
    }

    fn engine_for(&self, dir: CopyDir) -> u32 {
        if self.copy_engines.len() >= 2 {
            match dir {
                CopyDir::HostToDevice => 0,
                CopyDir::DeviceToHost => 1,
            }
        } else {
            0
        }
    }

    fn pump_engine(&mut self, now: SimTime, engine: u32) {
        let e = &mut self.copy_engines[engine as usize];
        if e.busy_until.is_some() {
            return;
        }
        let Some(&(uid, _, bytes)) = e.queue.front() else {
            return;
        };
        let dur = self.cfg.copy_time(bytes).max(SimDuration::from_nanos(1));
        let done = now + dur;
        e.busy_until = Some(done);
        self.events
            .schedule_at(done, Ev::CopyFinish { uid, engine });
    }

    fn on_copy_finish(&mut self, at: SimTime, uid: MemcpyUid, engine: u32) {
        let e = &mut self.copy_engines[engine as usize];
        // invariant: a copy-finish event is scheduled only for the op at
        // the front of this engine's queue, which stays there until now.
        let (front, stream, _) = e
            .queue
            .pop_front()
            .expect("engine finished with empty queue");
        debug_assert_eq!(front, uid);
        e.busy_until = None;
        self.pop_stream_front(stream, StreamOp::Copy(uid));
        self.outputs
            .outputs
            .push(GpuRunOutput::MemcpyCompleted(uid, at));
        self.pump_engine(at, engine);
        self.try_start_copies(at);
        self.schedule_blocks(at);
    }
}

/// `i + 1` on a ring of `n`: round-robin cursors wrap by comparison.
fn wrapping_succ(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Microarch;
    use crate::kernel::{DurationModel, InstrumentationSpec, KernelDesc};
    use crate::resources::BlockFootprint;

    fn kernel(name: &str, blocks: u32, threads: u32, dur_us: u64) -> KernelDesc {
        KernelDesc {
            name: name.to_string().into(),
            grid_blocks: blocks,
            footprint: BlockFootprint {
                threads,
                regs_per_thread: 9,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(dur_us)),
            instrumentation: None,
        }
    }

    fn drain_all(gpu: &mut GpuSim) -> Vec<GpuOutput> {
        let mut out = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut out);
        }
        out
    }

    fn completion_time(out: &[GpuOutput], uid: KernelUid) -> SimTime {
        out.iter()
            .find_map(|o| match o {
                GpuOutput::KernelCompleted { uid: u, at } if *u == uid => Some(*at),
                _ => None,
            })
            .expect("kernel completed")
    }

    #[test]
    fn single_kernel_runs_and_completes() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("k", 40, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 1);
        // 40 blocks over 40 SMs: one wave of 100 µs plus queue delay.
        assert_eq!(
            t,
            SimTime::ZERO + gpu.config().queue_to_scheduler + SimDuration::from_micros(100)
        );
        assert!(gpu.is_idle());
        assert_eq!(gpu.resident_blocks(), 0);
    }

    #[test]
    fn stream_serializes_kernels() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        for uid in 1..=3 {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(1),
                    desc: kernel("k", 1, 128, 100),
                },
            );
        }
        let out = drain_all(&mut gpu);
        let t1 = completion_time(&out, 1);
        let t2 = completion_time(&out, 2);
        let t3 = completion_time(&out, 3);
        assert!(t2 >= t1 + SimDuration::from_micros(100));
        assert!(t3 >= t2 + SimDuration::from_micros(100));
    }

    #[test]
    fn independent_streams_run_concurrently() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        for uid in 1..=4u32 {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(uid),
                    desc: kernel("k", 1, 128, 100),
                },
            );
        }
        let out = drain_all(&mut gpu);
        let last = (1..=4).map(|u| completion_time(&out, u)).max().unwrap();
        // All four fit simultaneously; total ≈ one kernel duration.
        assert!(last < SimTime::from_micros(110), "last = {last}");
    }

    #[test]
    fn hol_blocking_in_shared_queue() {
        // Two streams mapped to the same hardware queue (1-queue device):
        // the second stream's kernel waits even though SMs are idle.
        let cfg = DeviceConfig::tiny(4, 1, Microarch::Fermi);
        let mut gpu = GpuSim::new(cfg, 1);
        // Stream 1: two dependent kernels (the second blocks the queue head).
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("a1", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("a2", 1, 1024, 100),
            },
        );
        // Stream 2: independent kernel, issued after, same queue.
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 3,
                stream: StreamId(2),
                desc: kernel("b1", 1, 1024, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t3 = completion_time(&out, 3);
        // b1 is stuck behind a2, which waits for a1: it completes only in the
        // second "round" despite 3 idle SMs.
        assert!(
            t3 >= SimTime::from_micros(200),
            "t3 = {t3} (no HoL blocking?)"
        );
    }

    #[test]
    fn multi_queue_avoids_false_dependency() {
        // Same workload, 32-queue device: b1 runs immediately.
        let cfg = DeviceConfig::tiny(4, 32, Microarch::KeplerPlus);
        let mut gpu = GpuSim::new(cfg, 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("a1", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("a2", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 3,
                stream: StreamId(2),
                desc: kernel("b1", 1, 1024, 100),
            },
        );
        let out = drain_all(&mut gpu);
        assert!(completion_time(&out, 3) <= SimTime::from_micros(101));
    }

    #[test]
    fn resource_waves_when_oversubscribed() {
        // 88 blocks of 128 threads on a 22-SM Turing part: 8 blocks/SM → 176
        // capacity, so all 88 run in one wave; 352 blocks need two waves.
        let cfg = DeviceConfig::gtx_1660_super();
        let mut gpu = GpuSim::new(cfg, 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("one-wave", 176, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 1);
        assert!(t <= SimTime::from_micros(101), "one wave expected, t = {t}");

        let mut gpu = GpuSim::new(DeviceConfig::gtx_1660_super(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("two-waves", 352, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 2);
        assert!(
            t >= SimTime::from_micros(200),
            "two waves expected, t = {t}"
        );
        assert!(t <= SimTime::from_micros(201));
    }

    #[test]
    fn instrumented_kernel_emits_paired_notifications() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let desc = kernel("instr", 33, 128, 50).instrumented(InstrumentationSpec::default());
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 9,
                stream: StreamId(1),
                desc,
            },
        );
        let out = drain_all(&mut gpu);
        let mut started = 0u32;
        let mut finished = 0u32;
        for o in &out {
            if let GpuOutput::Notif { n, .. } = o {
                assert_eq!(n.kernel, 9);
                match n.kind {
                    NotifKind::Placement => started += u32::from(n.group),
                    NotifKind::Completion => finished += u32::from(n.group),
                }
            }
        }
        assert_eq!(
            started, 33,
            "placement notifications must cover every block"
        );
        assert_eq!(
            finished, 33,
            "completion notifications must cover every block"
        );
    }

    #[test]
    fn uninstrumented_kernel_emits_no_notifications() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 9,
                stream: StreamId(1),
                desc: kernel("plain", 16, 128, 50),
            },
        );
        let out = drain_all(&mut gpu);
        assert!(!out.iter().any(|o| matches!(o, GpuOutput::Notif { .. })));
    }

    #[test]
    fn instrumentation_overhead_slows_completion() {
        let run = |instr: Option<InstrumentationSpec>| {
            let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
            let mut desc = kernel("k", 160, 32, 10);
            desc.instrumentation = instr;
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid: 1,
                    stream: StreamId(1),
                    desc,
                },
            );
            let out = drain_all(&mut gpu);
            completion_time(&out, 1)
        };
        let plain = run(None);
        let noagg = run(Some(InstrumentationSpec::without_aggregation()));
        let agg = run(Some(InstrumentationSpec::default()));
        assert!(noagg > plain);
        assert!(agg > noagg, "aggregation conditional costs device time");
    }

    #[test]
    fn memcpy_respects_stream_order() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let s = StreamId(1);
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(1),
                stream: s,
                bytes: 1 << 20,
                dir: CopyDir::HostToDevice,
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: s,
                desc: kernel("k", 1, 128, 100),
            },
        );
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(2),
                stream: s,
                bytes: 1 << 20,
                dir: CopyDir::DeviceToHost,
            },
        );
        let out = drain_all(&mut gpu);
        let t_in = out
            .iter()
            .find_map(|o| match o {
                GpuOutput::MemcpyCompleted {
                    uid: MemcpyUid(1),
                    at,
                } => Some(*at),
                _ => None,
            })
            .unwrap();
        let t_k = completion_time(&out, 1);
        let t_out = out
            .iter()
            .find_map(|o| match o {
                GpuOutput::MemcpyCompleted {
                    uid: MemcpyUid(2),
                    at,
                } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(t_in < t_k, "H2D before kernel");
        assert!(t_k < t_out, "kernel before D2H");
        assert!(gpu.is_idle());
    }

    #[test]
    fn copies_on_different_streams_overlap_on_two_engines() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let mb = 1 << 20;
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(1),
                stream: StreamId(1),
                bytes: mb,
                dir: CopyDir::HostToDevice,
            },
        );
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(2),
                stream: StreamId(2),
                bytes: mb,
                dir: CopyDir::DeviceToHost,
            },
        );
        let out = drain_all(&mut gpu);
        let times: Vec<SimTime> = out
            .iter()
            .filter_map(|o| match o {
                GpuOutput::MemcpyCompleted { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(times.len(), 2);
        // Both directions overlap: completion times are equal, not stacked.
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn tracer_records_block_groups() {
        let mut gpu = GpuSim::new(DeviceConfig::tiny(2, 2, Microarch::KeplerPlus), 1);
        gpu.set_tracer(Tracer::enabled());
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("t", 2, 1024, 100),
            },
        );
        drain_all(&mut gpu);
        let spans = paella_telemetry::export::sm_spans(&gpu.take_trace_log());
        assert_eq!(spans.len(), 2, "two single-block groups on two SMs");
        let sms: Vec<u32> = spans.iter().map(|s| s.sm).collect();
        assert!(sms.contains(&0) && sms.contains(&1));
        for s in &spans {
            assert_eq!((s.end - s.start).as_micros_f64(), 100.0);
            assert_eq!((s.name.as_str(), s.blocks), ("t", 1));
        }
    }

    #[test]
    fn a_wave_shares_one_record_unless_telemetry_came_on_under_it() {
        let launch = |gpu: &mut GpuSim| {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid: 1,
                    stream: StreamId(1),
                    desc: kernel("t", 2, 1024, 100),
                },
            );
        };
        let waves = |log: TraceLog| -> Vec<(&'static str, Arc<SmWave>)> {
            (log.events.into_iter())
                .filter_map(|e| match e.event {
                    TraceEvent::SmWaveBegin(w) => Some(("begin", w)),
                    TraceEvent::SmWaveEnd(w) => Some(("end", w)),
                    _ => None,
                })
                .collect()
        };
        let mut gpu = GpuSim::new(DeviceConfig::tiny(2, 2, Microarch::KeplerPlus), 1);
        gpu.set_tracer(Tracer::enabled());
        launch(&mut gpu);
        drain_all(&mut gpu);
        let whole = waves(gpu.take_trace_log());
        assert_eq!((whole[0].0, whole[1].0, whole.len()), ("begin", "end", 2));
        assert!(Arc::ptr_eq(&whole[0].1, &whole[1].1));

        // Switched on mid-wave, the end carries a record of its own.
        let mut gpu = GpuSim::new(DeviceConfig::tiny(2, 2, Microarch::KeplerPlus), 1);
        launch(&mut gpu);
        let mut out = Vec::new();
        gpu.advance_until(SimTime::from_micros(50), &mut out);
        assert_eq!(gpu.resident_blocks(), 2, "the wave is running");
        gpu.set_tracer(Tracer::enabled());
        drain_all(&mut gpu);
        let log = gpu.take_trace_log();
        assert!(paella_telemetry::export::sm_spans(&log).is_empty());
        let late = waves(log);
        assert_eq!((late[0].0, late.len()), ("end", 1));
        assert_eq!(late[0].1, whole[1].1);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_uid_panics() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let l = KernelLaunch {
            uid: 1,
            stream: StreamId(1),
            desc: kernel("k", 1, 128, 1),
        };
        gpu.launch_kernel(SimTime::ZERO, l.clone());
        gpu.launch_kernel(SimTime::ZERO, l);
    }

    #[test]
    fn fresh_stream_per_job_leaves_no_stream_state_behind() {
        // StreamPolicy::PerJobUnbounded (CUDA-MS, -jbj, -kbk) mints a new
        // stream id per job; nothing per stream may outlive its last op.
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let mut out = Vec::new();
        for job in 1..=10_000u32 {
            let at = SimTime::from_micros(u64::from(job) * 5);
            gpu.launch_kernel(
                at,
                KernelLaunch {
                    uid: job,
                    stream: StreamId(job),
                    desc: kernel("k", 1, 128, 20),
                },
            );
            gpu.advance_until(at, &mut out);
            assert!(gpu.streams.len() <= 8, "only the live streams are held");
        }
        out.extend(drain_all(&mut gpu));
        assert_eq!(out.len(), 10_000, "every kernel completed");
        assert!(gpu.is_idle());
        assert!(gpu.streams.is_empty(), "drained streams are forgotten");
    }

    #[test]
    fn fig2_utilization_bound_job_by_job() {
        // The §2.1 experiment: 32 hardware queues full of 8-deep dependent
        // chains use at most 32 of 176 block slots → ~18 % utilization.
        let cfg = DeviceConfig::gtx_1660_super();
        let mut gpu = GpuSim::new(cfg, 7);
        // 64 jobs, each 8 kernels of 1 block × 128 threads, distinct streams.
        let mut uid = 0u32;
        for job in 0..64u32 {
            for _k in 0..8 {
                uid += 1;
                gpu.launch_kernel(
                    SimTime::ZERO,
                    KernelLaunch {
                        uid,
                        stream: StreamId(job + 1),
                        desc: kernel("syn", 1, 128, 300),
                    },
                );
            }
        }
        // After the initial placement settles, at most one kernel per
        // hardware queue can be resident (each stream's next kernel depends
        // on its predecessor; streams ≥ queues share queues).
        let mut out = Vec::new();
        gpu.advance_until(SimTime::from_micros(10), &mut out);
        assert!(
            gpu.resident_blocks() <= 32,
            "at most one block per hardware queue, got {}",
            gpu.resident_blocks()
        );
        assert!(gpu.resident_blocks() >= 30, "queues should all be busy");
    }
}
