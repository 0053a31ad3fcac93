//! Multi-Instance GPU (MIG) support — the §8 discussion item.
//!
//! MIG slices a GPU's SMs into strongly isolated partitions. For *known,
//! static* partitions the paper notes Paella's techniques apply directly:
//! each partition gets its own dispatcher over its own slice of SMs and
//! hardware queues. [`MigServing`] implements that topology: a set of
//! per-partition [`Dispatcher`]s behind one [`ServingSystem`] facade, with
//! models pinned to partitions at registration time. Each partition keeps
//! its models in the same per-node table as a cluster node.

use paella_channels::ChannelConfig;
use paella_compiler::CompiledModel;
use paella_core::dispatcher::{Dispatcher, DispatcherConfig};
use paella_core::sched::{Scheduler, SrptDeficitScheduler};
use paella_core::serve::{earliest, EngineCore, ServingSystem};
use paella_core::types::{InferenceRequest, JobCompletion, JobFailure, LoadSignal, ModelId};
use paella_gpu::DeviceConfig;
use paella_sim::SimTime;
use paella_telemetry::{MetricsSnapshot, TraceLog};

use crate::host::Host;

/// Splits a device into MIG-style partitions with `slices[i]` SMs each.
/// Hardware queues are apportioned to partitions proportionally to their SM
/// share by largest-remainder (Hamilton) division, so the partition queues
/// always sum to exactly the device's queue count — a naive per-slice
/// `(queues * sms / total_sms).max(1)` can hand out more queues than the
/// hardware has when many small slices each round up to one.
///
/// # Panics
///
/// Panics if `slices` is empty, contains a zero, oversubscribes the SMs, or
/// has more partitions than the device has hardware queues (each partition
/// needs at least one).
pub fn partition_device(device: &DeviceConfig, slices: &[u32]) -> Vec<DeviceConfig> {
    assert!(!slices.is_empty(), "at least one partition");
    assert!(slices.iter().all(|&s| s > 0), "empty partition");
    let total: u32 = slices.iter().sum();
    assert!(
        total <= device.num_sms,
        "partitions ({total} SMs) exceed the device ({} SMs)",
        device.num_sms
    );
    assert!(
        slices.len() as u32 <= device.num_hw_queues,
        "more partitions ({}) than hardware queues ({})",
        slices.len(),
        device.num_hw_queues
    );
    let queues = apportion_queues(device.num_hw_queues, slices);
    slices
        .iter()
        .zip(queues)
        .map(|(&sms, q)| {
            let mut d = device.clone();
            d.num_sms = sms;
            d.num_hw_queues = q;
            d
        })
        .collect()
}

/// Largest-remainder apportionment of `total_queues` proportional to the SM
/// counts in `slices`: integer floors first, the leftover queues go to the
/// largest fractional remainders (ties to the lower index), then a ≥ 1 floor
/// is enforced by taking queues from the best-endowed partitions. The result
/// always sums to exactly `total_queues`.
fn apportion_queues(total_queues: u32, slices: &[u32]) -> Vec<u32> {
    let sm_total: u64 = slices.iter().map(|&s| u64::from(s)).sum();
    let mut out: Vec<u32> = Vec::with_capacity(slices.len());
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(slices.len());
    for (i, &sms) in slices.iter().enumerate() {
        let num = u64::from(total_queues) * u64::from(sms);
        out.push((num / sm_total) as u32);
        remainders.push((num % sm_total, i));
    }
    let assigned: u32 = out.iter().sum();
    // Exactly (sum of remainders) / sm_total queues are still unassigned,
    // which is < slices.len(), so one pass over the sorted remainders
    // places them all.
    let mut left = total_queues - assigned;
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders {
        if left == 0 {
            break;
        }
        out[i] += 1;
        left -= 1; // sub: the loop breaks at `left == 0` just above
    }
    // Every partition needs a queue to make progress; the caller guarantees
    // slices.len() <= total_queues, so stealing from the richest partition
    // (lowest index on ties) terminates with all entries ≥ 1.
    for i in 0..out.len() {
        while out[i] == 0 {
            let donor = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(j, _)| j)
                // invariant: `out[i]` was just read, so `out` has an entry.
                .expect("non-empty slices");
            // sub: entries sum to `total_queues ≥ out.len()` and one is 0,
            // so the maximum is ≥ 2.
            out[donor] -= 1;
            out[i] += 1;
        }
    }
    out
}

/// A Paella deployment over static MIG partitions.
pub struct MigServing {
    partitions: Vec<Host>,
    /// The partition each public model id is pinned to.
    homes: Vec<usize>,
    /// Round-robin cursor for model registration.
    next_partition: usize,
    /// The facade's outboxes (results carry public model ids) and its own
    /// registry: what it returned, per tenant and failure reason.
    core: EngineCore,
}

impl MigServing {
    /// Creates one Paella dispatcher per partition. `make_scheduler` builds
    /// each partition's policy (they are independent).
    pub fn new(
        device: &DeviceConfig,
        slices: &[u32],
        cfg: DispatcherConfig,
        mut make_scheduler: impl FnMut() -> Box<dyn Scheduler>,
        seed: u64,
    ) -> Self {
        let partitions = partition_device(device, slices)
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Host::new(Dispatcher::new(
                    d,
                    ChannelConfig::default(),
                    make_scheduler(),
                    cfg,
                    seed.wrapping_add(i as u64),
                ))
            })
            .collect();
        MigServing {
            partitions,
            homes: Vec::new(),
            next_partition: 0,
            core: EngineCore::default(),
        }
    }

    /// Convenience: SRPT + deficit partitions with the default config.
    pub fn paella(device: &DeviceConfig, slices: &[u32], seed: u64) -> Self {
        MigServing::new(
            device,
            slices,
            DispatcherConfig::paella(),
            || Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            seed,
        )
    }

    /// Registers `model` on a specific partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn register_model_on(&mut self, partition: usize, model: &CompiledModel) -> ModelId {
        let public = ModelId(self.homes.len() as u32);
        self.partitions[partition].register(public, model);
        self.homes.push(partition);
        public
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Moves every partition's results to the facade's outboxes,
    /// translating partition-local model ids back to public ones.
    fn collect(&mut self) {
        for host in &mut self.partitions {
            for mut c in host.dispatcher.drain_completions() {
                c.request.model = host.public(c.request.model);
                self.core.inc("jobs_completed", 1);
                self.core.forward(c);
            }
            for mut f in host.dispatcher.drain_failures() {
                f.request.model = host.public(f.request.model);
                self.core.fail(f.request, f.reason, f.at);
            }
        }
    }
}

impl ServingSystem for MigServing {
    /// Registers a model, assigning partitions round-robin. Use
    /// [`register_model_on`](MigServing::register_model_on) for explicit
    /// placement.
    fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        let p = self.next_partition;
        self.next_partition = (self.next_partition + 1) % self.partitions.len();
        self.register_model_on(p, model)
    }

    fn submit(&mut self, req: InferenceRequest) {
        let host = &mut self.partitions[self.homes[req.model.0 as usize]];
        // invariant: register_model_on put every public id on its home.
        let local = host.local(req.model).expect("model hosted on its home");
        host.dispatcher.submit(InferenceRequest {
            model: local,
            ..req
        });
        // A refusal (shed, disconnected client) fails on the spot.
        self.collect();
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.partitions
            .iter_mut()
            .map(|h| h.dispatcher.next_event_time())
            .fold(None, earliest)
    }

    /// Partitions share nothing, so each advances on its own, in index
    /// order.
    fn advance_until(&mut self, t: SimTime) {
        for h in &mut self.partitions {
            h.dispatcher.advance_until(t);
        }
        self.collect();
    }

    fn drain_completions(&mut self) -> Vec<JobCompletion> {
        self.core.take_completions()
    }

    fn drain_failures(&mut self) -> Vec<JobFailure> {
        self.core.take_failures()
    }

    fn name(&self) -> String {
        format!("paella-mig[{}]", self.partitions.len())
    }

    fn enable_telemetry(&mut self) {
        self.core.enable_telemetry();
        for h in &mut self.partitions {
            h.dispatcher.enable_telemetry();
        }
    }

    /// Every partition's host + device trace, concatenated in partition order.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        let logs: Vec<TraceLog> = self
            .partitions
            .iter_mut()
            .filter_map(|h| h.dispatcher.take_trace_log())
            .collect();
        (!logs.is_empty()).then(|| TraceLog::concat(logs))
    }

    /// The facade-level registry: completions returned and the failure
    /// ledger. Per-partition scheduling counters stay with the partitions.
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.core.metrics_snapshot()
    }

    fn take_postmortems(&mut self) -> Vec<String> {
        self.partitions
            .iter_mut()
            .flat_map(|h| h.dispatcher.take_postmortems())
            .collect()
    }

    fn load_signal(&self) -> LoadSignal {
        self.partitions
            .iter()
            .fold(LoadSignal::default(), |s, h| s + h.dispatcher.load_signal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_core::types::ClientId;
    use paella_gpu::{BlockFootprint, DurationModel, KernelDesc};
    use paella_sim::SimDuration;

    fn toy_model(name: &str, kernels: u32, us: u64) -> CompiledModel {
        let kernel = KernelDesc {
            name: format!("{name}_op").into(),
            grid_blocks: 32,
            footprint: BlockFootprint {
                threads: 128,
                regs_per_thread: 16,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(us)),
            instrumentation: None,
        };
        CompiledModel {
            name: name.to_string().into(),
            ops: std::iter::once(paella_compiler::DeviceOp::InputCopy { bytes: 64 })
                .chain((0..kernels).map(|_| paella_compiler::DeviceOp::Kernel(kernel.clone())))
                .chain(std::iter::once(paella_compiler::DeviceOp::OutputCopy {
                    bytes: 64,
                }))
                .collect(),
            schedule: None,
            input_bytes: 64,
            output_bytes: 64,
            weight_bytes: 0,
            flops: 0,
        }
    }

    #[test]
    fn partition_device_splits_proportionally() {
        let t4 = DeviceConfig::tesla_t4();
        let parts = partition_device(&t4, &[20, 10, 10]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].num_sms, 20);
        assert_eq!(parts[0].num_hw_queues, 16);
        assert_eq!(parts[1].num_sms, 10);
        assert_eq!(parts[1].num_hw_queues, 8);
    }

    #[test]
    #[should_panic(expected = "exceed the device")]
    fn oversubscription_rejected() {
        partition_device(&DeviceConfig::tesla_t4(), &[30, 20]);
    }

    #[test]
    fn queue_apportionment_conserves_the_total() {
        // Many small slices used to round up to one queue each and
        // oversubscribe the hardware: on a T4 (40 SMs, 32 queues),
        // [1,1,1,1,1,35] summed to 33 queues under the old rule.
        let t4 = DeviceConfig::tesla_t4();
        let parts = partition_device(&t4, &[1, 1, 1, 1, 1, 35]);
        let sum: u32 = parts.iter().map(|p| p.num_hw_queues).sum();
        assert_eq!(sum, t4.num_hw_queues, "queues must conserve the total");
        assert!(
            parts.iter().all(|p| p.num_hw_queues >= 1),
            "every partition needs a queue"
        );
        // The big slice keeps the lion's share.
        assert!(parts[5].num_hw_queues >= 26, "{:?}", parts[5].num_hw_queues);
        // Exhaustive: any legal split conserves the total exactly.
        for slices in [
            vec![40],
            vec![20, 20],
            vec![13, 13, 13],
            vec![2, 3, 5, 7, 11],
            vec![1; 32],
        ] {
            let parts = partition_device(&t4, &slices);
            let sum: u32 = parts.iter().map(|p| p.num_hw_queues).sum();
            assert_eq!(sum, t4.num_hw_queues, "slices {slices:?}");
            assert!(parts.iter().all(|p| p.num_hw_queues >= 1));
        }
    }

    #[test]
    #[should_panic(expected = "more partitions")]
    fn more_partitions_than_queues_rejected() {
        // 33 partitions cannot each get one of the T4's 32 queues.
        partition_device(&DeviceConfig::tesla_t4(), &[1; 33]);
    }

    #[test]
    fn jobs_route_to_their_partition_and_complete() {
        let mut mig = MigServing::paella(&DeviceConfig::tesla_t4(), &[20, 20], 7);
        let a = mig.register_model(&toy_model("a", 4, 100));
        let b = mig.register_model(&toy_model("b", 4, 100));
        for i in 0..10 {
            mig.submit(InferenceRequest {
                client: ClientId(0),
                model: if i % 2 == 0 { a } else { b },
                submitted_at: SimTime::from_micros(i * 10),
            });
        }
        mig.run_to_idle();
        let done = mig.drain_completions();
        assert_eq!(done.len(), 10);
        assert_eq!(done.iter().filter(|c| c.request.model == a).count(), 5);
        assert_eq!(done.iter().filter(|c| c.request.model == b).count(), 5);
    }

    #[test]
    fn partitions_are_strongly_isolated() {
        // Saturate partition 0; partition 1's latency must be unaffected
        // compared to a run without the saturating load.
        let victim_latency = |with_load: bool| {
            let mut mig = MigServing::paella(&DeviceConfig::tesla_t4(), &[20, 20], 7);
            let noisy = mig.register_model_on(0, &toy_model("noisy", 16, 500));
            let victim = mig.register_model_on(1, &toy_model("victim", 4, 100));
            if with_load {
                for i in 0..50 {
                    mig.submit(InferenceRequest {
                        client: ClientId(0),
                        model: noisy,
                        submitted_at: SimTime::from_micros(i),
                    });
                }
            }
            mig.submit(InferenceRequest {
                client: ClientId(1),
                model: victim,
                submitted_at: SimTime::from_micros(100),
            });
            mig.run_to_idle();
            let done = mig.drain_completions();
            done.iter()
                .find(|c| c.request.model == victim)
                .unwrap()
                .jct()
        };
        let quiet = victim_latency(false);
        let loaded = victim_latency(true);
        assert_eq!(quiet, loaded, "MIG isolation must hold exactly");
    }

    #[test]
    fn explicit_placement_respected() {
        let mut mig = MigServing::paella(&DeviceConfig::tesla_t4(), &[8, 32], 7);
        let m = mig.register_model_on(1, &toy_model("big", 2, 50));
        mig.submit(InferenceRequest {
            client: ClientId(0),
            model: m,
            submitted_at: SimTime::ZERO,
        });
        mig.run_to_idle();
        assert_eq!(mig.drain_completions().len(), 1);
        assert_eq!(mig.partitions(), 2);
    }
}
