//! Write your own scheduling policy — the point of software-defined GPU
//! scheduling is that the policy is just code (§6: "the space of possible
//! algorithms is unbounded").
//!
//! This example implements a *deadline-aware* policy (earliest-deadline-first
//! with deadline = arrival + 4x estimated job time) — something no hardware
//! scheduler interface exposes — and compares its tail latency against FIFO.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use std::collections::{BTreeMap, HashMap};

use paella_channels::ChannelConfig;
use paella_core::{
    Dispatcher, DispatcherConfig, FifoScheduler, JobId, JobInfo, Scheduler, ServingSystem,
};
use paella_gpu::DeviceConfig;
use paella_models::ModelZoo;
use paella_sim::{SimDuration, SimTime};
use paella_workload::{generate, run_trace, Mix, WorkloadSpec};

/// Earliest-deadline-first over a per-job deadline derived from the job's
/// own estimated size: small jobs get tight deadlines, so they are served
/// promptly, but an old large job eventually outranks fresh small ones —
/// built-in aging, unlike plain SRPT.
#[derive(Default)]
struct EdfScheduler {
    ready: BTreeMap<(SimTime, JobId), JobId>,
    index: HashMap<JobId, (SimTime, JobId)>,
}

impl EdfScheduler {
    fn deadline(info: &JobInfo) -> SimTime {
        info.arrival + info.total_estimate * 4
    }
}

impl Scheduler for EdfScheduler {
    fn job_ready(&mut self, info: JobInfo) {
        let key = (Self::deadline(&info), info.job);
        self.ready.insert(key, info.job);
        self.index.insert(info.job, key);
    }

    fn job_blocked(&mut self, job: JobId) {
        if let Some(key) = self.index.remove(&job) {
            self.ready.remove(&key);
        }
    }

    fn remaining_changed(&mut self, _job: JobId, _remaining: SimDuration) {
        // Deadlines are fixed at arrival.
    }

    fn pick_next(&mut self) -> Option<JobId> {
        self.ready.values().next().copied()
    }

    fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

fn run(scheduler: Box<dyn Scheduler>) -> (String, f64, f64) {
    let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
    let short = zoo.get("resnet18").clone();
    let long = zoo.get("inceptionv3").clone();
    let name = scheduler.name().to_string();
    let mut sys = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        scheduler,
        DispatcherConfig::paella(),
        11,
    );
    let s = sys.register_model(&short);
    let l = sys.register_model(&long);
    let spec = WorkloadSpec {
        clients: 8,
        ..WorkloadSpec::bursty(140.0, 500)
    };
    let arrivals = generate(&spec, &Mix::weighted(vec![(s, 10.0), (l, 1.0)]));
    let mut stats = run_trace(&mut sys, &arrivals, 50);
    let short_p99 = stats.model_p99_us(s).unwrap_or(f64::NAN) / 1_000.0;
    let long_p99 = stats.model_p99_us(l).unwrap_or(f64::NAN) / 1_000.0;
    (name, short_p99, long_p99)
}

fn main() {
    println!(
        "{:>8} {:>16} {:>16}",
        "policy", "short p99 (ms)", "long p99 (ms)"
    );
    for sched in [
        Box::new(FifoScheduler::new()) as Box<dyn Scheduler>,
        Box::new(EdfScheduler::default()),
    ] {
        let (name, s, l) = run(sched);
        println!("{name:>8} {s:>16.1} {l:>16.1}");
    }
    println!(
        "\nThe EDF policy is ~40 lines of ordinary Rust: implement `Scheduler`,\n\
         hand it to the dispatcher, and every CUDA kernel on the device is\n\
         ordered by it — no driver, runtime, or hardware cooperation needed."
    );
}
