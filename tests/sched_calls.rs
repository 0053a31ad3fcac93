//! How often the dispatcher calls its scheduler, counted without a clock.
//!
//! The scheduler sits on the dispatcher's critical path once per kernel
//! (§6), so its call count per kernel is a cost that does not depend on the
//! machine. This pins it on the shape where arbitration has least to do: one
//! tiny job in flight at a time, as the `launch_bound` benchmark workload
//! runs it.

use std::cell::Cell;
use std::rc::Rc;

use paella_channels::ChannelConfig;
use paella_core::sched::PickRationale;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, JobId, JobInfo, Scheduler,
    ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};

/// Forwards every call to `inner` and counts picks plus state updates —
/// what the benchmark's `core.sched.calls_per_kernel` counts.
struct Counting {
    inner: Box<dyn Scheduler>,
    calls: Rc<Cell<u64>>,
}

impl Counting {
    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl Scheduler for Counting {
    fn job_ready(&mut self, info: JobInfo) {
        self.count();
        self.inner.job_ready(info);
    }

    fn job_blocked(&mut self, job: JobId) {
        self.count();
        self.inner.job_blocked(job);
    }

    fn job_done(&mut self, job: JobId) {
        self.count();
        self.inner.job_done(job);
    }

    fn remaining_changed(&mut self, job: JobId, remaining: SimDuration) {
        self.count();
        self.inner.remaining_changed(job, remaining);
    }

    fn on_dispatched(&mut self, job: JobId) {
        self.count();
        self.inner.on_dispatched(job);
    }

    fn client_idle(&mut self, client: ClientId) {
        self.count();
        self.inner.client_idle(client);
    }

    fn pick_next(&mut self) -> Option<JobId> {
        self.count();
        self.inner.pick_next()
    }

    fn pick_next_explained(&mut self) -> Option<(JobId, PickRationale)> {
        self.count();
        self.inner.pick_next_explained()
    }

    fn ready_len(&self) -> usize {
        self.inner.ready_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

const KERNELS: u64 = 64;
const REQUESTS: u32 = 400;

/// Runs 400 requests for a 64-kernel chain of one-block 2 µs kernels, one
/// per millisecond from 16 clients, on the shipped configuration; returns
/// `(client, submitted, client-visible)` per completion in emission order.
fn launch_bound(
    wrap: impl FnOnce(Box<dyn Scheduler>) -> Box<dyn Scheduler>,
) -> Vec<(u32, u64, u64)> {
    let mut d = Dispatcher::new(
        DeviceConfig::gtx_1660_super(),
        ChannelConfig::default(),
        wrap(Box::new(SrptDeficitScheduler::new(Some(2_000.0)))),
        DispatcherConfig::paella(),
        23,
    );
    let model = d.register_model(&synthetic::uniform_job(
        "tiny",
        KERNELS as u32,
        SimDuration::from_micros(2),
        1,
    ));
    let mut done = Vec::new();
    for i in 1..=REQUESTS {
        let at = SimTime::from_micros(u64::from(i) * 1_000);
        while let Some(t) = d.next_event_time().filter(|&t| t <= at) {
            d.advance_until(t);
        }
        d.submit(InferenceRequest {
            client: ClientId(i % 16),
            model,
            submitted_at: at,
        });
        done.append(&mut d.drain_completions());
    }
    d.run_to_idle();
    done.append(&mut d.drain_completions());
    done.iter()
        .map(|c| {
            (
                c.request.client.0,
                c.request.submitted_at.as_nanos(),
                c.client_visible_at.as_nanos(),
            )
        })
        .collect()
}

#[test]
fn launch_bound_makes_about_four_scheduler_calls_per_kernel() {
    let calls = Rc::new(Cell::new(0));
    let counted = launch_bound(|inner| {
        Box::new(Counting {
            inner,
            calls: Rc::clone(&calls),
        })
    });
    assert_eq!(
        counted,
        launch_bound(|inner| inner),
        "counting changed a completion"
    );
    assert_eq!(counted.len(), REQUESTS as usize);
    // Per kernel: ready, pick, charge, blocked; per job a `job_done` and a
    // `client_idle` on top. Picks made when nothing was ready and
    // `job_blocked` calls on jobs already blocked once made this 7.1.
    let per_kernel = calls.get() as f64 / (u64::from(REQUESTS) * KERNELS) as f64;
    assert!(
        per_kernel <= 4.1,
        "{per_kernel:.3} scheduler calls per kernel"
    );
}
