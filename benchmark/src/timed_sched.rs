//! A `Scheduler` decorator that times every call from outside.
//!
//! `Dispatcher::new` takes a `Box<dyn Scheduler>`, so the benchmark can hand
//! it this wrapper and see each scheduler call as a span nested under the
//! drive-loop span that caused it — without a line of instrumentation in
//! the program. It forwards every trait method (including the defaulted
//! ones the inner policy may override) and adds no decisions of its own; a
//! unit test pins that a run with and without it produces the same
//! completions.

use std::cell::RefCell;
use std::rc::Rc;

use paella_core::sched::PickRationale;
use paella_core::{ClientId, JobId, JobInfo, Scheduler};
use paella_sim::SimDuration;

use crate::spans::{SharedRecorder, NONE};

/// Ready-queue depth observed at scheduling decisions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedTally {
    pub picks: u64,
    pub ready_len_sum: u64,
}

pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: SharedRecorder,
    tally: Rc<RefCell<SchedTally>>,
}

impl TimedScheduler {
    pub fn new(
        inner: Box<dyn Scheduler>,
        rec: SharedRecorder,
        tally: Rc<RefCell<SchedTally>>,
    ) -> Self {
        TimedScheduler { inner, rec, tally }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        self.rec.borrow_mut().enter(name, NONE);
        let out = f(self.inner.as_mut());
        self.rec.borrow_mut().exit();
        out
    }

    fn note_pick(&mut self) {
        let mut t = self.tally.borrow_mut();
        t.picks += 1;
        t.ready_len_sum += self.inner.ready_len() as u64;
    }
}

/// Span name of scheduling decisions.
pub const PICK: &str = "sched.pick";
/// Span name of every state update (`job_ready`, `job_blocked`, `job_done`,
/// `remaining_changed`, `on_dispatched`, `client_idle`).
pub const UPDATE: &str = "sched.update";

impl Scheduler for TimedScheduler {
    fn job_ready(&mut self, info: JobInfo) {
        self.span(UPDATE, |s| s.job_ready(info));
    }

    fn job_blocked(&mut self, job: JobId) {
        self.span(UPDATE, |s| s.job_blocked(job));
    }

    fn job_done(&mut self, job: JobId) {
        self.span(UPDATE, |s| s.job_done(job));
    }

    fn remaining_changed(&mut self, job: JobId, remaining: SimDuration) {
        self.span(UPDATE, |s| s.remaining_changed(job, remaining));
    }

    fn on_dispatched(&mut self, job: JobId) {
        self.span(UPDATE, |s| s.on_dispatched(job));
    }

    fn client_idle(&mut self, client: ClientId) {
        self.span(UPDATE, |s| s.client_idle(client));
    }

    fn pick_next(&mut self) -> Option<JobId> {
        self.note_pick();
        self.span(PICK, |s| s.pick_next())
    }

    fn pick_next_explained(&mut self) -> Option<(JobId, PickRationale)> {
        self.note_pick();
        self.span(PICK, |s| s.pick_next_explained())
    }

    fn ready_len(&self) -> usize {
        self.inner.ready_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
