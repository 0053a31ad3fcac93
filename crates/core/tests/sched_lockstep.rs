//! Lockstep test of `RankedScheduler` against a reference copy.
//!
//! `Reference` below is the FIFO / SJF / SRPT scheduler as it stood before
//! its ready sets became indexed heaps and its ready-client count a census:
//! a `BTreeSet` of ready jobs, a `BTreeSet` per client, and a charge that
//! counts ready clients by walking every client ever seen. It is kept
//! verbatim (bar its name) as the specification the shipped scheduler must
//! match call for call. Random op streams — every `Scheduler` method, on
//! ready, blocked, finished and never-seen jobs — go through both side by
//! side; after every op the pick, its rationale, `ready_len` and every
//! client's deficit must be equal, the deficits to the bit.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use paella_core::sched::PickRationale;
use paella_core::{
    ClientId, FifoScheduler, JobId, JobInfo, Scheduler, SjfScheduler, SrptDeficitScheduler,
};
use paella_sim::{IdMap, SimDuration, SimTime};

// ---------------------------------------------------------------------------
// The reference: the BTreeSet-plus-full-walk scheduler, verbatim.
// ---------------------------------------------------------------------------

const ARRIVAL: u8 = 0;
const TOTAL: u8 = 1;

#[derive(Debug, Default)]
struct Reference<const BY: u8> {
    order: BTreeSet<(u64, u64, JobId)>,
    jobs: IdMap<JobInfo>,
    fairness: Option<Fairness>,
}

#[derive(Debug, Default)]
struct Fairness {
    threshold: f64,
    clients: BTreeMap<ClientId, ClientState>,
    baseline: f64,
}

#[derive(Debug, Default)]
struct ClientState {
    raw_deficit: f64,
    ready: BTreeSet<(SimTime, JobId)>,
}

impl Fairness {
    fn override_pick(&self) -> Option<JobId> {
        let mut best: Option<(f64, &ClientState)> = None;
        for s in self.clients.values() {
            let d = s.raw_deficit - self.baseline;
            if !s.ready.is_empty() && d > self.threshold && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, s));
            }
        }
        let (_, starved) = best?;
        starved.ready.first().map(|&(_, job)| job)
    }

    fn charge(&mut self, client: ClientId) {
        let n = self
            .clients
            .values()
            .filter(|s| !s.ready.is_empty())
            .count()
            .max(1) as f64;
        if let Some(s) = self.clients.get_mut(&client) {
            s.raw_deficit -= 1.0;
        }
        self.baseline -= 1.0 / n;
        if self.baseline < -1e12 {
            for s in self.clients.values_mut() {
                s.raw_deficit -= self.baseline;
            }
            self.baseline = 0.0;
        }
    }
}

impl<const BY: u8> Reference<BY> {
    fn new(threshold: Option<f64>) -> Self {
        Reference {
            fairness: threshold.map(|threshold| Fairness {
                threshold,
                ..Fairness::default()
            }),
            ..Self::default()
        }
    }

    fn deficit(&self, client: ClientId) -> f64 {
        self.fairness
            .as_ref()
            .and_then(|f| Some(f.clients.get(&client)?.raw_deficit - f.baseline))
            .unwrap_or(0.0)
    }

    fn key(info: &JobInfo) -> (u64, u64, JobId) {
        let (major, minor) = match BY {
            ARRIVAL => (info.arrival.as_nanos(), 0),
            TOTAL => (info.total_estimate.as_nanos(), info.arrival.as_nanos()),
            _ => (info.remaining_estimate.as_nanos(), 0),
        };
        (major, minor, info.job)
    }
}

impl<const BY: u8> Scheduler for Reference<BY> {
    fn job_ready(&mut self, info: JobInfo) {
        self.job_blocked(info.job);
        self.order.insert(Self::key(&info));
        self.jobs.insert(info.job.0, info);
        if let Some(f) = &mut self.fairness {
            let client = f.clients.entry(info.client).or_default();
            client.ready.insert((info.arrival, info.job));
        }
    }

    fn job_blocked(&mut self, job: JobId) {
        if let Some(info) = self.jobs.remove(job.0) {
            self.order.remove(&Self::key(&info));
            let clients = self.fairness.as_mut().map(|f| &mut f.clients);
            if let Some(s) = clients.and_then(|c| c.get_mut(&info.client)) {
                s.ready.remove(&(info.arrival, job));
            }
        }
    }

    fn remaining_changed(&mut self, job: JobId, remaining: SimDuration) {
        if let Some(info) = self.jobs.get_mut(job.0) {
            let old = Self::key(info);
            info.remaining_estimate = remaining;
            let new = Self::key(info);
            if new != old {
                self.order.remove(&old);
                self.order.insert(new);
            }
        }
    }

    fn on_dispatched(&mut self, job: JobId) {
        if let (Some(f), Some(info)) = (&mut self.fairness, self.jobs.get(job.0)) {
            f.charge(info.client);
        }
    }

    fn client_idle(&mut self, client: ClientId) {
        if let Some(f) = &mut self.fairness {
            if let Some(c) = f.clients.get_mut(&client) {
                c.raw_deficit = f.baseline;
            }
        }
    }

    fn pick_next(&mut self) -> Option<JobId> {
        self.pick_next_explained().map(|(job, _)| job)
    }

    fn pick_next_explained(&mut self) -> Option<(JobId, PickRationale)> {
        if let Some(job) = self.fairness.as_ref().and_then(Fairness::override_pick) {
            return Some((job, PickRationale::DeficitOverride));
        }
        let rationale = match BY {
            ARRIVAL => PickRationale::ArrivalOrder,
            TOTAL => PickRationale::ShortestTotal,
            _ => PickRationale::ShortestRemaining,
        };
        self.order.first().map(|&(_, _, job)| (job, rationale))
    }

    fn ready_len(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        "reference"
    }
}

// ---------------------------------------------------------------------------
// The lockstep harness.
// ---------------------------------------------------------------------------

/// A scheduler whose per-client deficits can be read back.
trait Deficits: Scheduler {
    fn deficit_of(&self, client: ClientId) -> f64;
}

impl<const BY: u8> Deficits for Reference<BY> {
    fn deficit_of(&self, client: ClientId) -> f64 {
        self.deficit(client)
    }
}

impl Deficits for SrptDeficitScheduler {
    fn deficit_of(&self, client: ClientId) -> f64 {
        self.deficit(client)
    }
}

// FIFO and SJF carry no deficit state.
impl Deficits for FifoScheduler {
    fn deficit_of(&self, _client: ClientId) -> f64 {
        0.0
    }
}

impl Deficits for SjfScheduler {
    fn deficit_of(&self, _client: ClientId) -> f64 {
        0.0
    }
}

const JOBS: u64 = 24;
const CLIENTS: u32 = 6;

/// One op of the stream: `(kind, job, client, a, b)`; `a` and `b` pick
/// coarse estimates and arrivals, so keys tie often.
type Op = (u8, u64, u32, u64, u64);

fn info(job: u64, client: u32, a: u64, b: u64) -> JobInfo {
    JobInfo {
        job: JobId(job),
        client: ClientId(client),
        arrival: SimTime::from_micros(a * 10),
        total_estimate: SimDuration::from_micros((b + 1) * 50),
        remaining_estimate: SimDuration::from_micros(((a + b) % 6) * 50),
    }
}

/// Applies `ops` to both schedulers and compares them after each; returns
/// how many picks were deficit overrides, so callers can check the
/// threshold is actually exercised.
fn lockstep(
    new: &mut dyn Deficits,
    reference: &mut dyn Deficits,
    ops: &[Op],
) -> Result<usize, TestCaseError> {
    let mut last_pick: Option<JobId> = None;
    let mut overrides = 0;
    for (step, &(kind, job, client, a, b)) in ops.iter().enumerate() {
        let mut both = |f: &dyn Fn(&mut dyn Deficits)| {
            f(&mut *new);
            f(&mut *reference);
        };
        match kind {
            // Ready (or re-ready under a new key, client or arrival).
            0..=3 => both(&|s| s.job_ready(info(job, client, a, b))),
            4 => both(&|s| s.job_blocked(JobId(job))),
            5 => both(&|s| s.job_done(JobId(job))),
            6 => both(&|s| s.remaining_changed(JobId(job), SimDuration::from_micros(a * 50))),
            // The dispatcher's sequence: charge the job just picked.
            7..=9 => {
                if let Some(j) = last_pick {
                    both(&|s| s.on_dispatched(j));
                }
            }
            // A charge for any job, ready or not.
            10 => both(&|s| s.on_dispatched(JobId(job))),
            11 => both(&|s| s.client_idle(ClientId(client))),
            _ => {}
        }
        let got = new.pick_next_explained();
        let want = reference.pick_next_explained();
        prop_assert_eq!(got, want, "pick after op {} {:?}", step, ops[step]);
        last_pick = got.map(|(j, _)| j);
        overrides += usize::from(matches!(got, Some((_, PickRationale::DeficitOverride))));
        prop_assert_eq!(
            new.ready_len(),
            reference.ready_len(),
            "ready_len after op {}",
            step
        );
        for c in 0..CLIENTS {
            let (g, w) = (
                new.deficit_of(ClientId(c)),
                reference.deficit_of(ClientId(c)),
            );
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "client {} deficit {} vs {} after op {}",
                c,
                g,
                w,
                step
            );
        }
    }
    Ok(overrides)
}

fn op_stream() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..13, 0..JOBS, 0..CLIENTS, 0u64..8, 0u64..8), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fifo_matches_the_reference(ops in op_stream()) {
        lockstep(&mut FifoScheduler::new(), &mut Reference::<0>::new(None), &ops)?;
    }

    #[test]
    fn sjf_matches_the_reference(ops in op_stream()) {
        lockstep(&mut SjfScheduler::new(), &mut Reference::<1>::new(None), &ops)?;
    }

    #[test]
    fn srpt_matches_the_reference(ops in op_stream()) {
        lockstep(&mut SrptDeficitScheduler::srpt_only(), &mut Reference::<2>::new(None), &ops)?;
    }

    #[test]
    fn srpt_deficit_matches_the_reference(ops in op_stream(), threshold in 0usize..2) {
        let threshold = [1.5, 6.0][threshold];
        lockstep(
            &mut SrptDeficitScheduler::new(Some(threshold)),
            &mut Reference::<2>::new(Some(threshold)),
            &ops,
        )?;
    }
}

/// The op streams do reach the deficit override at both thresholds, so the
/// lockstep above compares the override path and not only the rank.
#[test]
fn the_streams_reach_the_override() {
    for threshold in [1.5, 6.0] {
        let mut rng = proptest::TestRng::for_case("override", 0);
        let mut overrides = 0;
        for _ in 0..16 {
            let ops = op_stream().generate(&mut rng);
            overrides += lockstep(
                &mut SrptDeficitScheduler::new(Some(threshold)),
                &mut Reference::<2>::new(Some(threshold)),
                &ops,
            )
            .unwrap();
        }
        assert!(overrides > 0, "threshold {threshold}: no override picked");
    }
}
