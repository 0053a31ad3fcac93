//! The drive loop and one timed repetition of a workload.
//!
//! The loop is a copy of `paella_workload::run_trace`'s, kept here so every
//! `ServingSystem` call can be wrapped in a span without touching the
//! program: advance the system up to each arrival, submit it, drain
//! completions, then run to idle and drain what is left. Host time is taken
//! around exactly this loop; building the system and the trace is `setup_s`.

use std::time::Instant;

use paella_core::{InferenceRequest, ServingSystem};
use paella_telemetry::{extract_journeys, MetricsSnapshot, TraceLog};
use paella_workload::Arrival;

use crate::host::{Elapsed, Stopwatch};
use crate::reduce::{reduce, unaccounted, Outputs, SimMetrics};
use crate::spans::Probe;
use crate::workloads::{prepare, Prepared, SchedWrap, Spec, System, Workload};

/// Equal slices of the trace whose host time is taken separately (see
/// [`measure`](crate::measure)). The last slice also holds the run to idle.
pub const SEGMENTS: usize = 128;

/// Drives `sys` through `arrivals` to idle. Returns completions and
/// failures in drain order, and the host nanoseconds spent in each slice of
/// the trace.
pub fn drive<P: Probe>(
    sys: &mut dyn ServingSystem,
    arrivals: &[Arrival],
    probe: &mut P,
) -> (Outputs, Vec<u64>) {
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut marks = Vec::with_capacity(SEGMENTS + 1);
    let seg_len = arrivals.len().div_ceil(SEGMENTS).max(1);
    for (i, a) in arrivals.iter().enumerate() {
        if i % seg_len == 0 {
            marks.push(Instant::now());
        }
        let i = i as u32;
        loop {
            probe.enter("next_event", i);
            let next = sys.next_event_time();
            probe.exit();
            match next {
                Some(t) if t <= a.at => {
                    probe.enter("advance", i);
                    sys.advance_until(t);
                    probe.exit();
                }
                _ => break,
            }
        }
        probe.enter("submit", i);
        sys.submit(InferenceRequest {
            client: a.client,
            model: a.model,
            submitted_at: a.at,
        });
        probe.exit();
        probe.enter("drain", i);
        completions.append(&mut sys.drain_completions());
        probe.exit();
    }
    // `run_to_idle`, spelled out so its calls are spanned too.
    let tail = arrivals.len() as u32;
    loop {
        probe.enter("next_event", tail);
        let next = sys.next_event_time();
        probe.exit();
        let Some(t) = next else { break };
        probe.enter("advance", tail);
        sys.advance_until(t);
        probe.exit();
    }
    probe.enter("drain", tail);
    completions.append(&mut sys.drain_completions());
    let failures = sys.drain_failures();
    probe.exit();
    marks.push(Instant::now());
    let segment_ns = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as u64)
        .collect();
    let out = Outputs {
        completions,
        failures,
        llm: Vec::new(),
    };
    (out, segment_ns)
}

/// One repetition: what it cost the host and what the simulation produced.
pub struct Rep {
    pub setup: Elapsed,
    pub drive: Elapsed,
    /// Drive-loop host time per trace slice.
    pub segment_ns: Vec<u64>,
    pub sim: SimMetrics,
    /// Requests without exactly one terminal state, plus failed invariants.
    pub violations: Vec<String>,
    pub unaccounted: usize,
    /// Program telemetry, when the workload (or the caller) switched it on.
    pub trace: Option<TraceLog>,
    pub metrics: Option<MetricsSnapshot>,
}

/// Builds the workload fresh, drives it under `probe`, reduces and checks.
pub fn run_rep<P: Probe>(
    w: Workload,
    seed: u64,
    spec: Spec,
    wrap: Option<SchedWrap>,
    telemetry: bool,
    probe: &mut P,
) -> Rep {
    let clock = Stopwatch::start();
    let mut p = prepare(w, seed, spec, wrap);
    if telemetry {
        p.sys.serving().enable_telemetry();
    }
    let setup = clock.stop();
    run_prepared(p, setup, probe)
}

/// Drives an already prepared workload (the caller timed the set-up).
pub fn run_prepared<P: Probe>(mut p: Prepared, setup: Elapsed, probe: &mut P) -> Rep {
    let clock = Stopwatch::start();
    let (mut out, segment_ns) = drive(p.sys.serving(), &p.arrivals, probe);
    let drive = clock.stop();

    let mut violations = Vec::new();
    if let System::Llm(e) = &mut p.sys {
        out.llm = e.drain_llm_completions();
        if let Err(err) = e.kv_pool().check_conservation() {
            violations.push(err);
        }
        if e.kv_pool().resident() != 0 {
            violations.push(format!(
                "idle engine still holds {} KV pages",
                e.kv_pool().resident()
            ));
        }
        if out.llm.len() != out.completions.len() {
            violations.push(format!(
                "{} token records for {} completions",
                out.llm.len(),
                out.completions.len()
            ));
        }
    }
    let unaccounted = unaccounted(&p.arrivals, &out);
    if unaccounted > 0 {
        violations.push(format!(
            "{unaccounted} requests did not reach exactly one terminal state"
        ));
    }
    let trace = p.sys.serving().take_trace_log();
    let metrics = p.sys.serving().metrics_snapshot();
    if let Some(m) = &metrics {
        let under = m.counter("accounting_underflow");
        if under > 0 {
            violations.push(format!("accounting_underflow = {under}"));
        }
    }
    if let Some(log) = &trace {
        let journeys = extract_journeys(log);
        if journeys.len() != out.completions.len() {
            violations.push(format!(
                "{} journeys for {} completions",
                journeys.len(),
                out.completions.len()
            ));
        }
        for j in &journeys {
            if let Err(e) = j.breakdown.check_conservation() {
                violations.push(format!("job {}: {e}", j.job));
                break;
            }
        }
    }
    let sim = reduce(
        &p.arrivals,
        &out,
        &p.limits,
        &p.kernels_per_model,
        p.spec.warmup,
    );
    Rep {
        setup,
        drive,
        segment_ns,
        sim,
        violations,
        unaccounted,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanRecorder;
    use crate::timed_sched::{SchedTally, TimedScheduler};
    use paella_core::Scheduler;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn timed_scheduler_is_transparent() {
        let spec = Spec {
            requests: 200,
            warmup: 20,
            rate: 100.0,
        };
        let plain = run_rep(Workload::ZooMix, 23, spec, None, false, &mut ());
        let rec = Rc::new(RefCell::new(SpanRecorder::new()));
        let tally = Rc::new(RefCell::new(SchedTally::default()));
        let wrap = |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            Box::new(TimedScheduler::new(inner, rec.clone(), tally.clone()))
        };
        let mut probe = rec.clone();
        let timed = run_rep(Workload::ZooMix, 23, spec, Some(&wrap), false, &mut probe);
        assert_eq!(plain.sim.completed, 200);
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert_eq!(
            plain.sim, timed.sim,
            "the decorator must not change a decision"
        );
        assert!(tally.borrow().picks > 0, "the decorator was exercised");
        let rec = rec.borrow();
        let sched = rec.spans().iter().filter(|s| s.name.starts_with("sched."));
        for s in sched {
            assert_ne!(s.parent, crate::spans::NONE, "sched spans nest");
        }
    }

    #[test]
    fn telemetry_does_not_change_what_clients_see() {
        let spec = Workload::ZooMixTelemetry.spec();
        let on = run_rep(Workload::ZooMixTelemetry, 23, spec, None, false, &mut ());
        let off = run_rep(Workload::ZooMix, 23, spec, None, false, &mut ());
        assert!(on.trace.is_some() && off.trace.is_none());
        assert!(on.violations.is_empty(), "{:?}", on.violations);
        assert_eq!(on.sim.digest, off.sim.digest);
    }

    #[test]
    fn ladder_rejects_the_overloaded_cluster_rate() {
        let at = |rate: f64| {
            let spec = Spec {
                requests: 4_000,
                warmup: 0,
                rate,
            };
            run_rep(Workload::Cluster4, 23, spec, None, false, &mut ())
                .sim
                .backlog
        };
        let (mid, end, grew) = at(5_200.0);
        assert!(grew, "5,200 req/s builds a backlog: mid {mid}, end {end}");
        let (mid, end, grew) = at(2_600.0);
        assert!(!grew, "2,600 req/s drains: mid {mid}, end {end}");
    }

    #[test]
    fn every_workload_accounts_for_every_request() {
        for w in Workload::ALL {
            let spec = Spec {
                requests: w.spec().requests.min(400),
                warmup: 0,
                ..w.spec()
            };
            let rep = run_rep(w, 23, spec, None, false, &mut ());
            assert!(
                rep.violations.is_empty(),
                "{}: {:?}",
                w.name(),
                rep.violations
            );
            assert_eq!(rep.sim.submitted, spec.requests);
        }
    }
}
