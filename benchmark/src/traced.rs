//! The traced run: one workload's per-layer metrics.
//!
//! Four sources, all on the benchmark's side of the program's public
//! interfaces:
//!
//! * **spans** — the drive loop run under a [`SpanRecorder`], with the
//!   scheduler wrapped in a [`TimedScheduler`]; the program's telemetry stays
//!   off. The same trace is also run untraced, and the ratio of the two host
//!   times is `trace.overhead_ratio`.
//! * **replay drivers** — [`layers`](crate::layers).
//! * **the program's own telemetry**, switched on for one short run, for the
//!   exact event counts and what switching it on costs.
//! * **the rate ladder** — three untimed runs at fixed rates.
//!
//! End-to-end metrics never come from here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

use paella_core::Scheduler;
use paella_telemetry::{HoldReason, TraceEvent, TraceLog};

use crate::drive::{run_prepared, run_rep, Rep};
use crate::host::{rss_bytes, Stopwatch};
use crate::layers;
use crate::measure::{fastest_slices_ns, RepCost};
use crate::report::{Values, PER_LAYER};
use crate::spans::{by_name, write_trace, NameStats, SpanRecorder};
use crate::timed_sched::{SchedTally, TimedScheduler, PICK, UPDATE};
use crate::workloads::{
    models_of, prepare, prepare_quarter_node, Prepared, SchedWrap, Spec, Workload,
};

/// Requests per rung of the rate ladder.
const LADDER_REQUESTS: usize = 400;

impl Workload {
    /// The trace the span-recording runs use: the measured one, except on
    /// `zoo_mix`, where four passes over it would take 20 s.
    fn traced_spec(self) -> Spec {
        match self {
            Workload::ZooMix => Spec {
                requests: 250,
                warmup: 25,
                rate: self.spec().rate,
            },
            _ => self.spec(),
        }
    }

    /// The trace the program-telemetry run uses: telemetry keeps every event
    /// in memory, about 120 kB per zoo kernel.
    fn telemetry_spec(self) -> Spec {
        let requests = match self {
            Workload::LaunchBound => 500,
            Workload::ZooMix | Workload::ZooMixTelemetry => 60,
            Workload::Cluster4 | Workload::FaultStorm => 2_000,
            Workload::LlmChat => 20_000,
        };
        Spec {
            requests,
            warmup: 0,
            rate: self.spec().rate,
        }
    }

    fn is_cluster(self) -> bool {
        matches!(self, Workload::Cluster4 | Workload::FaultStorm)
    }
}

/// Spans and scheduler tallies of one traced repetition.
struct Traced {
    rep: Rep,
    stats: BTreeMap<&'static str, NameStats>,
    tally: SchedTally,
    recorder: Rc<RefCell<SpanRecorder>>,
}

impl Traced {
    fn stat(&self, name: &str) -> NameStats {
        self.stats.get(name).cloned().unwrap_or_default()
    }
}

/// The program's trace log (hundreds of MB on `zoo_mix_telemetry`) is checked
/// inside `run_prepared`; reps that are only timed let go of it at once.
fn without_log(rep: Rep) -> Rep {
    Rep { trace: None, ..rep }
}

fn traced_rep(build: impl FnOnce(SchedWrap) -> Prepared) -> Traced {
    let recorder = Rc::new(RefCell::new(SpanRecorder::new()));
    let tally = Rc::new(RefCell::new(SchedTally::default()));
    let wrap = |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(TimedScheduler::new(inner, recorder.clone(), tally.clone()))
    };
    let clock = Stopwatch::start();
    let prepared = build(&wrap);
    let setup = clock.stop();
    let mut probe = recorder.clone();
    let rep = without_log(run_prepared(prepared, setup, &mut probe));
    let stats = by_name(recorder.borrow().spans());
    let tally = *tally.borrow();
    Traced {
        rep,
        stats,
        tally,
        recorder,
    }
}

/// Two repetitions produced by `run` and their fastest-slices host time.
fn timed_pair(mut run: impl FnMut() -> Rep) -> (u64, Vec<Rep>) {
    let reps: Vec<Rep> = (0..2).map(|_| without_log(run())).collect();
    let costs: Vec<RepCost> = reps.iter().map(RepCost::of).collect();
    (fastest_slices_ns(&costs), reps)
}

/// Events of the log by kind, in one pass (a zoo log holds millions).
fn kind_counts(log: &TraceLog) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for e in &log.events {
        *counts.entry(e.event.kind()).or_insert(0) += 1;
    }
    counts
}

fn count_holds(log: &TraceLog, want: HoldReason) -> u64 {
    log.events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::OccupancyHold { reason, .. } if reason == want))
        .count() as u64
}

/// What the span section hands to the sections after it.
struct InSitu {
    /// The untraced reference repetition on the traced trace.
    reference: Rep,
    /// Its host nanoseconds per kernel (per token on `llm_chat`).
    ns_per_unit: f64,
    /// Scheduler time per kernel, net of the clock reads inside each span.
    sched_ns_per_kernel: f64,
}

/// The per-layer table under construction.
struct Table {
    workload: Workload,
    seed: u64,
    values: BTreeMap<&'static str, f64>,
    violations: Vec<String>,
}

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "undeclared {name}");
        self.values.insert(name, value);
    }

    /// The same trace untraced and traced: `core.serve.*`, `core.sched.*`,
    /// `trace.*`, `host.oncpu_share`, `llm.engine.*`,
    /// `cluster.tier_overhead_ratio`; writes the span file.
    fn spans(&mut self, out_dir: &Path) -> InSitu {
        let (w, seed) = (self.workload, self.seed);
        let spec = w.traced_spec();
        let (ref_ns, mut ref_reps) = timed_pair(|| run_rep(w, seed, spec, None, false, &mut ()));
        let mut traced: Vec<Traced> = (0..2)
            .map(|_| traced_rep(|wrap| prepare(w, seed, spec, Some(wrap))))
            .collect();
        let costs: Vec<RepCost> = traced.iter().map(|t| RepCost::of(&t.rep)).collect();
        let traced_ns = fastest_slices_ns(&costs);
        let t = traced.pop().expect("two traced reps");
        for rep in ref_reps.iter().chain([&t.rep]) {
            self.violations.extend(rep.violations.iter().cloned());
            if rep.sim != ref_reps[0].sim {
                self.violations
                    .push("tracing changed the simulated outcome".to_string());
            }
        }
        let cpu: u64 = ref_reps.iter().map(|r| r.drive.cpu_ns).sum();
        let wall: u64 = ref_reps.iter().map(|r| r.drive.wall_ns).sum();
        let reference = ref_reps.swap_remove(0);
        let ns_per_unit = ref_ns as f64 / reference.sim.work_units.max(1) as f64;

        let drive_ns = t.rep.drive.wall_ns.max(1) as f64;
        let serve = ["submit", "advance", "next_event", "drain"].map(|n| t.stat(n));
        self.set("core.serve.submit_ns", serve[0].median_ns);
        self.set("core.serve.advance_ns", serve[1].median_ns);
        self.set("core.serve.next_event_ns", serve[2].median_ns);
        self.set("core.serve.drain_ns", serve[3].median_ns);
        self.set(
            "core.serve.submit_share",
            serve[0].total_ns as f64 / drive_ns,
        );
        self.set(
            "core.serve.advance_share",
            serve[1].total_ns as f64 / drive_ns,
        );
        self.set(
            "core.serve.calls_per_request",
            serve.iter().map(|s| s.count).sum::<u64>() as f64 / reference.sim.submitted as f64,
        );
        self.set(
            "trace.overhead_ratio",
            traced_ns as f64 / ref_ns.max(1) as f64,
        );
        self.set("host.oncpu_share", cpu as f64 / wall.max(1) as f64);
        if w == Workload::LlmChat {
            self.set("llm.engine.advance_ns", serve[1].median_ns);
            self.set("llm.engine.token_ns", ns_per_unit);
        }
        let file = out_dir.join(format!("trace-{}.json", w.name()));
        if let Err(e) = write_trace(&file, w.name(), seed, t.recorder.borrow().spans()) {
            self.violations
                .push(format!("writing {}: {e}", file.display()));
        }

        // A `Cluster` builds its own schedulers, so for the cluster workloads
        // the scheduler is timed on one dispatcher serving the same mix at a
        // quarter of the rate; that run is also the base of
        // `cluster.tier_overhead_ratio`.
        let quarter = w.is_cluster().then(|| {
            let (quarter_ns, reps) = timed_pair(|| {
                let clock = Stopwatch::start();
                let p = prepare_quarter_node(seed, spec, None);
                run_prepared(p, clock.stop(), &mut ())
            });
            let per_unit = quarter_ns as f64 / reps[0].sim.work_units.max(1) as f64;
            self.set("cluster.tier_overhead_ratio", ns_per_unit / per_unit);
            traced_rep(|wrap| prepare_quarter_node(seed, spec, Some(wrap)))
        });
        let sched = quarter.as_ref().unwrap_or(&t);
        let (pick, update) = (sched.stat(PICK), sched.stat(UPDATE));
        let kernels = sched.rep.sim.work_units.max(1) as f64;
        let calls = (pick.count + update.count) as f64;
        let total = (pick.total_ns + update.total_ns) as f64;
        let (span_cost, span_inside) = layers::span_cost_ns();
        self.set("trace.span_cost_ns", span_cost);
        self.set("core.sched.pick_ns", pick.median_ns);
        self.set("core.sched.update_ns", update.median_ns);
        self.set("core.sched.calls_per_kernel", calls / kernels);
        self.set(
            "core.sched.ready_len_mean",
            sched.tally.ready_len_sum as f64 / sched.tally.picks.max(1) as f64,
        );
        self.set(
            "core.sched.share",
            total / sched.rep.drive.wall_ns.max(1) as f64,
        );
        InSitu {
            reference,
            ns_per_unit,
            sched_ns_per_kernel: (total - calls * span_inside).max(0.0) / kernels,
        }
    }

    /// The isolated replay drivers.
    fn replays(&mut self, in_situ: &InSitu) {
        let (w, seed) = (self.workload, self.seed);
        let spec = w.traced_spec();
        self.set("sim.event.hold_ns", layers::event_hold_ns(64));
        self.set("sim.event.hold_deep_ns", layers::event_hold_ns(4_096));
        self.set("sim.event.cancel_ns", layers::event_cancel_ns());
        self.set("channels.notifq_ns", layers::notifq_ns());
        self.set("channels.spsc_ns", layers::spsc_ns());
        self.set("channels.doorbell_ns", layers::doorbell_ns());
        self.set("workload.gen.arrival_ns", layers::gen_arrival_ns());
        self.set("cluster.router.pick_ns", layers::router_pick_ns());
        self.set("llm.kv.op_ns", layers::kv_op_ns());
        self.set("telemetry.record_ns", layers::telemetry_record_ns());
        self.set("telemetry.inc_ns", layers::telemetry_inc_ns());
        self.set(
            "core.dispatcher.load_signal_ns",
            layers::load_signal_ns(prepare(w, seed, spec, None)),
        );
        let (models, device) = models_of(w);
        if models.is_empty() {
            return;
        }
        let p = prepare(w, seed, spec, None);
        let gpu = layers::gpu_replay(&p, &models, &device);
        let occ = layers::occupancy_replay(&gpu, &device);
        let wl = layers::waitlist_replay(&p, &models);
        self.set("gpu.engine.kernel_ns", gpu.kernel_ns);
        self.set("gpu.engine.block_ns", gpu.block_ns);
        self.set("gpu.engine.outputs_per_kernel", gpu.outputs_per_kernel);
        self.set("gpu.engine.share_est", gpu.kernel_ns / in_situ.ns_per_unit);
        self.set("core.occupancy.kernel_ns", occ.kernel_ns);
        self.set("core.occupancy.notify_ns", occ.notify_ns);
        self.set("core.occupancy.should_dispatch_ns", occ.should_dispatch_ns);
        self.set("core.waitlist.op_ns", wl.op_ns);
        self.set("core.waitlist.ingest_ns_per_job", wl.ingest_ns_per_job);
        self.set("core.waitlist.drain_ns", wl.drain_ns);
        // What the estimates above leave of the end-to-end cost: ingest, the
        // dispatcher's maps and event queue, completion booking — and, on
        // the cluster workloads, the whole router tier. Printed, not hidden.
        self.set(
            "core.dispatcher.residual_ns_per_kernel",
            in_situ.ns_per_unit
                - gpu.kernel_ns
                - occ.kernel_ns
                - wl.ns_per_kernel
                - in_situ.sched_ns_per_kernel,
        );
        let one_request = Spec {
            requests: 1,
            ..spec
        };
        self.set(
            "core.dispatcher.register_model_ms",
            layers::register_model_ms(|| prepare(w, seed, one_request, None).sys, &models),
        );
        if matches!(w, Workload::ZooMix | Workload::ZooMixTelemetry) {
            self.set("compiler.compile_ms", layers::compile_ms());
            self.set("models.zoo_build_ms", layers::zoo_build_ms(&device));
        }
    }

    /// One short run with the program's own telemetry on, and its off twin:
    /// `telemetry.*` and the exact per-kernel counts.
    fn program_telemetry(&mut self) {
        let (w, seed) = (self.workload, self.seed);
        let spec = w.telemetry_spec();
        // `zoo_mix_telemetry` switches telemetry on itself; its off twin is
        // `zoo_mix` on the same trace.
        let twin = if w.telemetry() { Workload::ZooMix } else { w };
        let off = run_rep(twin, seed, spec, None, false, &mut ());
        let rss_before = rss_bytes();
        let on = run_rep(w, seed, spec, None, true, &mut ());
        let rss_held = rss_bytes().saturating_sub(rss_before);
        self.violations.extend(on.violations.iter().cloned());
        if on.sim.digest != off.sim.digest {
            self.violations
                .push("telemetry changed the simulated outcome".to_string());
        }
        let log = on.trace.as_ref().expect("telemetry was switched on");
        let counts = kind_counts(log);
        let count_kind = |kind: &str| counts.get(kind).copied().unwrap_or(0);
        // Kernels on the dispatcher tiers; iterations on the LLM engine.
        let dispatched = match count_kind("kernel-dispatched") {
            0 => count_kind("decode-step") + count_kind("prefill-start"),
            n => n,
        }
        .max(1) as f64;
        let underflow = on
            .metrics
            .as_ref()
            .map_or(0, |m| m.counter("accounting_underflow"));
        self.set(
            "telemetry.overhead_ratio",
            on.drive.wall_ns as f64 / off.drive.wall_ns.max(1) as f64,
        );
        self.set("telemetry.events_per_kernel", log.len() as f64 / dispatched);
        self.set(
            "telemetry.rss_bytes_per_kernel",
            rss_held as f64 / dispatched,
        );
        for (name, count) in [
            (
                "core.dispatcher.sched_picks_per_kernel",
                count_kind("sched-decision"),
            ),
            (
                "core.dispatcher.notifs_per_kernel",
                count_kind("notif-batch"),
            ),
            (
                "core.dispatcher.occupancy_holds_per_kernel",
                count_holds(log, HoldReason::OccupancyBudget),
            ),
            (
                "core.dispatcher.notifq_holds_per_kernel",
                count_holds(log, HoldReason::NotifqBackpressure),
            ),
            (
                "core.dispatcher.dag_releases_per_kernel",
                count_kind("dag-release"),
            ),
        ] {
            self.set(name, count as f64 / dispatched);
        }
        for (name, count) in [
            (
                "core.dispatcher.kernel_retries",
                count_kind("retry-backoff"),
            ),
            ("core.dispatcher.accounting_underflow", underflow),
            ("cluster.requests_rerouted", count_kind("failover-hop")),
            ("cluster.requests_shed", count_kind("request-shed")),
            ("cluster.node_crashes", count_kind("node-crash")),
        ] {
            self.set(name, count as f64);
        }
    }

    /// Simulated-time results that carry no bound, and the rate ladder.
    fn simulated(&mut self, reference: &Rep) {
        let sim = &reference.sim;
        self.set("llm.kv.preemptions", sim.preemptions as f64);
        self.set("llm.ttft_p99_us", sim.ttft_p99_us);
        self.set("llm.tpot_p99_us", sim.tpot_p99_us);
        self.set("sim.failed_share", 1.0 - sim.served_share);
        self.set("sim.measured_completions", sim.measured as f64);
        self.set("sim.backlog_mid", sim.backlog.0 as f64);
        self.set("sim.backlog_end", sim.backlog.1 as f64);
        let Some(rates) = self.workload.ladder() else {
            return;
        };
        let names = [
            "sim.ladder_rate_1_in_limit_share",
            "sim.ladder_rate_2_in_limit_share",
            "sim.ladder_rate_3_in_limit_share",
        ];
        let mut highest = 0.0;
        for (rate, name) in rates.into_iter().zip(names) {
            let rung = Spec {
                requests: LADDER_REQUESTS,
                warmup: 0,
                rate,
            };
            let rep = run_rep(self.workload, self.seed, rung, None, false, &mut ());
            self.set(name, rep.sim.in_limit_share);
            if rep.sim.in_limit_share >= 0.99 && !rep.sim.backlog.2 {
                highest = rate;
            }
        }
        self.set("sim.max_rate_in_slo_rps", highest);
    }
}

/// Runs the traced set for `w`. Returns its per-layer metrics in
/// [`PER_LAYER`] order (0 for a layer the workload bypasses), the failed
/// checks, and the requests the reference repetition submitted.
pub fn trace(w: Workload, seed: u64, out_dir: &Path) -> (Values, Vec<String>, u64) {
    let mut table = Table {
        workload: w,
        seed,
        values: BTreeMap::new(),
        violations: Vec::new(),
    };
    let in_situ = table.spans(out_dir);
    table.replays(&in_situ);
    table.program_telemetry();
    table.simulated(&in_situ.reference);
    let values = PER_LAYER
        .iter()
        .map(|&(name, ..)| (name, table.values.get(name).copied().unwrap_or(0.0)))
        .collect();
    (
        values,
        table.violations,
        in_situ.reference.sim.submitted as u64,
    )
}
