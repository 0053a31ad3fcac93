//! The experiment runner: drives a [`ServingSystem`] through a pre-generated
//! arrival trace on virtual time and reduces completions to the metrics the
//! paper plots (p99 JCT, mean latency, throughput, per-model stats).

use std::collections::BTreeMap;

use paella_core::{InferenceRequest, JobCompletion, JobFailure, ModelId, ServingSystem};
use paella_sim::{Percentiles, SimDuration, SimTime};
use paella_telemetry::{MetricsSnapshot, TraceLog};

use crate::gen::Arrival;

/// Reduced metrics from one run.
#[derive(Debug)]
pub struct RunStats {
    /// All completions, in completion order.
    pub completions: Vec<JobCompletion>,
    /// All terminal failures (shed, deadline, disconnect, crash loss), in
    /// the order the system booked them.
    pub failures: Vec<JobFailure>,
    /// Span from first submission to last completion.
    pub span: SimDuration,
    /// Completed requests per second over the span.
    pub throughput: f64,
    /// JCT percentiles, microseconds.
    pub jct_us: Percentiles,
    /// Per-model JCT percentiles.
    pub per_model_jct_us: BTreeMap<ModelId, Percentiles>,
    /// The run's structured trace, when the system had telemetry enabled.
    pub trace: Option<TraceLog>,
    /// The run's metrics snapshot, when the system had telemetry enabled.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunStats {
    /// The paper's headline tail metric: p99 JCT in microseconds.
    pub fn p99_us(&mut self) -> f64 {
        self.jct_us.p99().unwrap_or(f64::NAN)
    }

    /// Mean JCT in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.jct_us.mean().unwrap_or(f64::NAN)
    }

    /// p99 JCT for one model, microseconds.
    pub fn model_p99_us(&mut self, model: ModelId) -> Option<f64> {
        self.per_model_jct_us.get_mut(&model).and_then(|p| p.p99())
    }

    /// Mean JCT for one model, microseconds.
    pub fn model_mean_us(&self, model: ModelId) -> Option<f64> {
        self.per_model_jct_us.get(&model).and_then(|p| p.mean())
    }
}

/// Runs `system` through `arrivals` to completion and reduces the metrics.
///
/// The first `warmup` completions are excluded from statistics (the paper
/// waits "for results to stabilize before gathering measurements").
pub fn run_trace(system: &mut dyn ServingSystem, arrivals: &[Arrival], warmup: usize) -> RunStats {
    let mut completions = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        // Let the system catch up to this arrival, then submit.
        loop {
            match system.next_event_time() {
                Some(t) if t <= a.at => system.advance_until(t),
                _ => break,
            }
        }
        system.submit(InferenceRequest {
            client: a.client,
            model: a.model,
            submitted_at: a.at,
        });
        completions.append(&mut system.drain_completions());
    }
    system.run_to_idle();
    completions.append(&mut system.drain_completions());
    completions.sort_by_key(|c| c.client_visible_at);
    // Taken once, at idle: a cluster post-mortem reports how many failures
    // sit undrained, so draining mid-run would change its dumps.
    let failures = system.drain_failures();

    let first_submit = arrivals.first().map(|a| a.at).unwrap_or(SimTime::ZERO);
    let last_done = completions
        .last()
        .map(|c| c.client_visible_at)
        .unwrap_or(first_submit);
    let span = last_done.saturating_since(first_submit);
    let throughput = if span == SimDuration::ZERO {
        0.0
    } else {
        completions.len() as f64 / span.as_secs_f64()
    };

    let mut jct_us = Percentiles::new();
    let mut per_model: BTreeMap<ModelId, Percentiles> = BTreeMap::new();
    for c in completions.iter().skip(warmup) {
        let us = c.jct().as_micros_f64();
        jct_us.push(us);
        per_model.entry(c.request.model).or_default().push(us);
    }
    RunStats {
        completions,
        failures,
        span,
        throughput,
        jct_us,
        per_model_jct_us: per_model,
        trace: system.take_trace_log(),
        metrics: system.metrics_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Mix, WorkloadSpec};
    use paella_channels::ChannelConfig;
    use paella_core::{Dispatcher, DispatcherConfig, SrptDeficitScheduler};
    use paella_gpu::DeviceConfig;
    use paella_models::synthetic;

    fn system() -> Dispatcher {
        Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            11,
        )
    }

    #[test]
    fn run_trace_completes_everything() {
        let mut sys = system();
        let m = sys.register_model(&synthetic::tiny_model(SimDuration::from_micros(50)));
        let arrivals = generate(&WorkloadSpec::steady(2_000.0, 300), &Mix::single(m));
        let mut stats = run_trace(&mut sys, &arrivals, 50);
        assert_eq!(stats.completions.len(), 300);
        assert!(stats.throughput > 0.0);
        assert!(stats.p99_us() >= stats.jct_us.p50().unwrap());
        assert_eq!(stats.jct_us.count(), 250, "warmup excluded");
    }

    #[test]
    fn per_model_stats_partition() {
        let mut sys = system();
        let a = sys.register_model(&synthetic::tiny_model(SimDuration::from_micros(50)));
        let b = sys.register_model(&synthetic::uniform_job(
            "b",
            4,
            SimDuration::from_micros(100),
            8,
        ));
        let arrivals = generate(&WorkloadSpec::steady(1_000.0, 200), &Mix::uniform(&[a, b]));
        let stats = run_trace(&mut sys, &arrivals, 0);
        let na = stats
            .per_model_jct_us
            .get(&a)
            .map(|p| p.count())
            .unwrap_or(0);
        let nb = stats
            .per_model_jct_us
            .get(&b)
            .map(|p| p.count())
            .unwrap_or(0);
        assert_eq!(na + nb, 200);
        assert!(na > 50 && nb > 50, "roughly uniform split: {na}/{nb}");
        // The 4-kernel job must be slower on average.
        assert!(stats.model_mean_us(b).unwrap() > stats.model_mean_us(a).unwrap());
    }
}
