//! Reduces one rep's outputs to simulated-time metrics and checks them.
//!
//! Everything here is virtual time: a seeded deterministic simulator must
//! reproduce these numbers exactly, so two reps of one workload are compared
//! by digest, not by tolerance.

use paella_core::{InferenceRequest, JobCompletion, JobFailure};
use paella_llm::LlmCompletion;
use paella_sim::SimTime;
use paella_workload::Arrival;

use crate::workloads::Limits;

/// What the program produced for one trace.
pub struct Outputs {
    pub completions: Vec<JobCompletion>,
    pub failures: Vec<JobFailure>,
    /// Token-level records (`llm_chat` only).
    pub llm: Vec<LlmCompletion>,
}

/// Tail percentiles the chooser may report, highest first, in per-mille.
const TAILS: [u32; 7] = [999, 990, 980, 950, 900, 800, 500];
/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;

/// Index of the `per_mille` percentile in a sorted sample of `n` (exact
/// rank `ceil(q·n)`, 1-based), or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported_rank(n: usize, per_mille: u32) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (n * per_mille as usize).div_ceil(1000).max(1);
    (n - rank >= MIN_BEYOND).then_some(rank - 1)
}

/// The requested percentile if the sample supports it, otherwise the highest
/// one that it does. Returns `(per_mille, value)`.
pub fn tail(sorted: &[u64], want_per_mille: u32) -> Option<(u32, u64)> {
    TAILS
        .into_iter()
        .filter(|&p| p <= want_per_mille)
        .find_map(|p| supported_rank(sorted.len(), p).map(|i| (p, sorted[i])))
}

fn median(sorted: &[u64]) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[(sorted.len() - 1) / 2])
}

/// Simulated-time results of one rep.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    pub submitted: usize,
    pub completed: usize,
    /// Post-warm-up completions the latency statistics cover.
    pub measured: usize,
    pub jct_p50_us: f64,
    /// `(per-mille, µs)`: p99 where ten samples lie beyond it, else the
    /// highest supported percentile.
    pub jct_tail: (u32, f64),
    pub throughput_rps: f64,
    pub goodput_rps: f64,
    /// Share of the requests *sent* that completed within their limit.
    pub in_limit_share: f64,
    /// Completions / submitted; the rest were shed, failed or never ended.
    pub served_share: f64,
    /// Kernels of completed requests (generated tokens on `llm_chat`).
    pub work_units: u64,
    pub ttft_p99_us: f64,
    pub tpot_p99_us: f64,
    pub preemptions: u64,
    /// Open requests at mid-trace and when the last one is sent, and whether
    /// that is growth.
    pub backlog: (usize, usize, bool),
    pub digest: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of what the clients saw: every completion's `(job,
/// client_visible_at)` in completion order, then every failure's identity
/// and reason. Printed, not pinned.
fn digest(out: &Outputs) -> u64 {
    let mut keys: Vec<(u64, u64, u32, u64)> = out
        .completions
        .iter()
        .map(|c| {
            (
                c.client_visible_at.as_nanos(),
                c.job.0,
                c.request.client.0,
                c.request.submitted_at.as_nanos(),
            )
        })
        .collect();
    keys.sort_unstable();
    let mut h = Fnv::new();
    for (visible, job, ..) in &keys {
        h.word(*job);
        h.word(*visible);
    }
    let mut fails: Vec<(u64, u32, u64, &str)> = out
        .failures
        .iter()
        .map(|f| {
            (
                f.at.as_nanos(),
                f.request.client.0,
                f.request.submitted_at.as_nanos(),
                f.reason.as_str(),
            )
        })
        .collect();
    fails.sort_unstable();
    for (at, client, submitted, reason) in fails {
        h.word(at);
        h.word(u64::from(client));
        h.word(submitted);
        reason.bytes().for_each(|b| h.word(u64::from(b)));
    }
    h.0
}

type RequestKey = (u64, u32, u32);

fn key(r: &InferenceRequest) -> RequestKey {
    (r.submitted_at.as_nanos(), r.client.0, r.model.0)
}

/// Requests that did not reach exactly one terminal state: submitted but
/// never completed nor failed, or reported more than once. Zero on a
/// correct run.
pub fn unaccounted(arrivals: &[Arrival], out: &Outputs) -> usize {
    let mut sent: Vec<RequestKey> = arrivals
        .iter()
        .map(|a| (a.at.as_nanos(), a.client.0, a.model.0))
        .collect();
    let mut ended: Vec<RequestKey> = out
        .completions
        .iter()
        .map(|c| key(&c.request))
        .chain(out.failures.iter().map(|f| key(&f.request)))
        .collect();
    sent.sort_unstable();
    ended.sort_unstable();
    // Size of the multiset symmetric difference.
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < sent.len() && j < ended.len() {
        match sent[i].cmp(&ended[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (sent.len() - i) + (ended.len() - j)
}

/// Reduces one rep. `kernels_per_model` is empty for `llm_chat`.
pub fn reduce(
    arrivals: &[Arrival],
    out: &Outputs,
    limits: &Limits,
    kernels_per_model: &[u64],
    warmup: usize,
) -> SimMetrics {
    let mut order: Vec<&JobCompletion> = out.completions.iter().collect();
    order.sort_by_key(|c| (c.client_visible_at, c.job.0, c.request.client.0));
    let first = arrivals.first().map_or(SimTime::ZERO, |a| a.at);
    let last = order.last().map_or(first, |c| c.client_visible_at);
    let span_s = last.saturating_since(first).as_secs_f64();
    let per_s = |n: usize| if span_s > 0.0 { n as f64 / span_s } else { 0.0 };

    let measured = &order[warmup.min(order.len())..];
    let mut jct: Vec<u64> = measured.iter().map(|c| c.jct().as_nanos()).collect();
    jct.sort_unstable();

    let mut llm: Vec<&LlmCompletion> = out.llm.iter().collect();
    llm.sort_by_key(|c| (c.finished_at, c.job.0));
    let llm_measured = &llm[warmup.min(llm.len())..];
    let mut ttft: Vec<u64> = llm_measured.iter().map(|c| c.ttft().as_nanos()).collect();
    let mut tpot: Vec<u64> = llm_measured
        .iter()
        .filter(|c| c.output_tokens > 1)
        .map(|c| c.tpot_ns())
        .collect();
    ttft.sort_unstable();
    tpot.sort_unstable();

    // Goodput counts every completion, warm-up included: the warm-up only
    // keeps an emptier-than-steady system out of the latency percentiles.
    let good = within_limit(out, limits);
    let work_units = if kernels_per_model.is_empty() {
        out.llm.iter().map(|c| c.output_tokens).sum()
    } else {
        order
            .iter()
            .map(|c| kernels_per_model[c.request.model.0 as usize])
            .sum()
    };
    let p99 = |xs: &[u64]| tail(xs, 990).map_or(0.0, |(_, v)| us(v));
    SimMetrics {
        submitted: arrivals.len(),
        completed: order.len(),
        measured: jct.len(),
        jct_p50_us: median(&jct).map_or(0.0, us),
        jct_tail: tail(&jct, 990).map_or((0, 0.0), |(p, v)| (p, us(v))),
        throughput_rps: per_s(order.len()),
        goodput_rps: per_s(good),
        in_limit_share: good as f64 / arrivals.len().max(1) as f64,
        served_share: order.len() as f64 / arrivals.len().max(1) as f64,
        work_units,
        ttft_p99_us: p99(&ttft),
        tpot_p99_us: p99(&tpot),
        preemptions: out.llm.iter().map(|c| u64::from(c.preemptions)).sum(),
        backlog: backlog_growth(arrivals, out),
        digest: digest(out),
    }
}

/// Open requests at instant `t`: submitted at or before `t` and not yet
/// completed or failed.
fn backlog_at(arrivals: &[Arrival], ends: &[SimTime], t: SimTime) -> usize {
    let sent = arrivals.partition_point(|a| a.at <= t);
    let done = ends.partition_point(|&e| e <= t);
    sent.saturating_sub(done)
}

/// A backlog smaller than this is one burst, not a trend.
const BACKLOG_FLOOR: usize = 8;

/// `(mid, end)` backlog and whether it grew: the backlog when the last
/// request is sent is larger than at mid-trace (and than the noise floor).
fn backlog_growth(arrivals: &[Arrival], out: &Outputs) -> (usize, usize, bool) {
    let mut ends: Vec<SimTime> = out
        .completions
        .iter()
        .map(|c| c.client_visible_at)
        .chain(out.failures.iter().map(|f| f.at))
        .collect();
    ends.sort_unstable();
    let (Some(mid), Some(end)) = (arrivals.get(arrivals.len() / 2), arrivals.last()) else {
        return (0, 0, false);
    };
    let mid = backlog_at(arrivals, &ends, mid.at);
    let end = backlog_at(arrivals, &ends, end.at);
    (mid, end, end > mid.max(BACKLOG_FLOOR))
}

/// Requests that completed within their latency limit. A request that
/// failed, was shed or never ended is not among them.
fn within_limit(out: &Outputs, limits: &Limits) -> usize {
    match limits {
        Limits::Jct(limit) => out
            .completions
            .iter()
            .filter(|c| c.jct() <= limit[c.request.model.0 as usize])
            .count(),
        Limits::Tokens { ttft, tpot } => out
            .llm
            .iter()
            .filter(|c| c.ttft() <= *ttft && c.tpot_ns() <= tpot.as_nanos())
            .count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_chooser_needs_ten_samples_beyond() {
        // p99 of 1,000 samples leaves exactly ten beyond it; of 999, nine.
        assert_eq!(supported_rank(1_000, 990), Some(989));
        assert_eq!(supported_rank(999, 990), None);
        assert_eq!(supported_rank(0, 500), None);
        let xs: Vec<u64> = (1..=999).collect();
        let (p, v) = tail(&xs, 990).expect("p98 is supported");
        assert_eq!(p, 980, "falls back to the highest supported percentile");
        assert_eq!(v, 980);
        let xs: Vec<u64> = (1..=60).collect();
        assert_eq!(tail(&xs, 990), Some((800, 48)), "60 samples reach p80");
        let xs: Vec<u64> = (1..=19).collect();
        assert_eq!(tail(&xs, 990), None, "19 samples support not even p50");
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&xs, 990), Some((900, 90)));
        let xs: Vec<u64> = (1..=20_000).collect();
        assert_eq!(tail(&xs, 990), Some((990, 19_800)), "never above the ask");
    }
}
