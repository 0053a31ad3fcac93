//! The metrics registry: aggregates only — counters, log-bucketed
//! histograms and the per-tenant SLO ledger. A per-instant value (a queue
//! depth, a sampling tick) lives only in the trace.
//!
//! Metrics are kept by name in first-use order and listed by name, so every
//! exported rendering is deterministic.

use std::collections::BTreeMap;

/// A power-of-two-bucketed histogram over `u64` values (typically
/// nanoseconds). Bucket `i` counts values whose bit length is `i`, i.e.
/// `[2^(i-1), 2^i)` for `i ≥ 1` and the single value `0` for bucket 0 —
/// 65 buckets cover the full domain, so no sample is ever out of range.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: u64) {
        self.buckets[(64 - x.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += u128::from(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`) —
    /// a factor-of-two estimate, which is what log buckets buy.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bound(i));
            }
        }
        Some(self.max)
    }

    /// Upper bound of bucket `i`. Bucket 64 holds values in
    /// `[2^63, u64::MAX]`, whose true bound 2^64 doesn't fit in `u64` —
    /// it saturates to `u64::MAX`.
    fn bucket_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => 1u64 << i,
        }
    }

    /// Non-empty buckets as `(bucket_upper_bound, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_bound(i), c))
    }
}

/// Per-tenant SLO ledger, accumulated on virtual time (DESIGN §12).
#[derive(Clone, Default, Debug)]
struct TenantSlo {
    completed: u64,
    slo_ok: u64,
    slo_miss: u64,
    burn_ns: u64,
    failures: BTreeMap<&'static str, u64>,
}

/// Values by name, in first-use order. A name is found by its address first
/// — a call site passes the same literal every time — and by its text only
/// when no address matches, so two copies of one literal name one value.
#[derive(Clone, Debug)]
struct Named<T>(Vec<(&'static str, T)>);

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named(Vec::new())
    }
}

impl<T: Default> Named<T> {
    /// The value named `name`, created at its default on first use.
    fn entry(&mut self, name: &'static str) -> &mut T {
        let found = (self.0.iter().position(|&(k, _)| std::ptr::eq(k, name)))
            .or_else(|| self.0.iter().position(|&(k, _)| k == name));
        let i = found.unwrap_or_else(|| {
            self.0.push((name, T::default()));
            self.0.len() - 1
        });
        &mut self.0[i].1
    }
}

impl<T> Named<T> {
    fn get(&self, name: &str) -> Option<&T> {
        self.0.iter().find(|&&(k, _)| k == name).map(|(_, v)| v)
    }

    /// Every `(name, value)`, name-sorted, through `f`.
    fn sorted<U>(&self, f: impl Fn(&T) -> U) -> Vec<(String, U)> {
        let mut all: Vec<(String, U)> = self.0.iter().map(|(k, v)| (k.to_string(), f(v))).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

/// A registry of named metrics, all updated on virtual time.
#[derive(Clone, Default, Debug)]
pub struct MetricsRegistry {
    counters: Named<u64>,
    histograms: Named<LogHistogram>,
    tenant_slo: BTreeMap<u32, TenantSlo>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a monotonic counter.
    pub fn inc(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name) += n;
    }

    /// Adds one observation to a log-bucketed histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).push(value);
    }

    /// Records one completed request for `tenant`'s SLO ledger.
    /// `met_deadline` is whether the request finished within its deadline
    /// (requests with no deadline configured count as met); `burn_ns` is
    /// the error-budget burn — the virtual nanoseconds the completion ran
    /// *past* its deadline (0 when met).
    pub fn slo_complete(&mut self, tenant: u32, met_deadline: bool, burn_ns: u64) {
        let t = self.tenant_slo.entry(tenant).or_default();
        t.completed += 1;
        if met_deadline {
            t.slo_ok += 1;
        } else {
            t.slo_miss += 1;
            t.burn_ns = t.burn_ns.saturating_add(burn_ns);
        }
    }

    /// Records one terminally failed request for `tenant`'s SLO ledger,
    /// broken out by the failure's stable reason label
    /// (`FailureReason::as_str`).
    pub fn slo_fail(&mut self, tenant: u32, reason: &'static str) {
        *self
            .tenant_slo
            .entry(tenant)
            .or_default()
            .failures
            .entry(reason)
            .or_insert(0) += 1;
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Freezes the registry into a plain snapshot for reports.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.sorted(|&v| v),
            histograms: self.histograms.sorted(|h| HistogramSummary {
                count: h.count(),
                mean: h.mean(),
                min: h.min().unwrap_or(0),
                max: h.max().unwrap_or(0),
                p50_bound: h.quantile_bound(0.50).unwrap_or(0),
                p99_bound: h.quantile_bound(0.99).unwrap_or(0),
            }),
            tenant_slo: self
                .tenant_slo
                .iter()
                .map(|(&t, s)| {
                    (
                        t,
                        TenantSloSummary {
                            completed: s.completed,
                            slo_ok: s.slo_ok,
                            slo_miss: s.slo_miss,
                            burn_ns: s.burn_ns,
                            failures: s
                                .failures
                                .iter()
                                .map(|(&r, &n)| (r.to_string(), n))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Reduced view of one histogram.
#[derive(Clone, PartialEq, Debug)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Factor-of-two upper bound on the median.
    pub p50_bound: u64,
    /// Factor-of-two upper bound on the 99th percentile.
    pub p99_bound: u64,
}

/// One tenant's frozen SLO ledger: deadline attainment and error-budget
/// burn on the virtual clock, with terminal failures broken out per
/// `FailureReason` label.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct TenantSloSummary {
    /// Requests that completed (within deadline or not).
    pub completed: u64,
    /// Completions that met their deadline (or had none configured).
    pub slo_ok: u64,
    /// Completions past their deadline.
    pub slo_miss: u64,
    /// Error-budget burn: total virtual nanoseconds completions ran past
    /// their deadlines.
    pub burn_ns: u64,
    /// Terminal failures per stable reason label, reason-sorted.
    pub failures: Vec<(String, u64)>,
}

impl TenantSloSummary {
    /// Deadline attainment over completions, in basis points
    /// (0..=10000); 10000 when the tenant has no completions.
    pub fn attainment_bp(&self) -> u64 {
        (self.slo_ok * 10_000)
            .checked_div(self.completed)
            .unwrap_or(10_000)
    }
}

/// A frozen, ordered copy of a [`MetricsRegistry`] for `RunStats` and
/// reports.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct MetricsSnapshot {
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-tenant SLO ledgers, tenant-sorted.
    pub tenant_slo: Vec<(u32, TenantSloSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Completions booked across every tenant's SLO ledger.
    pub fn slo_completed(&self) -> u64 {
        self.tenant_slo.iter().map(|(_, s)| s.completed).sum()
    }

    /// Terminal failures booked across every tenant's SLO ledger, all
    /// reasons together.
    pub fn slo_failures(&self) -> u64 {
        let per_tenant = |s: &TenantSloSummary| s.failures.iter().map(|&(_, n)| n).sum::<u64>();
        self.tenant_slo.iter().map(|(_, s)| per_tenant(s)).sum()
    }

    /// One tenant's SLO ledger, if it recorded anything.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantSloSummary> {
        self.tenant_slo
            .iter()
            .find(|&&(t, _)| t == tenant)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::new();
        for x in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.push(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        // 0 → bucket 0; 1 → (0,1]; 2,3 → (1,4); 4 → 8-bound; 1000 → 1024.
        assert!(buckets.contains(&(0, 1)));
        assert!(buckets.contains(&(2, 1)));
        assert!(buckets.contains(&(4, 2)));
        assert!(buckets.contains(&(1024, 1)));
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 7, "no sample may fall outside the buckets");
    }

    #[test]
    fn quantile_bounds_are_monotone() {
        let mut h = LogHistogram::new();
        for x in 1..=1000u64 {
            h.push(x);
        }
        let p50 = h.quantile_bound(0.5).unwrap();
        let p99 = h.quantile_bound(0.99).unwrap();
        assert!(p50 <= p99);
        assert!((512..=1024).contains(&p50), "p50 bound {p50}");
        assert_eq!(LogHistogram::new().quantile_bound(0.5), None);
    }

    #[test]
    fn registry_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.inc("jobs", 2);
        m.inc("jobs", 3);
        m.observe("jct_ns", 1500);
        assert_eq!(m.counter("jobs"), 5);
        assert_eq!(m.counter("missing"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("jobs"), 5);
        assert_eq!(snap.histograms[0].0, "jct_ns");
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn a_name_at_two_addresses_is_one_metric() {
        let copy: &'static str = String::from("jobs").leak();
        assert!(!std::ptr::eq(copy, "jobs"));
        let mut m = MetricsRegistry::new();
        m.inc("jobs", 1);
        m.inc(copy, 2);
        m.observe(copy, 4);
        m.observe("jobs", 5);
        let snap = m.snapshot();
        assert_eq!(snap.counters, vec![("jobs".to_string(), 3)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);
    }

    #[test]
    fn histogram_percentile_edges() {
        // Empty: no quantiles at all.
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile_bound(0.0), None);
        assert_eq!(empty.quantile_bound(0.99), None);
        assert_eq!(empty.iter().count(), 0);

        // Single sample: every quantile lands in its bucket.
        let mut single = LogHistogram::new();
        single.push(1000);
        assert_eq!(single.quantile_bound(0.0), Some(1024));
        assert_eq!(single.quantile_bound(0.5), Some(1024));
        assert_eq!(single.quantile_bound(1.0), Some(1024));

        // All samples in the overflow bucket (bit length 64): the bound
        // must saturate to u64::MAX, not wrap to 0.
        let mut overflow = LogHistogram::new();
        for _ in 0..3 {
            overflow.push(u64::MAX);
        }
        assert_eq!(overflow.quantile_bound(0.5), Some(u64::MAX));
        assert_eq!(overflow.quantile_bound(0.99), Some(u64::MAX));
        let buckets: Vec<(u64, u64)> = overflow.iter().collect();
        assert_eq!(buckets, vec![(u64::MAX, 3)]);

        // Exact bucket boundary: 2^k opens bucket k+1, so its bound is
        // 2^(k+1), not 2^k.
        let mut boundary = LogHistogram::new();
        boundary.push(8);
        assert_eq!(boundary.quantile_bound(0.5), Some(16));
        boundary.push(7);
        assert_eq!(boundary.quantile_bound(0.0), Some(8), "7 ∈ [4,8)");
    }

    #[test]
    fn snapshot_is_insertion_order_independent() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.inc("y", 2);
        a.observe("h", 10);
        a.observe("i", 5);
        a.slo_fail(2, "shed");
        a.slo_complete(1, true, 0);
        let mut b = MetricsRegistry::new();
        b.slo_complete(1, true, 0);
        b.slo_fail(2, "shed");
        b.observe("i", 5);
        b.observe("h", 10);
        b.inc("y", 2);
        b.inc("x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn slo_ledger_accounts_attainment_and_burn() {
        let mut m = MetricsRegistry::new();
        m.slo_complete(1, true, 0);
        m.slo_complete(1, false, 500);
        m.slo_complete(1, false, 700);
        m.slo_fail(1, "retry-budget-exhausted");
        m.slo_fail(1, "retry-budget-exhausted");
        m.slo_fail(1, "node-crash");
        let snap = m.snapshot();
        let t = snap.tenant(1).unwrap();
        assert_eq!(t.completed, 3);
        assert_eq!(t.slo_ok, 1);
        assert_eq!(t.slo_miss, 2);
        assert_eq!(t.burn_ns, 1200);
        assert_eq!(t.attainment_bp(), 3333);
        assert_eq!(
            t.failures,
            vec![
                ("node-crash".to_string(), 1),
                ("retry-budget-exhausted".to_string(), 2)
            ]
        );
        assert!(snap.tenant(9).is_none());
        assert_eq!(TenantSloSummary::default().attainment_bp(), 10_000);
    }
}
