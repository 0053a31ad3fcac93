//! Metric names, units and the two output formats: `workload metric value
//! unit` lines for people, and the one-line JSON object the driver reads.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test keeps
//! the two in step.

/// `(name, unit, better, bound)` of every end-to-end metric, in print order.
/// Every workload reports every one of them, and none is ever zero. `bound`
/// is the share of the parent's median by which a later change may worsen
/// the metric.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("host_us_per_request", "us", "lower", 0.25),
    ("host_ns_per_kernel", "ns", "lower", 0.25),
    ("host_peak_rss_mb", "MB", "lower", 0.12),
    ("sim_jct_p50_us", "us", "lower", 0.18),
    ("sim_jct_p99_us", "us", "lower", 0.25),
    ("sim_throughput_rps", "req/s", "higher", 0.05),
    ("sim_goodput_rps", "req/s", "higher", 0.18),
    ("sim_served_share", "ratio", "higher", 0.01),
];

/// `(name, unit, better)` of every per-layer metric, in print order. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    // In situ, from the traced run's spans.
    ("core.serve.submit_ns", "ns", "lower"),
    ("core.serve.advance_ns", "ns", "lower"),
    ("core.serve.next_event_ns", "ns", "lower"),
    ("core.serve.drain_ns", "ns", "lower"),
    ("core.serve.submit_share", "ratio", "lower"),
    ("core.serve.advance_share", "ratio", "lower"),
    ("core.serve.calls_per_request", "count", "lower"),
    ("core.sched.pick_ns", "ns", "lower"),
    ("core.sched.update_ns", "ns", "lower"),
    ("core.sched.calls_per_kernel", "count", "lower"),
    ("core.sched.ready_len_mean", "count", "lower"),
    ("core.sched.share", "ratio", "lower"),
    ("llm.engine.advance_ns", "ns", "lower"),
    ("llm.engine.token_ns", "ns", "lower"),
    ("host.oncpu_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
    // Isolated replay drivers.
    ("sim.event.hold_ns", "ns", "lower"),
    ("sim.event.hold_deep_ns", "ns", "lower"),
    ("sim.event.cancel_ns", "ns", "lower"),
    ("gpu.engine.kernel_ns", "ns", "lower"),
    ("gpu.engine.block_ns", "ns", "lower"),
    ("gpu.engine.outputs_per_kernel", "count", "lower"),
    ("gpu.engine.share_est", "ratio", "lower"),
    ("core.waitlist.op_ns", "ns", "lower"),
    ("core.waitlist.ingest_ns_per_job", "ns", "lower"),
    ("core.waitlist.drain_ns", "ns", "lower"),
    ("core.occupancy.kernel_ns", "ns", "lower"),
    ("core.occupancy.notify_ns", "ns", "lower"),
    ("core.occupancy.should_dispatch_ns", "ns", "lower"),
    ("core.dispatcher.load_signal_ns", "ns", "lower"),
    ("core.dispatcher.register_model_ms", "ms", "lower"),
    ("core.dispatcher.residual_ns_per_kernel", "ns", "lower"),
    ("channels.notifq_ns", "ns", "lower"),
    ("channels.spsc_ns", "ns", "lower"),
    ("channels.doorbell_ns", "ns", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("models.zoo_build_ms", "ms", "lower"),
    ("workload.gen.arrival_ns", "ns", "lower"),
    ("cluster.router.pick_ns", "ns", "lower"),
    ("cluster.tier_overhead_ratio", "ratio", "lower"),
    ("llm.kv.op_ns", "ns", "lower"),
    ("telemetry.record_ns", "ns", "lower"),
    ("telemetry.inc_ns", "ns", "lower"),
    // Exact counts, from the program's own telemetry or its completions.
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("telemetry.events_per_kernel", "count", "lower"),
    ("telemetry.rss_bytes_per_kernel", "B", "lower"),
    ("core.dispatcher.sched_picks_per_kernel", "count", "lower"),
    ("core.dispatcher.notifs_per_kernel", "count", "lower"),
    (
        "core.dispatcher.occupancy_holds_per_kernel",
        "count",
        "lower",
    ),
    ("core.dispatcher.notifq_holds_per_kernel", "count", "lower"),
    ("core.dispatcher.dag_releases_per_kernel", "count", "higher"),
    ("core.dispatcher.kernel_retries", "count", "lower"),
    ("core.dispatcher.accounting_underflow", "count", "lower"),
    ("cluster.requests_rerouted", "count", "lower"),
    ("cluster.requests_shed", "count", "lower"),
    ("cluster.node_crashes", "count", "lower"),
    ("llm.kv.preemptions", "count", "lower"),
    // Simulated-time results that one workload owns or that step between a
    // few values, so they carry no bound (see README, "What moved").
    ("sim.max_rate_in_slo_rps", "req/s", "higher"),
    ("sim.ladder_rate_1_in_limit_share", "ratio", "higher"),
    ("sim.ladder_rate_2_in_limit_share", "ratio", "higher"),
    ("sim.ladder_rate_3_in_limit_share", "ratio", "higher"),
    ("sim.backlog_mid", "count", "lower"),
    ("sim.backlog_end", "count", "lower"),
    ("sim.failed_share", "ratio", "lower"),
    ("sim.measured_completions", "count", "higher"),
    ("llm.ttft_p99_us", "us", "lower"),
    ("llm.tpot_p99_us", "us", "lower"),
];

/// Metric values of one run, by name.
pub type Values = Vec<(&'static str, f64)>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"))
}

/// Prints `workload metric value unit`, one line per metric.
pub fn print_lines(workload: &str, values: &Values) {
    for (name, value) in values {
        println!("{workload} {name} {value} {}", unit_of(name));
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Values print with every digit `f64` carries.
pub fn json_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` under the array that follows `"<section>":`.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\":"))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), want);
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "per_layer"), want);
        let want: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names_in(&json, "workloads"), want);
        // Units, directions and bounds agree too: the file repeats each
        // entry as `"name": .., "unit": .., "better": ..[, "bound": ..]`.
        for &(name, unit, better, bound) in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for &(name, unit, better) in &PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_has_the_four_keys_and_full_precision() {
        let line = json_line(true, 10, 0, &vec![("setup_s", 0.1 + 0.2)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
