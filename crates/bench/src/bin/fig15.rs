//! Figure 15: the device-side overhead of Paella's kernel instrumentation.
//! An empty kernel whose only task is to post placement/completion
//! notifications is executed repeatedly; we report the CDF of host-observed
//! execution time (launch initiation to synchronization return) for the
//! uninstrumented kernel, instrumentation without block aggregation, and
//! full instrumentation, at grid sizes 16 and 160 blocks.

use paella_bench::claims::fig15;
use paella_bench::{f, header, row, scaled};
use paella_gpu::InstrumentationSpec;

fn main() {
    header(
        "Figure 15",
        "CDF of host-observed execution time for empty kernels: no-op vs instrumentation without/with aggregation",
    );
    row(&["variant".into(), "p_cdf".into(), "exec_time_us".into()]);
    let runs = scaled(2_000);
    let variants: [(&str, u32, Option<InstrumentationSpec>); 6] = [
        ("noop-16blk", 16, None),
        ("noop-160blk", 160, None),
        (
            "noagg-16blk",
            16,
            Some(InstrumentationSpec::without_aggregation()),
        ),
        (
            "noagg-160blk",
            160,
            Some(InstrumentationSpec::without_aggregation()),
        ),
        ("agg-16blk", 16, Some(InstrumentationSpec::default())),
        ("agg-160blk", 160, Some(InstrumentationSpec::default())),
    ];
    // One repeated-execution CDF per instrumentation variant.
    let grid = paella_bench::sweep::run_grid(variants.len(), |i| {
        let (_, blocks, instr) = variants[i];
        fig15(blocks, instr, runs, 41)
    });
    let mut p90s = Vec::new();
    for ((name, _, _), mut p) in variants.into_iter().zip(grid) {
        for (v, frac) in p.cdf(25) {
            row(&[name.to_string(), f(frac), f(v)]);
        }
        p90s.push((name, p.quantile(0.9).unwrap()));
    }
    println!("# 90th-percentile execution times (us):");
    for (name, p90) in &p90s {
        println!("#   {name}: {}", f(*p90));
    }
    let noop160 = p90s.iter().find(|(n, _)| *n == "noop-160blk").unwrap().1;
    let noagg160 = p90s.iter().find(|(n, _)| *n == "noagg-160blk").unwrap().1;
    let agg16 = p90s.iter().find(|(n, _)| *n == "agg-16blk").unwrap().1;
    let agg160 = p90s.iter().find(|(n, _)| *n == "agg-160blk").unwrap().1;
    println!(
        "# overhead vs no-op at p90: noagg-160blk +{} us (paper ~2.2), agg-16blk +{} us (paper ~5.5), agg-160blk +{} us (paper ~6.6)",
        f(noagg160 - noop160),
        f(agg16 - p90s[0].1),
        f(agg160 - noop160),
    );

    // Ablation (DESIGN.md): sweep the aggregation factor. Larger factors
    // post fewer notifQ words (dispatcher-side win) at slightly higher
    // device-side cost per kernel.
    println!("\n# ablation: aggregation factor sweep (160-block kernel)");
    row(&[
        "aggregation".into(),
        "p90_exec_us".into(),
        "notif_words_per_phase".into(),
    ]);
    let aggs = [1u32, 4, 8, 16, 32];
    let spec_for = |agg: u32| {
        if agg == 1 {
            InstrumentationSpec::without_aggregation()
        } else {
            InstrumentationSpec {
                aggregation: agg,
                ..InstrumentationSpec::default()
            }
        }
    };
    let ablation = paella_bench::sweep::run_grid(aggs.len(), |i| {
        fig15(160, Some(spec_for(aggs[i])), runs / 2, 41)
    });
    for (&agg, mut p) in aggs.iter().zip(ablation) {
        row(&[
            agg.to_string(),
            f(p.quantile(0.9).unwrap()),
            spec_for(agg).notifications_for(160).to_string(),
        ]);
    }
}
