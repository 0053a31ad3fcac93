//! Figure 15: the device-side overhead of Paella's kernel instrumentation.
//! An empty kernel whose only task is to post placement/completion
//! notifications is executed repeatedly; we report the CDF of host-observed
//! execution time (launch initiation to synchronization return) for the
//! uninstrumented kernel, instrumentation without block aggregation, and
//! full instrumentation, at grid sizes 16 and 160 blocks.

#![allow(clippy::explicit_counter_loop)]

use paella_bench::{f, header, row, scaled};
use paella_channels::CudaRuntimeModel;
use paella_gpu::{DeviceConfig, GpuSim, InstrumentationSpec, KernelLaunch, StreamId};
use paella_models::synthetic;
use paella_sim::{Percentiles, SimTime};

fn exec_times(blocks: u32, instr: Option<InstrumentationSpec>, runs: usize) -> Percentiles {
    let mut p = Percentiles::new();
    let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 41);
    let mut out = Vec::new();
    let mut uid = 0;
    let mut t = SimTime::ZERO;
    for _ in 0..runs {
        uid += 1;
        let launch_at = t;
        gpu.launch_kernel(
            launch_at,
            KernelLaunch {
                uid,
                stream: StreamId(1),
                desc: synthetic::empty_kernel(blocks, instr),
            },
        );
        // Drain until this kernel completes.
        let mut done_at = launch_at;
        while let Some(next) = gpu.next_time() {
            out.clear();
            gpu.advance_until(next, &mut out);
            if out.iter().any(
                |o| matches!(o, paella_gpu::GpuOutput::KernelCompleted { uid: u, .. } if *u == uid),
            ) {
                done_at = next;
                break;
            }
        }
        // Host-observed execution: launch overhead + device time + the
        // synchronization return.
        let host_us = (CudaRuntimeModel::LAUNCH_OVERHEAD + CudaRuntimeModel::STREAM_SYNCHRONIZE)
            .as_micros_f64();
        p.push(done_at.saturating_since(launch_at).as_micros_f64() + host_us);
        t = done_at + paella_sim::SimDuration::from_micros(5);
    }
    p
}

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
        exec_times(blocks, instr, runs)
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
        exec_times(160, Some(spec_for(aggs[i])), runs / 2)
    });
    for (&agg, mut p) in aggs.iter().zip(ablation) {
        row(&[
            agg.to_string(),
            f(p.quantile(0.9).unwrap()),
            spec_for(agg).notifications_for(160).to_string(),
        ]);
    }
}
