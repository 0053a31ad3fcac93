//! Figure 1: simplified illustration of NVIDIA GPU scheduling under
//! different submission methods — four tasks of three kernels each, all
//! submitted at t = 0, every kernel occupying an entire SM, on a 2-SM
//! device. Prints an ASCII timeline per SM for each submission method.

#![allow(clippy::explicit_counter_loop)]

use paella_bench::header;
use paella_gpu::{
    BlockFootprint, DeviceConfig, DurationModel, GpuSim, KernelDesc, KernelLaunch, Microarch,
    StreamId,
};
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::export::{sm_spans, SmSpan};
use paella_telemetry::Tracer;

const TASKS: u32 = 4;
const KERNELS_PER_TASK: u32 = 3;
const T_US: u64 = 100;

fn kernel(task: u32, k: u32) -> KernelDesc {
    KernelDesc {
        name: format!("{}{}", (b'A' + task as u8) as char, k + 1).into(),
        grid_blocks: 1,
        // 1024 threads: exactly one block per Turing SM.
        footprint: BlockFootprint {
            threads: 1024,
            regs_per_thread: 16,
            shmem: 0,
        },
        duration: DurationModel::fixed(SimDuration::from_micros(T_US)),
        instrumentation: None,
    }
}

fn run(
    device: DeviceConfig,
    stream_of: impl Fn(u32) -> u32,
    submit_order: &[(u32, u32)],
) -> Vec<SmSpan> {
    let mut gpu = GpuSim::new(device, 1);
    gpu.set_tracer(Tracer::enabled());
    let mut uid = 0;
    for &(task, k) in submit_order {
        uid += 1;
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid,
                stream: StreamId(stream_of(task)),
                desc: kernel(task, k),
            },
        );
    }
    let mut out = Vec::new();
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
    }
    sm_spans(&gpu.take_trace_log())
}

/// Renders a per-SM timeline: one slot per T.
fn render(name: &str, trace: &[SmSpan]) {
    println!("\n{name}");
    let end = trace.iter().map(|t| t.end.as_nanos()).max().unwrap_or(0);
    let slots = (end / (T_US * 1_000)) as usize;
    for sm in 0..2u32 {
        let mut line = format!("  SM{sm} |");
        for s in 0..slots {
            let t_mid = SimTime::from_nanos((s as u64 * T_US + T_US / 2) * 1_000);
            let k = trace
                .iter()
                .find(|t| t.sm == sm && t.start <= t_mid && t_mid < t.end)
                .map_or("--", |t| t.name.as_str());
            line.push_str(&format!(" {k:>2} |"));
        }
        println!("{line}");
    }
    let makespan = SimDuration::from_nanos(end);
    println!("  makespan: {makespan}");
}

fn natural_order() -> Vec<(u32, u32)> {
    // One model at a time: A1 A2 A3 B1 B2 B3 …
    (0..TASKS)
        .flat_map(|t| (0..KERNELS_PER_TASK).map(move |k| (t, k)))
        .collect()
}

fn main() {
    header(
        "Figure 1",
        "GPU scheduling under different submission methods (4 tasks x 3 kernels, 2 SMs)",
    );

    // Ideal: a software scheduler interleaves kernels so every task makes
    // progress and mean JCT is minimized for this workload shape. Emulated
    // here by choosing the kernel submission order with full knowledge.
    let ideal_order: Vec<(u32, u32)> = vec![
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
        (0, 2),
        (1, 2),
        (2, 0),
        (3, 0),
        (2, 1),
        (3, 1),
        (2, 2),
        (3, 2),
    ];
    let titles = [
        // Baseline: a single stream — everything serializes.
        "Baseline (single stream)",
        // Streams on Fermi: one hardware queue shared by all streams; only
        // the first/last kernels of adjacent tasks overlap.
        "Streams (Fermi and earlier): 1 hardware queue",
        // Streams on Kepler+/MPS: queue per stream; two tasks run
        // concurrently, the other two wait for full completions.
        "Streams (Kepler and later) and MPS (Volta and later): 32 queues",
        "Ideal (software-defined order, e.g. Paella)",
    ];
    // Each submission method is an independent simulation cell.
    let traces = paella_bench::sweep::run_grid(titles.len(), |i| match i {
        0 => run(
            DeviceConfig::tiny(2, 1, Microarch::Fermi),
            |_| 1,
            &natural_order(),
        ),
        1 => run(
            DeviceConfig::tiny(2, 1, Microarch::Fermi),
            |t| t + 1,
            &natural_order(),
        ),
        2 => run(
            DeviceConfig::tiny(2, 32, Microarch::KeplerPlus),
            |t| t + 1,
            &natural_order(),
        ),
        _ => run(
            DeviceConfig::tiny(2, 32, Microarch::KeplerPlus),
            |t| t + 1,
            &ideal_order,
        ),
    });
    for (title, trace) in titles.iter().zip(&traces) {
        render(title, trace);
    }

    println!(
        "\nNote: with a natural submission order, Fermi-era queues serialize all but \
         adjacent tasks' first/last kernels; Kepler+ runs two tasks concurrently; \
         no supported hardware ordering achieves the ideal schedule (Section 2.1)."
    );
}
