//! Demonstrate head-of-line blocking in the GPU hardware queues (§2.1) and
//! how Paella's occupancy-aware dispatching sidesteps it — a runnable
//! miniature of the Fig. 2 motivation experiment.
//!
//! Run with: `cargo run --release --example hol_blocking`

use paella_core::{ClientId, InferenceRequest};
use paella_gpu::{blocks_per_sm, BlockFootprint, DeviceConfig, SmLimits};
use paella_models::synthetic;
use paella_sim::SimTime;
use paella_workload::{make_system, SystemKey};

fn main() {
    let device = DeviceConfig::gtx_1660_super();
    let fp = BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    };
    let per_sm = blocks_per_sm(&fp, &SmLimits::TURING);
    let capacity = per_sm * device.num_sms;
    println!(
        "device: {} ({} SMs, {} hardware queues) — capacity for this kernel: {capacity} blocks",
        device.name, device.num_sms, device.num_hw_queues
    );
    println!(
        "worst case under job-by-job submission: {} dependent chains fill the queues,\n\
         using {}/{capacity} = {:.0}% of the device\n",
        device.num_hw_queues,
        device.num_hw_queues,
        device.num_hw_queues as f64 / f64::from(capacity) * 100.0
    );

    // 128 jobs of 8 chained single-block kernels (~300 µs each), all at t=0.
    const JOBS: u32 = 128;
    for key in [SystemKey::PaellaMsJbj, SystemKey::Paella] {
        let mut sys = make_system(key, device.clone(), 3);
        let m = sys.register_model(&synthetic::fig2_job());
        for j in 0..JOBS {
            sys.submit(InferenceRequest {
                client: ClientId(j % 16),
                model: m,
                submitted_at: SimTime::ZERO,
            });
        }
        sys.run_to_idle();
        let done = sys.drain_completions();
        assert_eq!(done.len(), JOBS as usize);
        let makespan = done.iter().map(|c| c.client_visible_at).max().unwrap();
        let mean_ms = done.iter().map(|c| c.jct().as_millis_f64()).sum::<f64>() / JOBS as f64;
        let label = match key {
            SystemKey::PaellaMsJbj => "job-by-job (fills hardware queues)",
            _ => "Paella (occupancy-aware dispatch) ",
        };
        println!("{label}: makespan {makespan}, mean JCT {mean_ms:.1} ms");
    }
    println!(
        "\nJob-by-job submission leaves the device mostly idle behind dependent\n\
         queue heads; Paella releases each kernel only when it can be placed,\n\
         so independent blocks from many jobs interleave freely."
    );
}
