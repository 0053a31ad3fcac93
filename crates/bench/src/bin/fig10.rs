//! Figure 10: per-request overhead breakdown (framework, queuing/
//! scheduling, communication, client send/recv) for a single MobileNetV2
//! request across Paella, its ablations, Triton, and Clockwork. All CUDA
//! execution time is excluded.

use paella_bench::{device, f, header, row, zoo};
use paella_core::{ClientId, InferenceRequest};
use paella_sim::SimTime;
use paella_workload::{average_breakdown, make_system, SystemKey};

fn main() {
    header(
        "Figure 10",
        "overhead breakdown for one MobileNetV2 request (us); device time excluded",
    );
    row(&[
        "system".into(),
        "framework_us".into(),
        "queuing_scheduling_us".into(),
        "communication_us".into(),
        "client_send_recv_us".into(),
        "total_overhead_us".into(),
    ]);
    let mut zoo = zoo();
    let model = zoo.get("mobilenetv2").clone();
    let systems = [
        SystemKey::Triton,
        SystemKey::Clockwork,
        SystemKey::Paella,
        SystemKey::PaellaMsKbk,
        SystemKey::PaellaMsJbj,
        SystemKey::PaellaSs,
        SystemKey::PaellaSjf,
        SystemKey::PaellaRr,
    ];
    // One isolated-request run per compared system.
    let grid = paella_bench::sweep::run_grid(systems.len(), |i| {
        let key = systems[i];
        let mut sys = make_system(key, device(), 17);
        let id = sys.register_model(&model);
        // Average over several isolated requests (spaced far apart so no
        // queuing from contention).
        for i in 0..20u64 {
            sys.submit(InferenceRequest {
                client: ClientId(0),
                model: id,
                submitted_at: SimTime::from_millis(i * 50),
            });
        }
        sys.run_to_idle();
        let done = sys.drain_completions();
        assert_eq!(done.len(), 20, "{}", key.key());
        let b = average_breakdown(&done);
        [
            key.key().to_string(),
            f(b.framework),
            f(b.queuing_scheduling),
            f(b.communication),
            f(b.client_send_recv),
            f(b.overhead()),
        ]
    });
    for r in &grid {
        row(r);
    }
}
