//! Figure 10: per-request overhead breakdown (framework, queuing/
//! scheduling, communication, client send/recv) for a single MobileNetV2
//! request across Paella, its ablations, Triton, and Clockwork. All CUDA
//! execution time is excluded.

use paella_bench::claims::fig10;
use paella_bench::{f, header, row};
use paella_workload::SystemKey;

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
        let b = fig10(key, 20, 17);
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
