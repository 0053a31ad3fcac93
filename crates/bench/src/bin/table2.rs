//! Table 2: the evaluation models, their calibrated uncontended execution
//! time versus the paper's measured "TVM Exec Time", and size.

use paella_bench::claims::table2;
use paella_bench::{f, header, row};
use paella_models::registry;

fn main() {
    header(
        "Table 2",
        "models used in the evaluation benchmarks (calibrated vs paper)",
    );
    row(&[
        "model".into(),
        "paper_exec_ms".into(),
        "measured_exec_ms".into(),
        "error_pct".into(),
        "size_mb".into(),
        "graph_nodes".into(),
        "kernels".into(),
    ]);
    let entries = registry();
    // One calibration + uncontended measurement per model. Each cell builds
    // its own zoo: calibration is deterministic per model, so per-cell zoos
    // and a shared one produce identical numbers.
    let grid = paella_bench::sweep::run_grid(entries.len(), |i| {
        let e = &entries[i];
        let (model, measured, err) = table2(e);
        let nodes = (e.build)().len();
        [
            e.display.to_string(),
            f(e.target_exec.as_millis_f64()),
            f(measured.as_millis_f64()),
            f(err * 100.0),
            f(e.size_bytes as f64 / (1 << 20) as f64),
            nodes.to_string(),
            model.kernel_count().to_string(),
        ]
    });
    for r in &grid {
        row(r);
    }
}
