//! Calibration of model execution times against Table 2.
//!
//! The paper reports each model's "TVM Exec Time" — the time to execute the
//! model directly in C++ with no serving infrastructure. We reproduce that
//! measurement in simulation (sequential kernels on one stream of an idle
//! device, input copy before, output copy after) and solve for the per-model
//! duration calibration factor that makes the simulated time match.
//!
//! The fixed parts (memcpys, queue delays, kernel floors) do not scale with
//! the factor, so the solve is a short fixed-point iteration rather than a
//! single division.

use paella_compiler::{compile, measure_uncontended, CostModel, Graph};
use paella_gpu::DeviceConfig;
use paella_sim::SimDuration;

/// Compiles `graph` and solves the calibration factor so the uncontended
/// simulated execution time matches `target` within `tol` (relative).
///
/// Returns the calibrated model and the achieved execution time.
pub fn calibrate(
    name: &str,
    graph: &Graph,
    cost: &CostModel,
    device: &DeviceConfig,
    target: SimDuration,
    tol: f64,
) -> (paella_compiler::CompiledModel, SimDuration) {
    let mut factor = 1.0;
    let mut model = compile(name, graph, cost, factor);
    let mut measured = measure_uncontended(&model, device);
    for _ in 0..12 {
        let err = (measured.as_nanos() as f64 - target.as_nanos() as f64).abs()
            / target.as_nanos() as f64;
        if err <= tol {
            break;
        }
        // Newton-free proportional update; the response is affine in the
        // factor (scaled kernels + fixed copies), so this converges fast.
        factor *= target.as_nanos() as f64 / measured.as_nanos().max(1) as f64;
        model = compile(name, graph, cost, factor);
        measured = measure_uncontended(&model, device);
    }
    (model, measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn measure_is_deterministic() {
        let m = compile("r18", &zoo::resnet18(), &CostModel::default(), 1.0);
        let d = DeviceConfig::tesla_t4();
        assert_eq!(measure_uncontended(&m, &d), measure_uncontended(&m, &d));
    }

    #[test]
    fn calibration_hits_target() {
        let d = DeviceConfig::tesla_t4();
        let target = SimDuration::from_micros(1_580); // ResNet-18, Table 2
        let (_, achieved) = calibrate(
            "resnet18",
            &zoo::resnet18(),
            &CostModel::default(),
            &d,
            target,
            0.02,
        );
        let err = (achieved.as_nanos() as f64 - target.as_nanos() as f64).abs()
            / target.as_nanos() as f64;
        assert!(err <= 0.02, "achieved {achieved} vs target {target}");
    }

    #[test]
    fn calibration_scales_both_directions() {
        let d = DeviceConfig::tesla_t4();
        for target_us in [500u64, 10_000] {
            let target = SimDuration::from_micros(target_us);
            let (_, achieved) = calibrate(
                "mnist-ish",
                &zoo::mnist(),
                &CostModel::default(),
                &d,
                target,
                0.05,
            );
            let err = (achieved.as_nanos() as f64 - target.as_nanos() as f64).abs()
                / target.as_nanos() as f64;
            assert!(err <= 0.05, "target {target} achieved {achieved}");
        }
    }
}
