#![warn(missing_docs)]

//! # paella-models
//!
//! The model zoo for the reproduction: graph definitions for every Table 2
//! model (plus the extra Fig. 3 models and the MNIST-scale job of Fig. 9),
//! synthetic microbenchmark jobs, and the calibration machinery that pins
//! each model's uncontended simulated execution time to the paper's measured
//! "TVM Exec Time".

pub mod calibrate;
pub mod synthetic;
pub mod zoo;

use std::collections::HashMap;

use paella_compiler::{CompiledModel, CostModel, Graph};
use paella_gpu::DeviceConfig;
use paella_sim::SimDuration;

pub use calibrate::calibrate;
pub use paella_compiler::measure_uncontended;

/// One zoo entry: a graph builder plus its Table 2 target execution time and
/// serialized weight size.
#[derive(Clone)]
pub struct ZooEntry {
    /// Registry name (e.g. `"resnet18"`).
    pub name: &'static str,
    /// Display name matching the paper's tables.
    pub display: &'static str,
    /// Target uncontended execution time (Table 2 "TVM Exec Time").
    pub target_exec: SimDuration,
    /// Serialized model size in bytes (Table 2 "Size").
    pub size_bytes: u64,
    /// Whether the model appears in Table 2 (vs the Fig. 3 extras).
    pub in_table2: bool,
    /// Graph builder.
    pub build: fn() -> Graph,
}

/// All registered models, Table 2 order first, then the Fig. 3/Fig. 9 extras.
pub fn registry() -> Vec<ZooEntry> {
    vec![
        ZooEntry {
            name: "resnet18",
            display: "ResNet-18",
            target_exec: SimDuration::from_micros(1_580),
            size_bytes: 75 << 20,
            in_table2: true,
            build: zoo::resnet18,
        },
        ZooEntry {
            name: "mobilenetv2",
            display: "MobileNetV2",
            target_exec: SimDuration::from_micros(1_670),
            size_bytes: 14 << 20,
            in_table2: true,
            build: zoo::mobilenet_v2,
        },
        ZooEntry {
            name: "resnet34",
            display: "ResNet-34",
            target_exec: SimDuration::from_micros(2_550),
            size_bytes: 144 << 20,
            in_table2: true,
            build: zoo::resnet34,
        },
        ZooEntry {
            name: "squeezenet1.1",
            display: "Squeezenet1.1",
            target_exec: SimDuration::from_micros(4_790),
            size_bytes: (5.2 * (1 << 20) as f64) as u64,
            in_table2: true,
            build: zoo::squeezenet1_1,
        },
        ZooEntry {
            name: "resnet50",
            display: "ResNet-50",
            target_exec: SimDuration::from_micros(5_760),
            size_bytes: 124 << 20,
            in_table2: true,
            build: zoo::resnet50,
        },
        ZooEntry {
            name: "densenet",
            display: "DenseNet",
            target_exec: SimDuration::from_micros(6_080),
            size_bytes: 41 << 20,
            in_table2: true,
            build: zoo::densenet121,
        },
        ZooEntry {
            name: "googlenet",
            display: "GoogleNet",
            target_exec: SimDuration::from_micros(7_860),
            size_bytes: 28 << 20,
            in_table2: true,
            build: zoo::googlenet,
        },
        ZooEntry {
            name: "inceptionv3",
            display: "InceptionV3",
            target_exec: SimDuration::from_micros(31_200),
            size_bytes: 93 << 20,
            in_table2: true,
            build: zoo::inception_v3,
        },
        // Fig. 3 extras (targets are representative TVM/T4 magnitudes, not
        // Table 2 rows — the paper does not report their exec times).
        ZooEntry {
            name: "vgg16",
            display: "VGG16",
            target_exec: SimDuration::from_micros(7_200),
            size_bytes: 528 << 20,
            in_table2: false,
            build: zoo::vgg16,
        },
        ZooEntry {
            name: "gpt2",
            display: "GPT2",
            target_exec: SimDuration::from_micros(9_500),
            size_bytes: 548 << 20,
            in_table2: false,
            build: zoo::gpt2,
        },
        ZooEntry {
            name: "yolov5",
            display: "YoloV5",
            target_exec: SimDuration::from_micros(12_400),
            size_bytes: 28 << 20,
            in_table2: false,
            build: zoo::yolov5,
        },
        // The Fig. 9 dispatcher-stress model: ~1000× smaller than ResNet-18.
        ZooEntry {
            name: "mnist",
            display: "MNIST",
            target_exec: SimDuration::from_micros(30),
            size_bytes: 60 << 10,
            in_table2: false,
            build: zoo::mnist,
        },
    ]
}

/// A cache of calibrated models for one device.
pub struct ModelZoo {
    device: DeviceConfig,
    cost: CostModel,
    cache: HashMap<&'static str, CompiledModel>,
}

impl ModelZoo {
    /// Creates an empty zoo targeting `device`.
    pub fn new(device: DeviceConfig) -> Self {
        ModelZoo {
            device,
            cost: CostModel::default(),
            cache: HashMap::new(),
        }
    }

    /// Returns the calibrated model `name`, compiling and calibrating on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the registry.
    pub fn get(&mut self, name: &str) -> &CompiledModel {
        let entry = registry()
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("unknown model {name:?}"));
        self.cache.entry(entry.name).or_insert_with(|| {
            let graph = (entry.build)();
            let (model, _) = calibrate(
                entry.name,
                &graph,
                &self.cost,
                &self.device,
                entry.target_exec,
                0.01,
            );
            model
        })
    }

    /// Calibrates and returns every Table 2 model, in table order.
    pub fn table2(&mut self) -> Vec<CompiledModel> {
        let names: Vec<&'static str> = registry()
            .iter()
            .filter(|e| e.in_table2)
            .map(|e| e.name)
            .collect();
        names.into_iter().map(|n| self.get(n).clone()).collect()
    }

    /// The device this zoo calibrates against.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_table2_and_extras() {
        let r = registry();
        assert_eq!(r.iter().filter(|e| e.in_table2).count(), 8);
        assert!(r.iter().any(|e| e.name == "mnist"));
        assert!(r.iter().any(|e| e.name == "gpt2"));
    }

    #[test]
    fn zoo_calibrates_resnet18_to_table2() {
        let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
        let m = zoo.get("resnet18").clone();
        let t = measure_uncontended(&m, &DeviceConfig::tesla_t4());
        let target = SimDuration::from_micros(1_580);
        let err = (t.as_nanos() as f64 - target.as_nanos() as f64).abs() / target.as_nanos() as f64;
        assert!(err < 0.02, "resnet18 calibrated to {t}, target {target}");
    }

    #[test]
    fn zoo_caches_models() {
        let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
        let a = zoo.get("mnist") as *const _;
        let b = zoo.get("mnist") as *const _;
        assert_eq!(a, b, "second get must hit the cache");
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        ModelZoo::new(DeviceConfig::tesla_t4()).get("alexnet");
    }

    #[test]
    fn mnist_is_orders_of_magnitude_smaller() {
        let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
        let mnist = measure_uncontended(&zoo.get("mnist").clone(), &DeviceConfig::tesla_t4());
        let r18 = measure_uncontended(&zoo.get("resnet18").clone(), &DeviceConfig::tesla_t4());
        assert!(
            r18.as_nanos() > 30 * mnist.as_nanos(),
            "resnet18 {r18} vs mnist {mnist}"
        );
    }
}
