//! The per-node model table a cluster node and a MIG partition share.

use paella_compiler::CompiledModel;
use paella_core::dispatcher::Dispatcher;
use paella_core::serve::ServingSystem;
use paella_core::types::ModelId;

/// A dispatcher and the models registered on it under the facade's public
/// ids: public → local to route a request in, local → public to report its
/// result out. Both directions are an index.
pub(crate) struct Host {
    pub(crate) dispatcher: Dispatcher,
    /// Local id of each public model (`None`: not hosted here).
    local: Vec<Option<ModelId>>,
    /// Public id of each local model, indexed by the local id.
    public: Vec<ModelId>,
}

impl Host {
    pub(crate) fn new(dispatcher: Dispatcher) -> Self {
        Host {
            dispatcher,
            local: Vec::new(),
            public: Vec::new(),
        }
    }

    /// Registers `model` under the public id `public`; returns its local id.
    pub(crate) fn register(&mut self, public: ModelId, model: &CompiledModel) -> ModelId {
        let local = self.dispatcher.register_model(model);
        debug_assert_eq!(local.0 as usize, self.public.len(), "local ids are dense");
        let p = public.0 as usize;
        if self.local.len() <= p {
            self.local.resize(p + 1, None);
        }
        self.local[p] = Some(local);
        self.public.push(public);
        local
    }

    pub(crate) fn local(&self, public: ModelId) -> Option<ModelId> {
        self.local.get(public.0 as usize).copied().flatten()
    }

    pub(crate) fn public(&self, local: ModelId) -> ModelId {
        self.public[local.0 as usize]
    }
}
