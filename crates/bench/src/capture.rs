//! A store wrapper that clones every compressible activation (conv and
//! fully connected inputs) as it is saved — used to harvest realistic
//! activation tensors for the compressor comparisons (Fig 3, Table 1),
//! which keep the conv inputs only.

use ebtrain_dnn::layer::{SaveHint, Saved, SlotId};
use ebtrain_dnn::store::{ActivationStore, StoreMetrics};
use ebtrain_tensor::Tensor;

/// Wraps a store and captures compressible activations.
pub struct CapturingStore<S: ActivationStore> {
    inner: S,
    /// Captured `(layer id, activation)` pairs, in forward order.
    pub captured: Vec<(usize, Tensor)>,
}

impl<S: ActivationStore> CapturingStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        CapturingStore {
            inner,
            captured: Vec::new(),
        }
    }

    /// Take the captured tensors.
    pub fn take(&mut self) -> Vec<(usize, Tensor)> {
        std::mem::take(&mut self.captured)
    }
}

impl<S: ActivationStore> ActivationStore for CapturingStore<S> {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        if hint.compressible {
            if let Saved::F32(t) = &value {
                self.captured.push((slot.0, t.clone()));
            }
        }
        self.inner.save(slot, value, hint);
    }

    fn load(&mut self, slot: SlotId) -> ebtrain_dnn::Result<Saved> {
        self.inner.load(slot)
    }
    fn current_bytes(&self) -> usize {
        self.inner.current_bytes()
    }
    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }
    fn reset_peak(&mut self) {
        self.inner.reset_peak()
    }
    fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }
    fn reset_metrics(&mut self) {
        self.inner.reset_metrics()
    }
}

/// Run one training-mode forward pass and return every conv layer's input
/// activation, labelled with `(layer id, layer name)`.
pub fn capture_conv_activations(
    net: &mut ebtrain_dnn::network::Network,
    x: Tensor,
) -> ebtrain_dnn::Result<Vec<(usize, String, Tensor)>> {
    use ebtrain_dnn::layer::{CompressionPlan, ForwardContext, LayerKind};
    use ebtrain_dnn::store::RawStore;

    let mut store = CapturingStore::new(RawStore::new());
    let plan = CompressionPlan::new();
    {
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        net.forward(x, &mut ctx)?;
    }
    // The store captured every compressible slot; keep the convolutions'.
    let mut conv_names = std::collections::HashMap::new();
    net.visit_layers(&mut |layer| {
        if layer.kind() == LayerKind::Conv {
            conv_names.insert(layer.id(), layer.name().to_string());
        }
    });
    Ok(store
        .take()
        .into_iter()
        .filter_map(|(id, t)| Some((id, conv_names.get(&id)?.clone(), t)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_dnn::network::NetworkBuilder;

    #[test]
    fn captures_every_conv_input() {
        let mut b = NetworkBuilder::new("t", &[3, 16, 16], 1);
        b.conv(4, 3, 1, 1).relu().conv(8, 3, 1, 1).relu().linear(4);
        let mut net = b.build();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let acts = capture_conv_activations(&mut net, x).unwrap();
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].2.shape(), &[2, 3, 16, 16]);
        assert_eq!(acts[1].2.shape(), &[2, 4, 16, 16]);
        assert!(acts[0].1.starts_with("conv"));
    }
}
