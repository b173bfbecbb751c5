//! The conv-gradient probe of Figs 6 and 8: one training step whose
//! [`GradSync`] observer copies every conv layer's weight gradient and
//! statistics out after backward, before the optimizer update.

use ebtrain_dnn::layer::{CompressionPlan, ConvLayerStats, LayerKind};
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::ActivationStore;
use ebtrain_dnn::train::{train_step_synced, GradSync, SyncAction};
use ebtrain_dnn::Result;
use ebtrain_tensor::Tensor;

/// One conv layer's weight gradient and collected statistics.
pub struct ConvGrad {
    /// Layer name.
    pub name: String,
    /// Weight gradient of the step.
    pub grad: Vec<f32>,
    /// The layer's statistics, collected by the step.
    pub stats: ConvLayerStats,
}

/// Reads the conv layers in `finish`, where every gradient is final and
/// the optimizer has not run yet.
struct ConvGradProbe(Vec<ConvGrad>);

impl GradSync for ConvGradProbe {
    fn finish(&mut self, net: &mut Network) -> Result<SyncAction> {
        net.visit_layers(&mut |layer| {
            if let (LayerKind::Conv, Some(stats)) = (layer.kind(), layer.conv_stats()) {
                self.0.push(ConvGrad {
                    name: layer.name().to_string(),
                    grad: layer.params()[0].grad.data().to_vec(),
                    stats,
                });
            }
        });
        Ok(SyncAction::LocalStep)
    }
}

/// Train `net` one collecting step on `(x, labels)`, saving activations
/// in `store`, and return every conv layer's weight gradient and
/// statistics in forward order. The step's SGD update changes `net`, so
/// build a fresh network for each pass to compare.
pub fn conv_grads(
    net: &mut Network,
    store: &mut dyn ActivationStore,
    x: Tensor,
    labels: &[usize],
) -> Result<Vec<ConvGrad>> {
    let mut probe = ConvGradProbe(Vec::new());
    train_step_synced(
        net,
        &SoftmaxCrossEntropy::new(),
        &mut Sgd::new(SgdConfig::default()),
        store,
        &CompressionPlan::new(),
        x,
        labels,
        true,
        Some(&mut probe),
    )?;
    Ok(probe.0)
}
