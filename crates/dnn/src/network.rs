//! Network container: a tree of layers with residual blocks, plus the
//! shape-tracking builder the model zoo uses.

use crate::layer::{BackwardContext, ForwardContext, Layer, LayerId, LayerKind, Param};
use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Dropout, Linear, Lrn, MaxPool2d, ReLU};
use crate::{DnnError, Result};
use ebtrain_tensor::ops::axpy;
use ebtrain_tensor::Tensor;

/// One node of the network tree.
pub enum Node {
    /// A plain layer.
    Layer(Box<dyn Layer>),
    /// Residual block: `y = body(x) + shortcut(x)` (empty shortcut =
    /// identity). Backward splits the gradient into both branches and sums.
    Residual {
        /// Main path.
        body: Vec<Node>,
        /// Projection path; empty means identity.
        shortcut: Vec<Node>,
    },
}

/// A trainable network.
pub struct Network {
    nodes: Vec<Node>,
    input_shape: Vec<usize>,
    name: String,
}

fn forward_nodes(nodes: &mut [Node], mut x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
    for node in nodes.iter_mut() {
        x = match node {
            Node::Layer(layer) => layer.forward(x, ctx)?,
            Node::Residual { body, shortcut } => {
                let skip_in = x.clone();
                let mut y = forward_nodes(body, x, ctx)?;
                let skip_out = if shortcut.is_empty() {
                    skip_in
                } else {
                    forward_nodes(shortcut, skip_in, ctx)?
                };
                skip_out.expect_shape(y.shape())?;
                axpy(1.0, skip_out.data(), y.data_mut());
                y
            }
        };
    }
    Ok(x)
}

fn backward_nodes(nodes: &mut [Node], mut dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor> {
    for node in nodes.iter_mut().rev() {
        dy = match node {
            Node::Layer(layer) => {
                let dx = layer.backward(dy, ctx)?;
                // This layer's parameter gradients are final for the step:
                // notify any bucketed-sync listener before moving upstream.
                if let Some(cb) = ctx.grad_ready.as_mut() {
                    cb(layer.as_ref())?;
                }
                dx
            }
            Node::Residual { body, shortcut } => {
                let d_skip = if shortcut.is_empty() {
                    dy.clone()
                } else {
                    backward_nodes(shortcut, dy.clone(), ctx)?
                };
                let mut dx = backward_nodes(body, dy, ctx)?;
                dx.expect_shape(d_skip.shape())?;
                axpy(1.0, d_skip.data(), dx.data_mut());
                dx
            }
        };
    }
    Ok(dy)
}

fn visit_nodes<'a>(nodes: &'a [Node], f: &mut dyn FnMut(&'a dyn Layer)) {
    for node in nodes {
        match node {
            Node::Layer(layer) => f(layer.as_ref()),
            Node::Residual { body, shortcut } => {
                visit_nodes(body, f);
                visit_nodes(shortcut, f);
            }
        }
    }
}

fn visit_nodes_mut<'a>(nodes: &'a mut [Node], f: &mut dyn FnMut(&'a mut (dyn Layer + 'static))) {
    for node in nodes {
        match node {
            Node::Layer(layer) => f(layer.as_mut()),
            Node::Residual { body, shortcut } => {
                visit_nodes_mut(body, f);
                visit_nodes_mut(shortcut, f);
            }
        }
    }
}

impl Network {
    /// Forward pass through the whole tree.
    pub fn forward(&mut self, x: Tensor, ctx: &mut ForwardContext) -> Result<Tensor> {
        forward_nodes(&mut self.nodes, x, ctx)
    }

    /// Backward pass (call with the loss head's logits gradient).
    pub fn backward(&mut self, dy: Tensor, ctx: &mut BackwardContext) -> Result<Tensor> {
        backward_nodes(&mut self.nodes, dy, ctx)
    }

    /// Visit every layer (depth-first, forward order).
    pub fn visit_layers<'a>(&'a self, f: &mut dyn FnMut(&'a dyn Layer)) {
        visit_nodes(&self.nodes, f);
    }

    /// Visit every layer mutably.
    pub fn visit_layers_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut (dyn Layer + 'static))) {
        visit_nodes_mut(&mut self.nodes, f);
    }

    /// All trainable parameters (flattened).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        self.visit_layers_mut(&mut |layer| {
            out.extend(layer.params_mut());
        });
        out
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        let mut total = 0usize;
        self.visit_layers(&mut |layer| {
            for p in layer.params() {
                total += p.value.len();
            }
        });
        total
    }

    /// Bytes of parameter storage (weights only; grads/momentum triple it).
    pub fn weight_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Per-sample input shape `[C, H, W]` the network was built for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Network name (zoo identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ids of all convolutional layers in forward order.
    pub fn conv_layer_ids(&self) -> Vec<LayerId> {
        let mut ids = Vec::new();
        self.visit_layers(&mut |layer| {
            if layer.kind() == LayerKind::Conv {
                ids.push(layer.id());
            }
        });
        ids
    }

    /// Zero every parameter gradient (after an optimizer step).
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.grad.data_mut().fill(0.0);
        }
    }

    /// Reseed every stochastic layer (dropout) from `salt`, each layer
    /// with a distinct derived seed. Data-parallel replicas call this
    /// with their rank so mask streams are independent across workers
    /// while parameters stay identical (see
    /// [`Layer::reseed_stochastic`] for the per-layer hook).
    pub fn reseed_stochastic(&mut self, salt: u64) {
        self.visit_layers_mut(&mut |layer| {
            let seed = salt
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(layer.id() as u64 + 1);
            layer.reseed_stochastic(seed);
        });
    }

    /// Serialize every parameter **gradient** into one flat vector
    /// (depth-first layer order — the same stable order as
    /// [`params_mut`](Self::params_mut)), reusing `out`'s allocation.
    /// This is the view a gradient collective reduces over.
    pub fn flatten_grads_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        for p in self.params_mut() {
            out.extend_from_slice(p.grad.data());
        }
    }

    /// Scatter a flat gradient vector (as produced by
    /// [`flatten_grads_into`](Self::flatten_grads_into)) back into the
    /// per-parameter gradient tensors. Errors on length mismatch.
    pub fn unflatten_grads(&mut self, flat: &[f32]) -> Result<()> {
        let expect = self.param_count();
        if flat.len() != expect {
            return Err(DnnError::State(format!(
                "flat gradient has {} values, network has {expect} parameters",
                flat.len()
            )));
        }
        let mut off = 0;
        for p in self.params_mut() {
            let g = p.grad.data_mut();
            g.copy_from_slice(&flat[off..off + g.len()]);
            off += g.len();
        }
        Ok(())
    }

    /// Serialize every parameter **value** into one flat vector (same
    /// order as the gradient view) — the payload a parameter broadcast
    /// ships when synchronizing replicas.
    pub fn flatten_params_into(&mut self, out: &mut Vec<f32>) {
        out.clear();
        for p in self.params_mut() {
            out.extend_from_slice(p.value.data());
        }
    }

    /// Scatter a flat parameter vector back into the layer parameters.
    /// Errors on length mismatch.
    pub fn unflatten_params(&mut self, flat: &[f32]) -> Result<()> {
        let expect = self.param_count();
        if flat.len() != expect {
            return Err(DnnError::State(format!(
                "flat parameter vector has {} values, network has {expect}",
                flat.len()
            )));
        }
        let mut off = 0;
        for p in self.params_mut() {
            let v = p.value.data_mut();
            v.copy_from_slice(&flat[off..off + v.len()]);
            off += v.len();
        }
        Ok(())
    }

    /// Number of top-level nodes (segment boundaries for gradient
    /// checkpointing live between top-level nodes; residual blocks are
    /// atomic units).
    pub fn num_top_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Forward through only the top-level nodes `range` (for gradient
    /// checkpointing; see [`crate::recompute`]).
    pub fn forward_range(
        &mut self,
        range: std::ops::Range<usize>,
        x: Tensor,
        ctx: &mut ForwardContext,
    ) -> Result<Tensor> {
        forward_nodes(&mut self.nodes[range], x, ctx)
    }

    /// Backward through only the top-level nodes `range`.
    pub fn backward_range(
        &mut self,
        range: std::ops::Range<usize>,
        dy: Tensor,
        ctx: &mut BackwardContext,
    ) -> Result<Tensor> {
        backward_nodes(&mut self.nodes[range], dy, ctx)
    }
}

/// Shape-tracking builder used by the model zoo.
///
/// Keeps a per-sample `[C, H, W]` (or `[F]` after flatten) shape so layer
/// dimensions are inferred, and assigns globally unique layer ids in
/// construction order.
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    next_id: LayerId,
    shape: Vec<usize>,
    seed: u64,
    name: String,
    input_shape: Vec<usize>,
}

impl NetworkBuilder {
    /// Builder for a network taking per-sample `[C, H, W]` input.
    pub fn new(name: impl Into<String>, input_shape: &[usize], seed: u64) -> NetworkBuilder {
        NetworkBuilder {
            nodes: Vec::new(),
            next_id: 0,
            shape: input_shape.to_vec(),
            seed,
            name: name.into(),
            input_shape: input_shape.to_vec(),
        }
    }

    fn alloc_id(&mut self) -> LayerId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn layer_seed(&self, id: LayerId) -> u64 {
        // Stable per-layer seed derived from the builder seed.
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id as u64)
    }

    /// Current per-sample shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    fn spatial(&self) -> Result<(usize, usize, usize)> {
        let [c, h, w] = *self.shape.as_slice() else {
            return Err(DnnError::Build(format!(
                "expected [C,H,W] shape at this point, have {:?}",
                self.shape
            )));
        };
        Ok((c, h, w))
    }

    /// Append a convolution.
    pub fn conv(&mut self, out_c: usize, kernel: usize, stride: usize, pad: usize) -> &mut Self {
        let id = self.alloc_id();
        let (c, h, w) = self.spatial().expect("conv needs CHW input");
        let layer = Conv2d::new(
            id,
            format!("conv{id}"),
            c,
            out_c,
            kernel,
            stride,
            pad,
            self.layer_seed(id),
        );
        let out = layer
            .out_shape(&[1, c, h, w])
            .expect("invalid conv geometry");
        self.shape = out[1..].to_vec();
        self.nodes.push(Node::Layer(Box::new(layer)));
        self
    }

    /// Append a ReLU.
    pub fn relu(&mut self) -> &mut Self {
        let id = self.alloc_id();
        self.nodes
            .push(Node::Layer(Box::new(ReLU::new(id, format!("relu{id}")))));
        self
    }

    /// Append max pooling.
    pub fn maxpool(&mut self, k: usize, stride: usize, pad: usize) -> &mut Self {
        let id = self.alloc_id();
        let (c, h, w) = self.spatial().expect("pool needs CHW input");
        let layer = MaxPool2d::new(id, format!("maxpool{id}"), k, stride, pad);
        let out = layer.out_shape(&[1, c, h, w]).expect("invalid pool");
        self.shape = out[1..].to_vec();
        self.nodes.push(Node::Layer(Box::new(layer)));
        self
    }

    /// Append average pooling.
    pub fn avgpool(&mut self, k: usize, stride: usize, pad: usize) -> &mut Self {
        let id = self.alloc_id();
        let (c, h, w) = self.spatial().expect("pool needs CHW input");
        let layer = AvgPool2d::new(id, format!("avgpool{id}"), k, stride, pad);
        let out = layer.out_shape(&[1, c, h, w]).expect("invalid pool");
        self.shape = out[1..].to_vec();
        self.nodes.push(Node::Layer(Box::new(layer)));
        self
    }

    /// Append global average pooling.
    pub fn global_avgpool(&mut self) -> &mut Self {
        let id = self.alloc_id();
        let (c, _, _) = self.spatial().expect("pool needs CHW input");
        let layer = AvgPool2d::global(id, format!("gap{id}"));
        self.shape = vec![c, 1, 1];
        self.nodes.push(Node::Layer(Box::new(layer)));
        self
    }

    /// Append batch normalization over the current channel count.
    pub fn batchnorm(&mut self) -> &mut Self {
        let id = self.alloc_id();
        let (c, _, _) = self.spatial().expect("bn needs CHW input");
        self.nodes.push(Node::Layer(Box::new(BatchNorm2d::new(
            id,
            format!("bn{id}"),
            c,
        ))));
        self
    }

    /// Append AlexNet-style local response normalization.
    pub fn lrn(&mut self) -> &mut Self {
        let id = self.alloc_id();
        self.nodes
            .push(Node::Layer(Box::new(Lrn::alexnet(id, format!("lrn{id}")))));
        self
    }

    /// Append dropout.
    pub fn dropout(&mut self, p: f32) -> &mut Self {
        let id = self.alloc_id();
        let seed = self.layer_seed(id);
        self.nodes.push(Node::Layer(Box::new(Dropout::new(
            id,
            format!("drop{id}"),
            p,
            seed,
        ))));
        self
    }

    /// Append a fully connected layer (flattens the current shape).
    pub fn linear(&mut self, out_features: usize) -> &mut Self {
        let id = self.alloc_id();
        let in_features: usize = self.shape.iter().product();
        let seed = self.layer_seed(id);
        self.nodes.push(Node::Layer(Box::new(Linear::new(
            id,
            format!("fc{id}"),
            in_features,
            out_features,
            seed,
        ))));
        self.shape = vec![out_features];
        self
    }

    /// Append a residual block.
    ///
    /// `body` builds the main path; `shortcut` builds the projection path
    /// (leave it a no-op closure for an identity skip). Output shapes of
    /// both paths must agree.
    pub fn residual(
        &mut self,
        body: impl FnOnce(&mut NetworkBuilder),
        shortcut: impl FnOnce(&mut NetworkBuilder),
    ) -> &mut Self {
        let in_shape = self.shape.clone();
        let mark = self.nodes.len();
        body(self);
        let body_nodes: Vec<Node> = self.nodes.drain(mark..).collect();
        let body_shape = self.shape.clone();

        self.shape = in_shape;
        let mark = self.nodes.len();
        shortcut(self);
        let shortcut_nodes: Vec<Node> = self.nodes.drain(mark..).collect();
        assert_eq!(
            self.shape, body_shape,
            "residual paths disagree: body {body_shape:?} vs shortcut {:?}",
            self.shape
        );

        self.nodes.push(Node::Residual {
            body: body_nodes,
            shortcut: shortcut_nodes,
        });
        self
    }

    /// Finish the network.
    pub fn build(self) -> Network {
        Network {
            nodes: self.nodes,
            input_shape: self.input_shape,
            name: self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::CompressionPlan;
    use crate::store::{ActivationStore, RawStore};

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new("tiny", &[3, 8, 8], 1);
        b.conv(4, 3, 1, 1).relu().maxpool(2, 2, 0).linear(10);
        b.build()
    }

    #[test]
    fn builder_tracks_shapes() {
        let mut b = NetworkBuilder::new("t", &[3, 32, 32], 1);
        b.conv(16, 3, 1, 1);
        assert_eq!(b.shape(), &[16, 32, 32]);
        b.maxpool(2, 2, 0);
        assert_eq!(b.shape(), &[16, 16, 16]);
        b.global_avgpool();
        assert_eq!(b.shape(), &[16, 1, 1]);
        b.linear(10);
        assert_eq!(b.shape(), &[10]);
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = net.forward(x, &mut ctx).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut net = tiny_net();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut fctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = net.forward(x, &mut fctx).unwrap();
        let dy = Tensor::full(y.shape(), 0.1);
        let mut bctx = BackwardContext {
            store: &mut store,
            collect: false,
            grad_ready: None,
        };
        let dx = net.backward(dy, &mut bctx).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 8, 8]);
        // store fully drained after backward
        assert_eq!(store.current_bytes(), 0);
    }

    #[test]
    fn residual_identity_adds_input() {
        // body = 1x1 conv with zero weights => y = 0 + x = x
        let mut b = NetworkBuilder::new("res", &[2, 4, 4], 1);
        b.residual(
            |bb| {
                bb.conv(2, 1, 1, 0);
            },
            |_| {},
        );
        let mut net = b.build();
        // zero the conv weights
        for p in net.params_mut() {
            p.value.data_mut().fill(0.0);
        }
        let x = Tensor::full(&[1, 2, 4, 4], 3.0);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = net.forward(x.clone(), &mut ctx).unwrap();
        assert_eq!(y.data(), x.data());
        // gradient through identity: dy flows to dx twice? No — body conv
        // has zero weights so its dx contribution is 0; skip contributes dy.
        let mut bctx = BackwardContext {
            store: &mut store,
            collect: false,
            grad_ready: None,
        };
        let dx = net
            .backward(Tensor::full(&[1, 2, 4, 4], 1.0), &mut bctx)
            .unwrap();
        assert_eq!(dx.data(), &[1.0; 32]);
    }

    #[test]
    fn residual_gradient_sums_both_paths() {
        // body = identity-initialized 1x1 conv (weight=1 on diagonal):
        // y = conv(x) + x = 2x, dx = 2*dy.
        let mut b = NetworkBuilder::new("res", &[1, 2, 2], 1);
        b.residual(
            |bb| {
                bb.conv(1, 1, 1, 0);
            },
            |_| {},
        );
        let mut net = b.build();
        for p in net.params_mut() {
            if p.value.len() == 1 {
                p.value.data_mut()[0] = 1.0; // weight
            }
        }
        // bias param also len 1! Set explicitly: first param is weight [1,1,1,1], second bias [1].
        // Re-set: weight=1, bias=0.
        {
            let mut params = net.params_mut();
            params[0].value.data_mut().fill(1.0);
            params[1].value.data_mut().fill(0.0);
        }
        let x = Tensor::full(&[1, 1, 2, 2], 1.5);
        let mut store = RawStore::new();
        let plan = CompressionPlan::new();
        let mut ctx = ForwardContext {
            store: &mut store,
            training: true,
            collect: false,
            plan: &plan,
        };
        let y = net.forward(x, &mut ctx).unwrap();
        assert_eq!(y.data(), &[3.0; 4]);
        let mut bctx = BackwardContext {
            store: &mut store,
            collect: false,
            grad_ready: None,
        };
        let dx = net
            .backward(Tensor::full(&[1, 1, 2, 2], 1.0), &mut bctx)
            .unwrap();
        assert_eq!(dx.data(), &[2.0; 4]);
    }

    #[test]
    fn layer_ids_unique_and_conv_ids_reported() {
        let mut b = NetworkBuilder::new("r", &[3, 8, 8], 1);
        b.conv(4, 3, 1, 1).relu();
        b.residual(
            |bb| {
                bb.conv(4, 3, 1, 1).relu().conv(4, 3, 1, 1);
            },
            |_| {},
        );
        let net = b.build();
        let mut ids = Vec::new();
        net.visit_layers(&mut |l| ids.push(l.id()));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate layer ids");
        assert_eq!(net.conv_layer_ids().len(), 3);
    }

    #[test]
    fn flatten_roundtrips_grads_and_params() {
        let mut net = tiny_net();
        let count = net.param_count();
        // Stamp recognizable gradients, flatten, perturb, unflatten.
        let mut stamp = 0.0f32;
        for p in net.params_mut() {
            for g in p.grad.data_mut() {
                *g = stamp;
                stamp += 1.0;
            }
        }
        let mut flat = Vec::new();
        net.flatten_grads_into(&mut flat);
        assert_eq!(flat.len(), count);
        assert_eq!(flat[0], 0.0);
        assert_eq!(*flat.last().unwrap(), (count - 1) as f32);
        let doubled: Vec<f32> = flat.iter().map(|v| v * 2.0).collect();
        net.unflatten_grads(&doubled).unwrap();
        let mut back = Vec::new();
        net.flatten_grads_into(&mut back);
        assert_eq!(back, doubled);
        // Length mismatch rejected.
        assert!(net.unflatten_grads(&doubled[1..]).is_err());

        // Parameter view round-trips the same way.
        let mut pv = Vec::new();
        net.flatten_params_into(&mut pv);
        assert_eq!(pv.len(), count);
        let shifted: Vec<f32> = pv.iter().map(|v| v + 0.5).collect();
        net.unflatten_params(&shifted).unwrap();
        let mut pv2 = Vec::new();
        net.flatten_params_into(&mut pv2);
        assert_eq!(pv2, shifted);
        assert!(net.unflatten_params(&[]).is_err());
    }

    #[test]
    fn param_count_and_zero_grads() {
        let mut net = tiny_net();
        // conv: 4*3*3*3 + 4 = 112; fc: 10*(4*4*4) + 10 = 650
        assert_eq!(net.param_count(), 112 + 650);
        for p in net.params_mut() {
            p.grad.data_mut().fill(7.0);
        }
        net.zero_grads();
        for p in net.params_mut() {
            assert!(p.grad.data().iter().all(|&v| v == 0.0));
        }
    }
}
