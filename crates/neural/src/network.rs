//! Sequential layer container.

use crate::layer::Layer;
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use nd_linalg::Mat;

/// A feed-forward network: an ordered stack of layers trained end to
/// end against a [`Loss`].
///
/// Layers are `Send + Sync` so a frozen network can be shared behind
/// an `Arc` and run concurrent [`Network::predict_batch`] passes (the
/// online serving path).
pub struct Network {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
    loss: Loss,
}

impl Network {
    /// Creates an empty network with the given loss.
    pub fn new(loss: Loss) -> Self {
        Network { layers: Vec::new(), loss }
    }

    /// Appends a layer (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, layer: impl Layer + Send + Sync + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(|l| l.params().len()).sum()
    }

    /// The configured loss.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Layer names, in order (for summaries).
    pub fn summary(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Forward pass (inference mode: no activation caching).
    pub fn predict(&mut self, input: &Mat) -> Mat {
        self.predict_batch(input)
    }

    /// Inference-only forward pass over a batch of rows. Unlike
    /// [`Network::predict`] this takes `&self`: no activation caches
    /// or gradient buffers are touched, so a shared (`Arc`-held)
    /// network can serve concurrent callers. Each output row depends
    /// only on its own input row, but its rounding can depend on the
    /// batch size: a Dense layer whose input is wider than
    /// `gemm::KC` (256) takes the naive GEMM kernel when m·n·k ≤ 64³
    /// and the packed, KC-blocked kernel above that, and the two sum
    /// depth in different orders. Rows are bit-identical across batch
    /// sizes that take the same kernel in every such layer, and across
    /// all batch sizes when no Dense input is wider than 256. The
    /// serving micro-batcher relies on this to coalesce requests.
    pub fn predict_batch(&self, rows: &Mat) -> Mat {
        let mut x = rows.clone();
        for layer in &self.layers {
            x = layer.forward_infer(&x);
        }
        x
    }

    /// Predicted class per row.
    pub fn predict_classes(&mut self, input: &Mat) -> Vec<usize> {
        let out = self.predict(input);
        Loss::predict_classes(&out)
    }

    /// One optimization step over a batch: forward, loss, backward,
    /// parameter update. Returns the batch's mean loss.
    pub fn train_batch(
        &mut self,
        input: &Mat,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        // Forward with caching.
        let mut x = input.clone();
        for layer in &mut self.layers {
            layer.zero_grads();
            x = layer.forward(&x);
        }
        let (loss_value, mut grad) = self.loss.compute(&x, labels);
        // Backward.
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        // Update.
        for (g, layer) in self.layers.iter_mut().enumerate() {
            if layer.params().is_empty() {
                continue;
            }
            // Split borrow: copy grads out (they are small relative to
            // the matmul cost) then update params in place.
            let grads = layer.grads().to_vec();
            optimizer.step(g, layer.params_mut(), &grads);
        }
        loss_value
    }

    /// Mean loss over a dataset without updating weights.
    pub fn evaluate_loss(&mut self, input: &Mat, labels: &[usize]) -> f64 {
        let out = self.predict(input);
        self.loss.compute(&out, labels).0
    }

    /// Exports every layer's parameters (checkpointing, paper §4.9:
    /// "we use checkpoints to continue the training as new data is
    /// added"). Stateless layers contribute empty vectors so the
    /// export aligns with the layer stack.
    pub fn export_params(&self) -> Vec<Vec<f64>> {
        self.layers.iter().map(|l| l.params().to_vec()).collect()
    }

    /// Restores parameters exported by [`Network::export_params`] into
    /// an identically-shaped network.
    ///
    /// # Errors
    /// Returns a message naming the first mismatching layer when the
    /// checkpoint does not fit this architecture.
    pub fn import_params(&mut self, params: &[Vec<f64>]) -> Result<(), String> {
        if params.len() != self.layers.len() {
            return Err(format!(
                "checkpoint has {} layers, network has {}",
                params.len(),
                self.layers.len()
            ));
        }
        for (i, (layer, saved)) in self.layers.iter_mut().zip(params).enumerate() {
            if layer.params().len() != saved.len() {
                return Err(format!(
                    "layer {i} ({}) expects {} params, checkpoint has {}",
                    layer.name(),
                    layer.params().len(),
                    saved.len()
                ));
            }
            layer.params_mut().copy_from_slice(saved);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, ActivationLayer, Dense};
    use crate::optimizer::Sgd;

    /// XOR: the canonical "needs a hidden layer" dataset.
    fn xor_data() -> (Mat, Vec<usize>) {
        let x = Mat::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    fn xor_network(seed: u64) -> Network {
        Network::new(Loss::SoftmaxCrossEntropy)
            .add(Dense::new(2, 8, seed))
            .add(ActivationLayer::new(Activation::Tanh))
            .add(Dense::new(8, 2, seed ^ 1))
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut net = xor_network(3);
        let mut opt = Sgd::new(0.5);
        for _ in 0..500 {
            net.train_batch(&x, &y, &mut opt);
        }
        assert_eq!(net.predict_classes(&x), y);
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = xor_data();
        let mut net = xor_network(5);
        let mut opt = Sgd::new(0.5);
        let initial = net.evaluate_loss(&x, &y);
        for _ in 0..200 {
            net.train_batch(&x, &y, &mut opt);
        }
        let fin = net.evaluate_loss(&x, &y);
        assert!(fin < initial * 0.5, "loss {initial} -> {fin}");
    }

    #[test]
    fn n_params_counts_all_layers() {
        let net = xor_network(0);
        // Dense(2,8): 2*8+8 = 24; Dense(8,2): 8*2+2 = 18.
        assert_eq!(net.n_params(), 42);
        assert_eq!(net.n_layers(), 3);
    }

    #[test]
    fn summary_lists_layers() {
        let s = xor_network(0).summary();
        assert_eq!(s.len(), 3);
        assert!(s[0].contains("Dense(2→8)"));
        assert!(s[1].contains("Tanh"));
    }

    #[test]
    fn predict_is_deterministic() {
        let (x, _) = xor_data();
        let mut net = xor_network(9);
        let a = net.predict(&x);
        let b = net.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn predict_batch_matches_predict_bit_for_bit() {
        let (x, y) = xor_data();
        let mut net = xor_network(3);
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            net.train_batch(&x, &y, &mut opt);
        }
        let expected = net.predict(&x);
        assert_eq!(net.predict_batch(&x), expected);

        // XOR's Dense inputs are far narrower than gemm::KC, so running
        // each row alone reproduces the batched bits (see
        // `predict_batch` for when the batch size can change them).
        for r in 0..x.rows() {
            let one = Mat::from_vec(1, x.cols(), x.row(r).to_vec()).unwrap();
            assert_eq!(net.predict_batch(&one).row(0), expected.row(r));
        }
    }

    #[test]
    fn predict_batch_shares_across_threads() {
        let (x, y) = xor_data();
        let mut net = xor_network(7);
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            net.train_batch(&x, &y, &mut opt);
        }
        let expected = net.predict(&x);
        let shared = std::sync::Arc::new(net);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let net = shared.clone();
                let x = x.clone();
                let expected = expected.clone();
                std::thread::spawn(move || assert_eq!(net.predict_batch(&x), expected))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn checkpoint_roundtrip_restores_behaviour() {
        let (x, y) = xor_data();
        let mut trained = xor_network(3);
        let mut opt = Sgd::new(0.5);
        for _ in 0..300 {
            trained.train_batch(&x, &y, &mut opt);
        }
        let checkpoint = trained.export_params();

        // A freshly-initialized network with different seed behaves
        // differently until the checkpoint is imported.
        let mut fresh = xor_network(99);
        assert_ne!(fresh.predict(&x), trained.predict(&x));
        fresh.import_params(&checkpoint).unwrap();
        assert_eq!(fresh.predict(&x), trained.predict(&x));
    }

    #[test]
    fn import_rejects_mismatched_checkpoints() {
        let mut net = xor_network(1);
        assert!(net.import_params(&[vec![0.0; 3]]).is_err(), "wrong layer count");
        let mut bad = xor_network(1).export_params();
        bad[0].pop();
        assert!(net.import_params(&bad).unwrap_err().contains("layer 0"));
    }

    #[test]
    fn checkpoint_supports_resumed_training() {
        let (x, y) = xor_data();
        let mut first = xor_network(5);
        let mut opt = Sgd::new(0.5);
        for _ in 0..50 {
            first.train_batch(&x, &y, &mut opt);
        }
        let mid_loss = first.evaluate_loss(&x, &y);
        let checkpoint = first.export_params();

        // Resume in a new network (fresh optimizer state, as after a
        // process restart) and keep training: loss keeps dropping.
        let mut resumed = xor_network(77);
        resumed.import_params(&checkpoint).unwrap();
        let mut opt2 = Sgd::new(0.5);
        for _ in 0..300 {
            resumed.train_batch(&x, &y, &mut opt2);
        }
        assert!(resumed.evaluate_loss(&x, &y) < mid_loss);
    }
}
