//! Audience Interest Prediction module (paper §4.8, §5.6).
//!
//! Two architectures (paper Figures 2–3):
//!
//! * **MLP** — Dense(in→128) ReLU → Dense(128→64) ReLU → Dense(64→3);
//! * **CNN** — Conv1d(kernel 5, 8 filters) ReLU → MaxPool(4) →
//!   Dense(→64) ReLU → Dense(64→3);
//!
//! each trained with both optimizers after the paper's hyper-parameter
//! tuning: SGD with `lr = 0.5` (MLP 1 / CNN 1) and ADADELTA with
//! `lr = 2` (MLP 2 / CNN 2), batch size 5000, at most 500 epochs,
//! early stopping on loss plateau. Evaluation reports the Eq. (17)
//! average accuracy over a held-out validation split.

use crate::features::Dataset;
use nd_neural::train::train_val_split;
use nd_neural::{
    Activation, ActivationLayer, Adadelta, Conv1d, Dense, EarlyStopping, Loss, MaxPool1d,
    Network, Optimizer, Sgd, TrainReport, Trainer, TrainerConfig,
};

/// Number of engagement classes (Table 2).
pub const N_CLASSES: usize = 3;

/// The four network configurations of §5.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// MLP + SGD(lr = 0.5).
    Mlp1,
    /// MLP + ADADELTA(lr = 2).
    Mlp2,
    /// CNN + SGD(lr = 0.5).
    Cnn1,
    /// CNN + ADADELTA(lr = 2).
    Cnn2,
}

impl NetworkKind {
    /// All four, in the paper's column order.
    pub const ALL: [NetworkKind; 4] =
        [NetworkKind::Mlp1, NetworkKind::Mlp2, NetworkKind::Cnn1, NetworkKind::Cnn2];

    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            NetworkKind::Mlp1 => "MLP 1",
            NetworkKind::Mlp2 => "MLP 2",
            NetworkKind::Cnn1 => "CNN 1",
            NetworkKind::Cnn2 => "CNN 2",
        }
    }

    /// `true` for the convolutional variants.
    pub fn is_cnn(&self) -> bool {
        matches!(self, NetworkKind::Cnn1 | NetworkKind::Cnn2)
    }

    /// The configured optimizer.
    pub fn optimizer(&self) -> Box<dyn Optimizer> {
        match self {
            NetworkKind::Mlp1 | NetworkKind::Cnn1 => Box::new(Sgd::new(0.5)),
            NetworkKind::Mlp2 | NetworkKind::Cnn2 => Box::new(Adadelta::new(2.0)),
        }
    }

    /// Builds the network for an input dimensionality.
    pub fn build(&self, input_dim: usize, seed: u64) -> Network {
        if self.is_cnn() {
            build_cnn(input_dim, seed)
        } else {
            build_mlp(input_dim, seed)
        }
    }
}

/// The MLP of paper Figure 2.
pub fn build_mlp(input_dim: usize, seed: u64) -> Network {
    Network::new(Loss::SoftmaxCrossEntropy)
        .add(Dense::new(input_dim, 128, seed))
        .add(ActivationLayer::new(Activation::Relu))
        .add(Dense::new(128, 64, seed ^ 0x1))
        .add(ActivationLayer::new(Activation::Relu))
        .add(Dense::new(64, N_CLASSES, seed ^ 0x2))
}

/// The CNN of paper Figure 3.
pub fn build_cnn(input_dim: usize, seed: u64) -> Network {
    const KERNEL: usize = 5;
    const FILTERS: usize = 8;
    const POOL: usize = 4;
    let conv = Conv1d::new(input_dim, KERNEL, FILTERS, seed);
    let conv_len = conv.out_len();
    let pool = MaxPool1d::new(FILTERS, conv_len, POOL);
    let flat_dim = FILTERS * pool.out_len();
    Network::new(Loss::SoftmaxCrossEntropy)
        .add(conv)
        .add(ActivationLayer::new(Activation::Relu))
        .add(pool)
        .add(Dense::new(flat_dim, 64, seed ^ 0x3))
        .add(ActivationLayer::new(Activation::Relu))
        .add(Dense::new(64, N_CLASSES, seed ^ 0x4))
}

/// Training/evaluation protocol parameters.
#[derive(Debug, Clone)]
pub struct PredictConfig {
    /// Mini-batch size (paper: 5000).
    pub batch_size: usize,
    /// Epoch cap (paper: 500).
    pub max_epochs: usize,
    /// Early-stopping rule.
    pub early_stopping: Option<EarlyStopping>,
    /// Held-out validation fraction.
    pub val_fraction: f64,
    /// Seed for split/shuffle/init.
    pub seed: u64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            batch_size: 5000,
            max_epochs: 500,
            early_stopping: Some(EarlyStopping { min_delta: 1e-3, patience: 5 }),
            val_fraction: 0.2,
            seed: 42,
        }
    }
}

/// Which label set to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Likes (favorites).
    Likes,
    /// Retweets.
    Retweets,
}

/// Outcome of one `(dataset, network, target)` cell of Tables 8–9.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Eq. (17) average accuracy on the validation split.
    pub average_accuracy: f64,
    /// Plain accuracy on the validation split.
    pub accuracy: f64,
    /// Training report (epochs, per-epoch timing, loss curve).
    pub report: TrainReport,
}

/// Trains one network configuration on a dataset and evaluates on the
/// held-out split. This is the cell-level routine behind Tables 8, 9
/// and 10.
pub fn train_and_eval(
    dataset: &Dataset,
    kind: NetworkKind,
    target: Target,
    config: &PredictConfig,
) -> EvalResult {
    let y = match target {
        Target::Likes => &dataset.y_likes,
        Target::Retweets => &dataset.y_retweets,
    };
    let (tx, ty, vx, vy) = train_val_split(&dataset.x, y, config.val_fraction, config.seed);
    let mut network = kind.build(dataset.x.cols(), config.seed);
    let mut optimizer = kind.optimizer();
    let trainer = Trainer::new(TrainerConfig {
        batch_size: config.batch_size,
        max_epochs: config.max_epochs,
        early_stopping: config.early_stopping.clone(),
        seed: config.seed,
    });
    let report = trainer.fit(&mut network, &tx, &ty, optimizer.as_mut());
    let (average_accuracy, accuracy, _cm) =
        trainer.evaluate(&mut network, &vx, &vy, N_CLASSES);
    EvalResult { average_accuracy, accuracy, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_linalg::rng::SplitMix64;
    use nd_linalg::Mat;

    /// A synthetic dataset whose class is a (noisy) linear threshold of
    /// the features — learnable by both architectures.
    fn learnable_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut x = Mat::zeros(n, dim);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let mut s = 0.0;
            for c in 0..dim {
                let v = rng.next_gaussian();
                x.set(r, c, v);
                if c < 4 {
                    s += v;
                }
            }
            let label = if s < -1.0 {
                0
            } else if s < 1.0 {
                1
            } else {
                2
            };
            y.push(label);
        }
        Dataset { name: "T", x, y_likes: y.clone(), y_retweets: y }
    }

    fn quick_config() -> PredictConfig {
        PredictConfig {
            batch_size: 64,
            max_epochs: 40,
            early_stopping: Some(EarlyStopping { min_delta: 1e-4, patience: 3 }),
            val_fraction: 0.25,
            seed: 1,
        }
    }

    #[test]
    fn mlp_learns_synthetic_problem() {
        let ds = learnable_dataset(400, 12, 3);
        let res = train_and_eval(&ds, NetworkKind::Mlp1, Target::Likes, &quick_config());
        assert!(res.accuracy > 0.7, "MLP1 accuracy {}", res.accuracy);
        assert!(res.average_accuracy >= res.accuracy);
    }

    #[test]
    fn cnn_learns_synthetic_problem() {
        let ds = learnable_dataset(400, 12, 4);
        let res = train_and_eval(&ds, NetworkKind::Cnn1, Target::Likes, &quick_config());
        assert!(res.accuracy > 0.6, "CNN1 accuracy {}", res.accuracy);
    }

    #[test]
    fn adadelta_variants_also_learn() {
        let ds = learnable_dataset(300, 10, 5);
        for kind in [NetworkKind::Mlp2, NetworkKind::Cnn2] {
            let res = train_and_eval(&ds, kind, Target::Likes, &quick_config());
            assert!(res.accuracy > 0.5, "{} accuracy {}", kind.name(), res.accuracy);
        }
    }

    #[test]
    fn architectures_match_paper_shapes() {
        let mlp = build_mlp(308, 0);
        assert_eq!(mlp.n_layers(), 5);
        // 308*128+128 + 128*64+64 + 64*3+3
        assert_eq!(mlp.n_params(), 308 * 128 + 128 + 128 * 64 + 64 + 64 * 3 + 3);
        let cnn = build_cnn(308, 0);
        assert_eq!(cnn.n_layers(), 6);
        let summary = cnn.summary().join(" | ");
        assert!(summary.contains("Conv1d"), "{summary}");
        assert!(summary.contains("MaxPool1d"), "{summary}");
    }

    /// The bits of `len` output rows from `start`.
    fn row_bits(m: &Mat, start: usize, len: usize) -> Vec<u64> {
        (start..start + len).flat_map(|r| m.row(r).iter().map(|v| v.to_bits())).collect()
    }

    /// Rows `start..start + len` of `x` as a batch of their own.
    fn sub_batch(x: &Mat, start: usize, len: usize) -> Mat {
        let data = (start..start + len).flat_map(|r| x.row(r).to_vec()).collect();
        Mat::from_vec(len, x.cols(), data).unwrap()
    }

    #[test]
    fn batch_size_keeps_bits_where_serving_relies_on_it() {
        // No Dense input wider than gemm::KC = 256: a row alone and the
        // same row inside a 16-row batch round alike.
        let x = Mat::random_uniform(16, 256, -1.0, 1.0, 7);
        let mlp = build_mlp(256, 1000);
        let full = mlp.predict_batch(&x);
        for r in 0..16 {
            let alone = mlp.predict_batch(&sub_batch(&x, r, 1));
            assert_eq!(row_bits(&alone, 0, 1), row_bits(&full, r, 1), "row {r} at width 256");
        }
        // At the served width 308 a 1-6-row pass takes the naive GEMM
        // kernel and rounds differently; serving relies only on passes
        // of 8 and 16 rows, which both take the packed kernel, agreeing.
        let x = Mat::random_uniform(16, 308, -1.0, 1.0, 8);
        for (name, net) in [("mlp", build_mlp(308, 1000)), ("cnn", build_cnn(308, 1000))] {
            let full = net.predict_batch(&x);
            for start in [0, 8] {
                let part = net.predict_batch(&sub_batch(&x, start, 8));
                let expected = row_bits(&full, start, 8);
                assert_eq!(row_bits(&part, 0, 8), expected, "{name} rows {start}..");
            }
        }
    }

    #[test]
    fn network_kind_metadata() {
        assert_eq!(NetworkKind::ALL.len(), 4);
        assert!(NetworkKind::Cnn2.is_cnn());
        assert!(!NetworkKind::Mlp1.is_cnn());
        assert!(NetworkKind::Mlp2.optimizer().name().contains("ADADELTA"));
        assert!(NetworkKind::Cnn1.optimizer().name().contains("SGD"));
    }

    #[test]
    fn targets_use_different_labels() {
        let mut ds = learnable_dataset(200, 8, 7);
        // Make retweet labels constant; likes stay learnable.
        ds.y_retweets = vec![1; ds.len()];
        let likes = train_and_eval(&ds, NetworkKind::Mlp1, Target::Likes, &quick_config());
        let rts = train_and_eval(&ds, NetworkKind::Mlp1, Target::Retweets, &quick_config());
        // Constant labels are trivially 100% predictable.
        assert!(rts.accuracy > 0.95);
        assert!(likes.accuracy > 0.6);
    }

    #[test]
    fn deterministic_by_seed() {
        let ds = learnable_dataset(200, 8, 9);
        let a = train_and_eval(&ds, NetworkKind::Mlp1, Target::Likes, &quick_config());
        let b = train_and_eval(&ds, NetworkKind::Mlp1, Target::Likes, &quick_config());
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.report.epochs, b.report.epochs);
    }
}
