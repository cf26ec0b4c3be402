//! Helpers shared by the serving integration tests.

use newsdiff::linalg::Mat;
use newsdiff::neural::Layer;
use std::sync::{Arc, Condvar, Mutex};

/// A zero-parameter identity layer that holds every forward pass until
/// the test opens it. Appended to a served network, it parks the
/// shard's batch worker inside a pass, so a test can fill the
/// admission queue behind it without timers. It is stateless, so the
/// network exports an empty parameter vector for it: checkpoints load
/// as usual and scores are the wrapped network's own.
#[derive(Clone, Default)]
pub struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    /// Lets every held and future pass through.
    pub fn open(&self) {
        let (open, cond) = &*self.0;
        *open.lock().unwrap() = true;
        cond.notify_all();
    }
}

impl Layer for Gate {
    fn forward(&mut self, input: &Mat) -> Mat {
        self.forward_infer(input)
    }

    fn forward_infer(&self, input: &Mat) -> Mat {
        let (open, cond) = &*self.0;
        let guard = open.lock().unwrap();
        drop(cond.wait_while(guard, |open| !*open).unwrap());
        input.clone()
    }

    fn backward(&mut self, grad_output: &Mat) -> Mat {
        grad_output.clone()
    }

    fn name(&self) -> String {
        "gate".to_string()
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }
}
