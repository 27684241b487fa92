//! Multilayer perceptron with ReLU activations and manual backprop.
//!
//! The paper's Q-function is an MLP over the concatenated circuit features
//! and instance embedding (Eq. 4). This implementation keeps parameters in
//! plain vectors so the Adam optimiser can treat the whole network as one
//! flat parameter list.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One affine layer.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weights (`out × in`).
    pub w: Matrix,
    /// Biases (`out`).
    pub b: Vec<f64>,
}

/// An MLP: affine layers with ReLU between (none after the last layer).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Cached forward-pass activations, consumed by [`Mlp::backward`].
#[derive(Clone, Debug)]
pub struct Activations {
    /// Input and post-activation output of every layer (len = layers + 1).
    acts: Vec<Vec<f64>>,
    /// Pre-activation values per layer.
    pre: Vec<Vec<f64>>,
}

impl Activations {
    /// The network output.
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("non-empty")
    }
}

/// Gradients with the same shape as the network parameters.
#[derive(Clone, Debug)]
pub struct Gradients {
    /// Per-layer weight gradients.
    pub w: Vec<Matrix>,
    /// Per-layer bias gradients.
    pub b: Vec<Vec<f64>>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[38, 64, 64, 5]`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Linear {
                w: Matrix::xavier(w[1], w[0], &mut rng),
                b: vec![0.0; w[1]],
            })
            .collect();
        Mlp { layers }
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").w.rows()
    }

    /// Forward pass returning all activations (for training).
    pub fn forward(&self, x: &[f64]) -> Activations {
        let mut acts = vec![x.to_vec()];
        let mut pre = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.w.matvec(acts.last().expect("non-empty"));
            for (zj, bj) in z.iter_mut().zip(&layer.b) {
                *zj += bj;
            }
            pre.push(z.clone());
            if i + 1 < self.layers.len() {
                for zj in &mut z {
                    *zj = zj.max(0.0);
                }
            }
            acts.push(z);
        }
        Activations { acts, pre }
    }

    /// Inference-only forward pass.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x).output().to_vec()
    }

    /// Backward pass: given `dL/d(output)`, accumulates parameter gradients
    /// into `grads` and returns nothing (input gradients are not needed).
    ///
    /// # Panics
    /// Panics if shapes disagree with the forward pass.
    pub fn backward(&self, acts: &Activations, dl_dout: &[f64], grads: &mut Gradients) {
        assert_eq!(dl_dout.len(), self.output_dim(), "output gradient shape");
        let mut delta = dl_dout.to_vec();
        for i in (0..self.layers.len()).rev() {
            // delta is dL/d(post-activation of layer i); convert to
            // dL/d(pre-activation) through the ReLU (identity on last layer).
            if i + 1 < self.layers.len() {
                for (d, &z) in delta.iter_mut().zip(&acts.pre[i]) {
                    if z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            grads.w[i].add_outer(&delta, &acts.acts[i]);
            for (gb, d) in grads.b[i].iter_mut().zip(&delta) {
                *gb += d;
            }
            if i > 0 {
                delta = self.layers[i].w.matvec_t(&delta);
            }
        }
    }

    /// Zero-filled gradients matching this network.
    pub fn zero_grads(&self) -> Gradients {
        Gradients {
            w: self
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
                .collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Immutable layer access (for the optimiser and target-network sync).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable layer access.
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Copies all parameters from another, identically shaped network.
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(dst.w.rows(), src.w.rows());
            assert_eq!(dst.w.cols(), src.w.cols());
            dst.w = src.w.clone();
            dst.b = src.b.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        let net = Mlp::new(&[4, 8, 3], 0);
        assert_eq!(net.output_dim(), 3);
        let y = net.infer(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn relu_applied_between_layers_only() {
        // A 1-layer net is affine: negative outputs possible.
        let mut net = Mlp::new(&[1, 1], 3);
        net.layers_mut()[0].w = Matrix::from_vec(1, 1, vec![-2.0]);
        net.layers_mut()[0].b = vec![0.0];
        assert_eq!(net.infer(&[1.0]), vec![-2.0]);
    }

    /// Finite-difference gradient check: the backprop gradients must match
    /// numerical derivatives of a scalar loss.
    #[test]
    fn gradient_check() {
        let mut net = Mlp::new(&[3, 5, 2], 7);
        let x = [0.3, -0.7, 1.1];
        let target = [0.5, -0.25];
        let loss = |net: &Mlp| -> f64 {
            let y = net.infer(&x);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        // Analytic gradients.
        let acts = net.forward(&x);
        let dl: Vec<f64> = acts
            .output()
            .iter()
            .zip(&target)
            .map(|(a, b)| 2.0 * (a - b))
            .collect();
        let mut grads = net.zero_grads();
        net.backward(&acts, &dl, &mut grads);
        // Numeric check on a sample of weights in each layer.
        let eps = 1e-6;
        for li in 0..net.layers().len() {
            let n = net.layers()[li].w.as_slice().len();
            for k in (0..n).step_by(3) {
                let orig = net.layers()[li].w.as_slice()[k];
                net.layers_mut()[li].w.as_mut_slice()[k] = orig + eps;
                let lp = loss(&net);
                net.layers_mut()[li].w.as_mut_slice()[k] = orig - eps;
                let lm = loss(&net);
                net.layers_mut()[li].w.as_mut_slice()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.w[li].as_slice()[k];
                assert!(
                    (numeric - analytic).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "layer {li} w[{k}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            for k in 0..net.layers()[li].b.len() {
                let orig = net.layers()[li].b[k];
                net.layers_mut()[li].b[k] = orig + eps;
                let lp = loss(&net);
                net.layers_mut()[li].b[k] = orig - eps;
                let lm = loss(&net);
                net.layers_mut()[li].b[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads.b[li][k];
                assert!(
                    (numeric - analytic).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "layer {li} b[{k}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn copy_from_syncs() {
        let a = Mlp::new(&[2, 4, 2], 1);
        let mut b = Mlp::new(&[2, 4, 2], 2);
        assert_ne!(a.infer(&[1.0, 2.0]), b.infer(&[1.0, 2.0]));
        b.copy_from(&a);
        assert_eq!(a.infer(&[1.0, 2.0]), b.infer(&[1.0, 2.0]));
    }
}
