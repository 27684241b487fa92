//! Structural-functional instance embedding — the DeepGate2 substitute.
//!
//! The paper feeds the RL state the primary-output embeddings of the
//! *initial* netlist produced by a pre-trained DeepGate2 model, which we do
//! not have. As the README's "Substitutions" section argues, we substitute
//! a **training-free random-projection GNN**: per-node structural/functional
//! features (simulation statistics, level, fanout) are propagated through
//! fixed, seed-deterministic projection matrices along the DAG and pooled
//! over the POs. Like DeepGate2's output, the result is a fixed-length vector that
//! (a) is deterministic per instance, (b) reflects both structure and
//! sampled functionality, and (c) separates structurally different
//! instances — which is all the Q-network consumes it for.

use crate::matrix::Matrix;
use aig::sim::random_signatures;
use aig::Aig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Embedding dimensionality.
pub const EMB_DIM: usize = 32;

/// Per-node raw feature count fed to the projection.
const NODE_FEATS: usize = 6;
/// Simulation words per node for the functional statistics.
const SIM_WORDS: usize = 4;
/// Seed of the fixed projection matrices (never trained).
const PROJ_SEED: u64 = 0xDEE9_6A7E;

/// Computes the instance embedding `D(G0)` (pooled PO embeddings).
pub fn instance_embedding(g: &Aig) -> Vec<f64> {
    let (w_in, w_prop) = projections();
    let sigs = random_signatures(g, SIM_WORDS, 0xE3B0);
    let levels = g.levels();
    let max_level = levels.iter().copied().max().unwrap_or(0).max(1) as f64;
    let fanouts = g.fanout_counts();
    let max_fanout = fanouts.iter().copied().max().unwrap_or(0).max(1) as f64;

    let mut h: Vec<Vec<f64>> = vec![vec![0.0; EMB_DIM]; g.num_nodes()];
    for v in 0..g.num_nodes() as u32 {
        let node = g.node(v);
        // Functional statistics from simulation signatures.
        let ones: u32 = sigs.row(v as usize).iter().map(|w| w.count_ones()).sum();
        let total_bits = (SIM_WORDS * 64) as f64;
        let density = ones as f64 / total_bits;
        let feats = [
            node.is_pi() as u8 as f64,
            node.is_and() as u8 as f64,
            levels[v as usize] as f64 / max_level,
            fanouts[v as usize] as f64 / max_fanout,
            density,
            (density * (1.0 - density)) * 4.0, // activity proxy
        ];
        let mut acc = w_in.matvec(&feats);
        if node.is_and() {
            // Message passing: complemented edges contribute negated states,
            // mirroring DeepGate2's polarity-aware aggregation.
            let mut msg = vec![0.0; EMB_DIM];
            for f in node.fanins() {
                let sign = if f.is_compl() { -1.0 } else { 1.0 };
                for (m, x) in msg.iter_mut().zip(&h[f.var() as usize]) {
                    *m += sign * x * 0.5;
                }
            }
            let prop = w_prop.matvec(&msg);
            for (a, p) in acc.iter_mut().zip(&prop) {
                *a += p;
            }
        }
        for a in &mut acc {
            *a = a.tanh();
        }
        h[v as usize] = acc;
    }

    // Mean-pool the PO embeddings (polarity-aware).
    let mut pooled = vec![0.0; EMB_DIM];
    let npos = g.num_pos().max(1) as f64;
    for po in g.pos() {
        let sign = if po.is_compl() { -1.0 } else { 1.0 };
        for (p, x) in pooled.iter_mut().zip(&h[po.var() as usize]) {
            *p += sign * x / npos;
        }
    }
    pooled
}

fn projections() -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(PROJ_SEED);
    let w_in = Matrix::xavier(EMB_DIM, NODE_FEATS, &mut rng);
    let w_prop = Matrix::xavier(EMB_DIM, EMB_DIM, &mut rng);
    (w_in, w_prop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(n: usize) -> Aig {
        let mut g = Aig::new();
        let pis = g.add_pis(n);
        let x = g.xor_many(&pis);
        g.add_po(x);
        g
    }

    fn and_chain(n: usize) -> Aig {
        let mut g = Aig::new();
        let pis = g.add_pis(n);
        let x = g.and_many(&pis);
        g.add_po(x);
        g
    }

    #[test]
    fn deterministic() {
        let g = xor_chain(8);
        assert_eq!(instance_embedding(&g), instance_embedding(&g));
    }

    #[test]
    fn dimension_fixed() {
        assert_eq!(instance_embedding(&xor_chain(4)).len(), EMB_DIM);
        assert_eq!(instance_embedding(&and_chain(12)).len(), EMB_DIM);
    }

    #[test]
    fn bounded_by_tanh() {
        let e = instance_embedding(&xor_chain(10));
        assert!(e.iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn distinguishes_structures() {
        let a = instance_embedding(&xor_chain(8));
        let b = instance_embedding(&and_chain(8));
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!(
            dist > 1e-3,
            "structurally different circuits must separate: {dist}"
        );
    }

    #[test]
    fn sensitive_to_size() {
        let a = instance_embedding(&and_chain(4));
        let b = instance_embedding(&and_chain(16));
        assert_ne!(a, b);
    }
}
