//! Cut-cost models — where the paper's contribution plugs into mapping.
//!
//! A conventional mapper prices every LUT at 1 (area) and minimises LUT
//! count. The paper's cost-customised mapper instead prices a LUT by its
//! *branching complexity* `C(f) = |ISOP(f)| + |ISOP(¬f)|` (Fig. 3), which
//! equals the number of CNF clauses the LUT will contribute — so minimising
//! total cut cost directly minimises the branching load handed to the SAT
//! solver.
//!
//! A cut reaches its cost model as its leaf count and its function in one
//! word (LUTs have at most six inputs), the word each enumerated cut
//! carries ([`aig::cut::Cut::truth`]). The mapper prices every cut once.

use aig::hash::FastMap;
use aig::Tt;
use std::cell::RefCell;

/// Prices a cut by the function it implements.
///
/// Implementations must be pure (same function, same cost); the mapper may
/// cache results.
pub trait CutCost {
    /// Cost of one LUT implementing the function `word` over `nvars <= 6`
    /// inputs: bit `m` is the value on minterm `m`, as in
    /// [`Tt::from_u64`], and bits from `2^nvars` up are ignored.
    fn cut_cost(&self, nvars: usize, word: u64) -> f64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Conventional area cost: every LUT costs 1.
///
/// This is the *C. Mapper* arm of the paper's Fig. 5 ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct AreaCost;

impl CutCost for AreaCost {
    fn cut_cost(&self, _nvars: usize, _word: u64) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "area"
    }
}

/// The paper's branching-complexity cost (with a small area tie-break so
/// equal-complexity mappings still prefer fewer LUTs).
///
/// ```
/// use mapper::{BranchingCost, CutCost};
/// let cost = BranchingCost::new();
/// // Fig. 3: AND-like LUTs are cheaper than XOR-like LUTs.
/// assert!(cost.cut_cost(2, 0x8) < cost.cut_cost(2, 0x6));
/// ```
#[derive(Debug, Default)]
pub struct BranchingCost {
    cache: RefCell<FastMap<(usize, u64), f64>>,
}

impl BranchingCost {
    /// A fresh cost model with an empty memo table.
    pub fn new() -> BranchingCost {
        BranchingCost::default()
    }
}

impl CutCost for BranchingCost {
    fn cut_cost(&self, nvars: usize, word: u64) -> f64 {
        let key = (nvars, word);
        if let Some(&c) = self.cache.borrow().get(&key) {
            return c;
        }
        let c = Tt::from_u64(nvars, word).branching_complexity() as f64;
        self.cache.borrow_mut().insert(key, c);
        c
    }

    fn name(&self) -> &'static str {
        "branching"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_constant() {
        let c = AreaCost;
        assert_eq!(c.cut_cost(2, 0x8), 1.0);
        assert_eq!(c.cut_cost(4, 0x6996), 1.0);
    }

    #[test]
    fn branching_matches_fig3() {
        let c = BranchingCost::new();
        assert_eq!(c.cut_cost(2, 0x8), 3.0); // AND
        assert_eq!(c.cut_cost(2, 0x6), 4.0); // XOR
    }

    #[test]
    fn cache_is_transparent() {
        let c = BranchingCost::new();
        let t = Tt::from_u64(4, 0x1ee1);
        let a = c.cut_cost(4, 0x1ee1);
        let b = c.cut_cost(4, 0x1ee1);
        assert_eq!(a, b);
        assert_eq!(a, t.branching_complexity() as f64);
    }

    #[test]
    fn xor4_much_more_expensive_than_and4() {
        let c = BranchingCost::new();
        let and4 = Tt::var(4, 0) & Tt::var(4, 1) & Tt::var(4, 2) & Tt::var(4, 3);
        let xor4 = Tt::var(4, 0) ^ Tt::var(4, 1) ^ Tt::var(4, 2) ^ Tt::var(4, 3);
        assert!(c.cut_cost(4, xor4.to_u64()) >= 3.0 * c.cut_cost(4, and4.to_u64()));
    }
}
