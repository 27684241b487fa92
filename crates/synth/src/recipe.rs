//! Synthesis operations and recipes (sequences of operations).
//!
//! The paper's RL agent picks from the discrete action set
//! `{rewrite, refactor, balance, resub, end}` (Sec. III-B3); this module
//! provides the circuit-side of that action space, plus canned recipes used
//! by the baselines (e.g. the size-oriented script standing in for the
//! Eén–Mishchenko–Sörensson preprocessing of the *Comp.* pipeline).

use crate::{balance, refactor, resub, rewrite};
use aig::Aig;
use std::fmt;
use std::str::FromStr;

/// One logic-synthesis operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SynthOp {
    /// Delay-oriented AND-tree balancing.
    Balance,
    /// DAG-aware 4-cut NPN rewriting.
    Rewrite,
    /// Rewriting accepting zero-gain moves (perturbation).
    RewriteZ,
    /// MFFC refactoring via algebraic factoring.
    Refactor,
    /// Window-based resubstitution.
    Resub,
}

impl SynthOp {
    /// All operations, in a stable order (the RL action indexing).
    pub const ALL: [SynthOp; 5] = [
        SynthOp::Balance,
        SynthOp::Rewrite,
        SynthOp::RewriteZ,
        SynthOp::Refactor,
        SynthOp::Resub,
    ];

    /// Short ABC-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SynthOp::Balance => "b",
            SynthOp::Rewrite => "rw",
            SynthOp::RewriteZ => "rwz",
            SynthOp::Refactor => "rf",
            SynthOp::Resub => "rs",
        }
    }
}

impl fmt::Display for SynthOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error parsing a [`SynthOp`] or [`Recipe`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRecipeError(String);

impl fmt::Display for ParseRecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown synthesis operation '{}'", self.0)
    }
}

impl std::error::Error for ParseRecipeError {}

impl FromStr for SynthOp {
    type Err = ParseRecipeError;
    fn from_str(s: &str) -> Result<SynthOp, ParseRecipeError> {
        match s.trim() {
            "b" | "balance" => Ok(SynthOp::Balance),
            "rw" | "rewrite" => Ok(SynthOp::Rewrite),
            "rwz" | "rewrite-z" => Ok(SynthOp::RewriteZ),
            "rf" | "refactor" => Ok(SynthOp::Refactor),
            "rs" | "resub" => Ok(SynthOp::Resub),
            other => Err(ParseRecipeError(other.to_string())),
        }
    }
}

/// Applies one operation, returning the transformed graph.
pub fn apply_op(aig: &Aig, op: SynthOp) -> Aig {
    match op {
        SynthOp::Balance => balance(aig),
        SynthOp::Rewrite => rewrite(aig, false),
        SynthOp::RewriteZ => rewrite(aig, true),
        SynthOp::Refactor => refactor(aig),
        SynthOp::Resub => resub(aig),
    }
}

/// Applies a sequence of operations left to right.
pub fn apply_recipe(aig: &Aig, ops: &[SynthOp]) -> Aig {
    let mut g = aig.clone();
    for &op in ops {
        g = apply_op(&g, op);
    }
    g
}

/// A named sequence of synthesis operations.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Recipe {
    ops: Vec<SynthOp>,
}

impl Recipe {
    /// An empty recipe (identity transformation).
    pub fn new() -> Recipe {
        Recipe::default()
    }

    /// Builds a recipe from operations.
    pub fn from_ops(ops: Vec<SynthOp>) -> Recipe {
        Recipe { ops }
    }

    /// The classic size-oriented script (`b; rw; rf; b; rw; b`) — our
    /// stand-in for the minimisation pass of the *Comp.* baseline
    /// (Eén–Mishchenko–Sörensson, SAT 2007).
    pub fn size_script() -> Recipe {
        use SynthOp::*;
        Recipe {
            ops: vec![Balance, Rewrite, Refactor, Balance, Rewrite, Balance],
        }
    }

    /// The operations of the recipe.
    pub fn ops(&self) -> &[SynthOp] {
        &self.ops
    }

    /// Appends one operation.
    pub fn push(&mut self, op: SynthOp) {
        self.ops.push(op);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the recipe has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs the recipe on a graph.
    pub fn apply(&self, aig: &Aig) -> Aig {
        apply_recipe(aig, &self.ops)
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<&str> = self.ops.iter().map(|o| o.mnemonic()).collect();
        f.write_str(&parts.join(";"))
    }
}

impl FromStr for Recipe {
    type Err = ParseRecipeError;
    fn from_str(s: &str) -> Result<Recipe, ParseRecipeError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Recipe::new());
        }
        let ops = s
            .split([';', ','])
            .map(|tok| tok.parse::<SynthOp>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Recipe { ops })
    }
}

impl FromIterator<SynthOp> for Recipe {
    fn from_iter<T: IntoIterator<Item = SynthOp>>(iter: T) -> Recipe {
        Recipe {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::sim_equiv;
    use aig::Lit;

    fn random_aig(seed: u64) -> Aig {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let pis = g.add_pis(10);
        let mut pool: Vec<Lit> = pis;
        for _ in 0..150 {
            let a = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let b = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let l = match rng.gen_range(0..4) {
                0 | 1 => g.and(a, b),
                2 => g.or(a, b),
                _ => g.xor(a, b),
            };
            pool.push(l);
        }
        let n = pool.len();
        g.add_po(pool[n - 1]);
        g
    }

    #[test]
    fn every_op_preserves_function() {
        let g = random_aig(11);
        for op in SynthOp::ALL {
            let h = apply_op(&g, op);
            assert!(sim_equiv(&g, &h, 8, 17), "op {op}");
        }
    }

    #[test]
    fn size_script_shrinks_random_logic() {
        let g = random_aig(12);
        let h = Recipe::size_script().apply(&g);
        assert!(sim_equiv(&g, &h, 8, 18));
        assert!(
            h.num_ands() <= g.num_ands(),
            "{} -> {}",
            g.num_ands(),
            h.num_ands()
        );
    }

    #[test]
    fn recipe_parse_roundtrip() {
        let r: Recipe = "b;rw;rf;rs;rwz".parse().unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.to_string(), "b;rw;rf;rs;rwz");
        assert_eq!(r.to_string().parse::<Recipe>().unwrap(), r);
        assert!("b;xx".parse::<Recipe>().is_err());
        assert_eq!("".parse::<Recipe>().unwrap(), Recipe::new());
    }

    #[test]
    fn mnemonics_unique() {
        let mut set = std::collections::HashSet::new();
        for op in SynthOp::ALL {
            assert!(set.insert(op.mnemonic()));
        }
    }
}
