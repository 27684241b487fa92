//! ISOP-based LUT-netlist-to-CNF encoding — the paper's `lut2cnf` step.
//!
//! Each LUT output becomes one CNF variable; internal AND/NOT structure is
//! invisible to the solver. For a LUT computing `f` with output variable
//! `y`, the encoding emits
//!
//! * one clause `(¬cube ∨ y)` per cube of `ISOP(f)` (on-set implication),
//! * one clause `(¬cube ∨ ¬y)` per cube of `ISOP(¬f)` (off-set implication),
//!
//! which is the classic technology-mapped CNF construction of
//! Eén–Mishchenko–Sörensson and exactly `branching_complexity(f)` clauses —
//! the quantity the cost-customised mapper minimises.

use crate::lutnet::{LutNetlist, LutSignal};
use crate::types::{Cnf, CnfLit};

/// Mapping between LUT-netlist nodes and CNF variables.
#[derive(Clone, Debug)]
pub struct LutVarMap {
    /// CNF variable of node id `i` (inputs first, then LUTs).
    node_var: Vec<u32>,
    num_inputs: usize,
}

impl LutVarMap {
    /// CNF variable of netlist node `id`.
    pub fn node(&self, id: u32) -> u32 {
        self.node_var[id as usize]
    }

    /// CNF literal for a netlist signal.
    pub fn lit(&self, s: LutSignal) -> CnfLit {
        CnfLit::new(self.node(s.node), !s.compl)
    }

    /// CNF variables of the primary inputs, in input order.
    pub fn pi_vars(&self) -> &[u32] {
        &self.node_var[..self.num_inputs]
    }

    /// Extracts the input assignment from a SAT model.
    pub fn decode_inputs(&self, model: &[bool]) -> Vec<bool> {
        self.pi_vars()
            .iter()
            .map(|&v| model[(v - 1) as usize])
            .collect()
    }
}

/// Encodes the netlist into CNF (no output assertion).
pub fn lut_to_cnf(net: &LutNetlist) -> (Cnf, LutVarMap) {
    let mut cnf = Cnf::new();
    let total = net.num_inputs() + net.num_luts();
    let mut node_var = Vec::with_capacity(total);
    for _ in 0..total {
        node_var.push(cnf.fresh_var());
    }
    let map = LutVarMap {
        node_var,
        num_inputs: net.num_inputs(),
    };

    let mut cubes = Vec::new();
    for (k, lut) in net.luts().iter().enumerate() {
        let y = CnfLit::pos(map.node((net.num_inputs() + k) as u32));
        emit_side(&mut cnf, &map, lut, y, true, &mut cubes);
        emit_side(&mut cnf, &map, lut, y, false, &mut cubes);
    }
    (cnf, map)
}

/// Emits the on-set (`onset = true`) or off-set clauses of one LUT, in
/// ISOP cube order; `cubes` is reused scratch.
fn emit_side(
    cnf: &mut Cnf,
    map: &LutVarMap,
    lut: &crate::lutnet::Lut,
    y: CnfLit,
    onset: bool,
    cubes: &mut Vec<aig::Cube>,
) {
    cubes.clear();
    lut.tt.isop_into(!onset, cubes);
    for cube in cubes.iter() {
        // cube -> (y or !y): clause is (¬lit for each cube literal) ∨ out.
        let mut clause: Vec<CnfLit> = Vec::with_capacity(cube.num_lits() as usize + 1);
        for (var, positive) in cube.lits() {
            let fanin = lut.fanins[var];
            // Cube literal "fanin-signal == positive"; its negation in CNF.
            let sig_lit = map.lit(fanin.xor_compl(!positive));
            clause.push(!sig_lit);
        }
        clause.push(if onset { y } else { !y });
        cnf.add_clause(clause);
    }
}

/// Encodes the netlist and asserts satisfaction: the OR of all outputs must
/// be true (a single output gets a unit clause).
///
/// # Panics
/// Panics if the netlist has no outputs.
pub fn lut_to_cnf_sat_instance(net: &LutNetlist) -> (Cnf, LutVarMap) {
    assert!(net.num_outputs() > 0, "instance needs at least one output");
    let (mut cnf, map) = lut_to_cnf(net);
    let lits: Vec<CnfLit> = net.outputs().iter().map(|&s| map.lit(s)).collect();
    cnf.add_clause(lits);
    (cnf, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Tt;

    fn brute_force_models(cnf: &Cnf) -> Vec<Vec<bool>> {
        let n = cnf.num_vars() as usize;
        assert!(n <= 16);
        (0..(1u64 << n))
            .map(|m| (0..n).map(|i| m >> i & 1 != 0).collect::<Vec<bool>>())
            .filter(|a| cnf.eval(a))
            .collect()
    }

    #[test]
    fn clause_count_equals_branching_complexity() {
        let mut net = LutNetlist::new(4);
        let ins: Vec<LutSignal> = (0..4).map(LutSignal::new).collect();
        let xor4 = Tt::var(4, 0) ^ Tt::var(4, 1) ^ Tt::var(4, 2) ^ Tt::var(4, 3);
        let l = net.add_lut(ins, xor4.clone());
        net.add_output(l);
        let (cnf, _) = lut_to_cnf(&net);
        assert_eq!(cnf.num_clauses(), xor4.branching_complexity());
    }

    #[test]
    fn models_define_gate_semantics() {
        // Single AND LUT: every model must satisfy y == a & b.
        let mut net = LutNetlist::new(2);
        let l = net.add_lut(
            vec![LutSignal::new(0), LutSignal::new(1)],
            Tt::from_u64(2, 0x8),
        );
        net.add_output(l);
        let (cnf, map) = lut_to_cnf(&net);
        let y = map.node(2);
        for m in brute_force_models(&cnf) {
            let (a, b) = (m[(map.node(0) - 1) as usize], m[(map.node(1) - 1) as usize]);
            assert_eq!(m[(y - 1) as usize], a && b);
        }
        // And the constraint is complete: exactly 4 models (one per input pair).
        assert_eq!(brute_force_models(&cnf).len(), 4);
    }

    #[test]
    fn sat_instance_models_evaluate_to_true() {
        // out = (a & b) ^ c, asserted.
        let mut net = LutNetlist::new(3);
        let and = net.add_lut(
            vec![LutSignal::new(0), LutSignal::new(1)],
            Tt::from_u64(2, 0x8),
        );
        let xor = net.add_lut(vec![and, LutSignal::new(2)], Tt::from_u64(2, 0x6));
        net.add_output(xor);
        let (cnf, map) = lut_to_cnf_sat_instance(&net);
        let models = brute_force_models(&cnf);
        assert!(!models.is_empty());
        for m in models {
            let ins = map.decode_inputs(&m);
            assert_eq!(net.eval(&ins), vec![true]);
        }
    }

    #[test]
    fn constant_lut_encodes_units() {
        let mut net = LutNetlist::new(1);
        let zero = net.add_lut(vec![LutSignal::new(0)], Tt::zero(1));
        net.add_output(zero);
        let (cnf, _) = lut_to_cnf_sat_instance(&net);
        assert!(
            brute_force_models(&cnf).is_empty(),
            "constant-0 output asserted true"
        );
    }

    #[test]
    fn complemented_signals_respected() {
        // out = !( !a & b ) via complement flags.
        let mut net = LutNetlist::new(2);
        let l = net.add_lut(
            vec![!LutSignal::new(0), LutSignal::new(1)],
            Tt::from_u64(2, 0x8),
        );
        net.add_output(!l);
        let (cnf, map) = lut_to_cnf_sat_instance(&net);
        for m in brute_force_models(&cnf) {
            let ins = map.decode_inputs(&m);
            assert_eq!(net.eval(&ins), vec![true]);
        }
        // UNSAT pattern check: a=0,b=1 makes the output 0; ensure no model has it.
        for m in brute_force_models(&cnf) {
            let ins = map.decode_inputs(&m);
            assert!(ins[0] || !ins[1]);
        }
    }
}
