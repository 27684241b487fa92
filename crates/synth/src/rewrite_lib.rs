//! The NPN-class structure library used by DAG-aware rewriting.
//!
//! ABC ships a pre-computed table of optimal 4-input structures; this
//! library builds one structure per class with
//! [`crate::factor::best_structure`] the first time it is asked, into a
//! `Vec` indexed by the class index of [`aig::npn::NpnTable`], and lends
//! them out: a lookup is one index into the NPN table and one into the
//! library, with no lock, hash or copy. The 222 structures take 1–2 ms to
//! build; the first lookup also builds the NPN table (see [`aig::npn`]).

use crate::factor::best_structure;
use aig::npn::NpnTable;
use aig::{GateList, Tt};
use std::sync::OnceLock;

/// Returns the structure implementing the NPN-canonical 4-variable
/// function `canon`.
///
/// # Panics
/// Panics if `canon` is not the canon of its class.
pub fn npn_structure(canon: u16) -> &'static GateList {
    static LIBRARY: OnceLock<Vec<GateList>> = OnceLock::new();
    let entry = NpnTable::get().entry(canon);
    assert_eq!(entry.canon, canon, "{canon:#06x} is not an NPN canon");
    let library = LIBRARY.get_or_init(|| {
        let canons = NpnTable::get().canons().iter();
        canons.map(|&c| best_structure(&Tt::from_u16(c))).collect()
    });
    &library[entry.class as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsd::gatelist_tt;
    use aig::npn::npn_class_representatives;

    #[test]
    fn every_class_synthesises_correctly() {
        for canon in npn_class_representatives() {
            let gl = npn_structure(canon);
            assert_eq!(gatelist_tt(gl).to_u16(), canon, "class {canon:#06x}");
        }
    }

    #[test]
    fn structures_are_reasonably_small() {
        // The exact optimum for the worst 4-input NPN class is 9 AND gates;
        // our heuristic generators stay within 2x of that, which is enough
        // for rewriting (gains are measured, never assumed).
        let max = npn_class_representatives()
            .into_iter()
            .map(|c| npn_structure(c).size())
            .max()
            .unwrap();
        assert!(max <= 18, "largest class structure has {max} gates");
    }

    #[test]
    fn cache_returns_identical_structure() {
        let a = npn_structure(0x6996); // xor4's class: {0x6996, 0x9669}
        let b = npn_structure(0x6996);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "not an NPN canon")]
    fn non_canonical_table_is_rejected() {
        // 0xFFFF shares its class with the smaller constant 0x0000.
        npn_structure(0xFFFF);
    }
}
