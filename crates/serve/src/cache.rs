//! Structure-keyed verdict cache with lazily verified UNSAT certificates.
//!
//! Entries are keyed by [`Aig::structural_hash`] of the normalized query
//! cone, but a hit additionally requires [`Aig::same_structure`] on the
//! stored cone — a 64-bit hash collision can therefore never cross-pollute
//! verdicts between different formulas. The cached artifacts are themselves
//! re-validated before reuse:
//!
//! - **SAT** entries store a witness over the cone's PIs and replay it
//!   through [`Aig::eval`] on every hit (linear in the cone, vastly cheaper
//!   than a solve).
//! - **UNSAT** entries store the solver's DRAT certificate and are run
//!   through the independent [`checker`] against a *freshly re-derived*
//!   Tseitin encoding of the cone before their first reuse. Verification is
//!   lazy — inserting is free, the first hit pays — and sticky: once a
//!   certificate checks out, the entry drops it and later hits skip the
//!   checker. When the probing query is traced, the check runs under a
//!   `serve.certify` child of its span, which records the certificate's
//!   `steps`, the checker's `verified_adds` and `hinted_adds`, and whether
//!   it was `accepted`.
//!
//! A corrupted or forged artifact is evicted and the probe reports a miss,
//! so the engine falls through to a live solve; soundness never depends on
//! cache integrity.

use aig::hash::FastMap;
use aig::Aig;
use checker::Proof;

/// Counters describing cache effectiveness and certificate hygiene.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to a live solve.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// UNSAT certificates verified by the checker (first reuse).
    pub certs_verified: u64,
    /// Cached artifacts rejected on reuse (bad witness or refused
    /// certificate) and evicted.
    pub certs_rejected: u64,
}

/// Result of a cache probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheAnswer {
    /// Cached satisfiable verdict; the witness is over the cone's PIs and
    /// has been re-validated against the cone.
    Sat(Vec<bool>),
    /// Cached unsatisfiable verdict backed by a checker-verified
    /// certificate.
    Unsat,
    /// No usable entry; solve live.
    Miss,
}

enum CachedVerdict {
    /// Witness over the cone's PIs.
    Sat(Vec<bool>),
    /// DRAT certificate the checker has yet to accept.
    UnsatUnverified(Proof),
    /// UNSAT, its certificate accepted and dropped.
    UnsatVerified,
}

struct Entry {
    cone: Aig,
    verdict: CachedVerdict,
}

/// The verdict cache. Not internally synchronized — the engine guards it
/// with a mutex.
#[derive(Default)]
pub struct VerdictCache {
    buckets: FastMap<u64, Vec<Entry>>,
    stats: CacheStats,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("entries", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// True when no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Probes for a verdict on `cone` under `key`, re-validating the stored
    /// artifact as described in the module docs; a certificate check runs
    /// under a `serve.certify` child of `span` when `span` is traced.
    /// Rejected artifacts are evicted and reported as a miss.
    pub fn lookup(&mut self, key: u64, cone: &Aig, span: &obs::Span) -> CacheAnswer {
        let idx = self
            .buckets
            .get(&key)
            .and_then(|b| b.iter().position(|e| e.cone.same_structure(cone)));
        let Some(idx) = idx else {
            self.stats.misses += 1;
            return CacheAnswer::Miss;
        };

        // Re-validate the artifact; decide hit/evict without holding any
        // borrow across the stats updates.
        enum Probe {
            Hit(CacheAnswer),
            JustVerified,
            Evict,
        }
        let probe = {
            let entry = &mut self.buckets.get_mut(&key).expect("bucket exists")[idx];
            match &mut entry.verdict {
                CachedVerdict::Sat(w) => {
                    if entry.cone.eval(w).iter().any(|&b| b) {
                        Probe::Hit(CacheAnswer::Sat(w.clone()))
                    } else {
                        Probe::Evict
                    }
                }
                CachedVerdict::UnsatVerified => Probe::Hit(CacheAnswer::Unsat),
                CachedVerdict::UnsatUnverified(proof) => {
                    let certify = span.enabled().then(|| span.child("serve.certify"));
                    let (formula, _) = cnf::tseitin_sat_instance(&entry.cone);
                    let clauses: Vec<Vec<i32>> = formula
                        .clauses()
                        .iter()
                        .map(|c| c.iter().map(|&l| l.to_dimacs()).collect())
                        .collect();
                    let checked = checker::check(&clauses, proof);
                    if let Some(certify) = certify {
                        let outcome = checked.as_ref().ok();
                        certify.record("steps", proof.steps.len());
                        certify.record("verified_adds", outcome.map_or(0, |o| o.verified_adds));
                        certify.record("hinted_adds", outcome.map_or(0, |o| o.hinted_adds));
                        certify.record("accepted", checked.is_ok());
                    }
                    if checked.is_ok() {
                        entry.verdict = CachedVerdict::UnsatVerified;
                        Probe::JustVerified
                    } else {
                        Probe::Evict
                    }
                }
            }
        };
        match probe {
            Probe::Hit(answer) => {
                self.stats.hits += 1;
                answer
            }
            Probe::JustVerified => {
                self.stats.certs_verified += 1;
                self.stats.hits += 1;
                CacheAnswer::Unsat
            }
            Probe::Evict => {
                self.stats.certs_rejected += 1;
                self.stats.misses += 1;
                let bucket = self.buckets.get_mut(&key).expect("bucket exists");
                bucket.swap_remove(idx);
                if bucket.is_empty() {
                    self.buckets.remove(&key);
                }
                CacheAnswer::Miss
            }
        }
    }

    /// Caches a satisfiable verdict; `witness` is over `cone`'s PIs. A
    /// pre-existing entry for the same structure is left untouched.
    pub fn insert_sat(&mut self, key: u64, cone: Aig, witness: Vec<bool>) {
        self.insert(key, cone, CachedVerdict::Sat(witness));
    }

    /// Caches an unsatisfiable verdict with its DRAT certificate, to be
    /// checked on first reuse (freshly solved queries and warm-loaded
    /// certificates alike).
    pub fn insert_unsat(&mut self, key: u64, cone: Aig, proof: Proof) {
        self.insert(key, cone, CachedVerdict::UnsatUnverified(proof));
    }

    fn insert(&mut self, key: u64, cone: Aig, verdict: CachedVerdict) {
        let bucket = self.buckets.entry(key).or_default();
        if bucket.iter().any(|e| e.cone.same_structure(&cone)) {
            return;
        }
        bucket.push(Entry { cone, verdict });
        self.stats.insertions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span of a query that is not traced.
    fn untraced() -> obs::Span {
        obs::Registry::disabled().span("serve.query")
    }

    /// `a & !a`: UNSAT with a one-step certificate.
    fn contradiction() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let x = g.and(a, !a);
        g.add_po(x);
        g
    }

    /// `a & b`: SAT with witness `[true, true]`.
    fn conjunction() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        g
    }

    fn solve_unsat_proof(cone: &Aig) -> Proof {
        let (formula, _) = cnf::tseitin_sat_instance(cone);
        let cfg = sat::SolverConfig {
            proof: true,
            ..sat::SolverConfig::default()
        };
        let mut s = sat::Solver::from_cnf(&formula, cfg);
        assert!(s.solve().is_unsat());
        s.into_proof().unwrap()
    }

    #[test]
    fn sat_hit_replays_witness() {
        let g = conjunction();
        let key = g.structural_hash();
        let mut c = VerdictCache::new();
        assert_eq!(c.lookup(key, &g, &untraced()), CacheAnswer::Miss);
        c.insert_sat(key, g.clone(), vec![true, true]);
        assert_eq!(
            c.lookup(key, &g, &untraced()),
            CacheAnswer::Sat(vec![true, true])
        );
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn corrupt_sat_witness_evicted() {
        let g = conjunction();
        let key = g.structural_hash();
        let mut c = VerdictCache::new();
        c.insert_sat(key, g.clone(), vec![true, false]); // does not satisfy
        assert_eq!(c.lookup(key, &g, &untraced()), CacheAnswer::Miss);
        assert_eq!(c.stats().certs_rejected, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn unsat_cert_verified_once_then_sticky() {
        let g = contradiction();
        let key = g.structural_hash();
        let proof = solve_unsat_proof(&g);
        let mut c = VerdictCache::new();
        c.insert_unsat(key, g.clone(), proof);
        assert_eq!(c.lookup(key, &g, &untraced()), CacheAnswer::Unsat);
        assert_eq!(c.stats().certs_verified, 1);
        assert_eq!(c.lookup(key, &g, &untraced()), CacheAnswer::Unsat);
        assert_eq!(c.stats().certs_verified, 1, "second hit skips the checker");
        assert_eq!(c.stats().hits, 2);
    }

    /// Miter of two XOR implementations: UNSAT, but *not* refutable by unit
    /// propagation alone — a bare empty-clause "certificate" is not RUP here
    /// (unlike for [`contradiction`], whose conflict UP finds directly).
    fn xor_miter() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x1 = g.xor(a, b);
        let o = g.or(a, b);
        let n = g.and(a, b);
        let x2 = g.and(o, !n);
        let m = g.xor(x1, x2);
        g.add_po(m);
        g
    }

    #[test]
    fn traced_first_reuse_check_is_one_certify_span() {
        let reg = obs::Registry::tracing();
        let g = xor_miter();
        let key = g.structural_hash();
        let proof = solve_unsat_proof(&g);
        let steps = proof.steps.len() as u64;
        let mut c = VerdictCache::new();
        c.insert_unsat(key, g.clone(), proof);
        let query = reg.span("serve.query");
        assert_eq!(c.lookup(key, &g, &query), CacheAnswer::Unsat);
        assert_eq!(c.lookup(key, &g, &query), CacheAnswer::Unsat);
        let query_id = query.id();
        drop(query);
        let events = reg.drain_events();
        obs::check::validate(&events).expect("span stream well-formed");
        let certify = |kind| {
            let of_kind = |e: &&obs::Event| e.kind == kind && e.name == "serve.certify";
            events.iter().filter(of_kind).collect::<Vec<_>>()
        };
        let enters = certify(obs::EventKind::Enter);
        assert_eq!(enters.len(), 1, "the sticky second hit checks nothing");
        assert_eq!(enters[0].parent, query_id);
        let exit = certify(obs::EventKind::Exit)[0];
        let field = |key| {
            let (_, value) = exit.fields.iter().find(|(k, _)| *k == key).expect("field");
            match value {
                obs::FieldValue::U64(v) => *v,
                obs::FieldValue::Str(s) => panic!("{key} = {s}"),
            }
        };
        assert_eq!(field("steps"), steps);
        assert_eq!(field("accepted"), 1);
        assert!(field("hinted_adds") <= field("verified_adds"));
        assert!(field("verified_adds") >= 1);
    }

    #[test]
    fn corrupt_unsat_cert_rejected_and_evicted() {
        let g = xor_miter();
        let key = g.structural_hash();
        // A "certificate" whose steps are garbage: claims the empty clause
        // without any RUP-derivable support.
        let mut bogus = Proof::default();
        bogus.add(vec![]);
        let mut c = VerdictCache::new();
        c.insert_unsat(key, g.clone(), bogus);
        assert_eq!(c.lookup(key, &g, &untraced()), CacheAnswer::Miss);
        assert_eq!(c.stats().certs_rejected, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn hash_collision_cannot_cross_pollute() {
        // Force both cones into the same bucket by using one key; the
        // structure check must still separate them.
        let sat_g = conjunction();
        let unsat_g = contradiction();
        let key = 42;
        let mut c = VerdictCache::new();
        c.insert_sat(key, sat_g.clone(), vec![true, true]);
        assert_eq!(c.lookup(key, &unsat_g, &untraced()), CacheAnswer::Miss);
        assert_eq!(
            c.lookup(key, &sat_g, &untraced()),
            CacheAnswer::Sat(vec![true, true])
        );
    }
}
