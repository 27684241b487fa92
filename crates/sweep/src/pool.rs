//! Scoped worker-thread scaffolding for sharded, deterministic parallelism.
//!
//! The sweep engine, this module's one user, runs many independent
//! stateful tasks — SAT oracles — whose *assignment* must not depend on
//! how many OS threads happen to execute them, or results would change
//! with the machine. The primitive here makes
//! that split explicit:
//!
//! * work is divided into **logical shards**, each owning mutable state
//!   (e.g. one incremental SAT solver) and a fixed, deterministic slice of
//!   the items;
//! * **threads** only decide how many shards run concurrently. Shard `s`
//!   always processes the same items in the same order, so every shard's
//!   state evolution — and therefore every emitted result — is identical
//!   for any thread count, including fully sequential execution.
//!
//! Results stream back to the caller over an [`mpsc`] channel keyed by item
//! index; the caller reassembles them into index order, turning unordered
//! parallel arrival into a deterministic merge.
//!
//! Shard work runs under [`catch_unwind`]: a panicking shard is contained
//! — its pre-panic emissions are kept, its index is reported in
//! [`ShardedRun::failed_shards`], and every other shard (and the process)
//! keeps running. Since a shard's item sequence is deterministic, so is the
//! set of emissions it completed before a deterministic panic, keeping the
//! thread-invariance contract intact even under worker crashes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Deterministic fault-injection plan for sharded/pooled worker layers —
/// the robustness test harness behind `tests/fault_injection.rs` and the
/// serve layer's chaos suites.
///
/// Faults are rolled per work item from `(seed, round, task)` alone, so an
/// injected fault pattern is bit-reproducible and — like every other part
/// of a sharded run — independent of the thread or worker count. The fraig
/// sweep's oracle shards (run by [`run_sharded`]) and the serve engine's
/// query workers (its own pool) consume the same plan, each reading
/// `round` as its coarse progress counter (sweep round, retry attempt) and
/// `task` as the item index. Three fault shapes cover the real failure
/// modes:
///
/// * **Unknown storms** (`unknown_in_1024`): the worker's answer is
///   replaced by an inconclusive one without running the real work,
///   modelling budget/deadline exhaustion on a single item.
/// * **Worker panics** (`panic_in_1024`): the worker panics, modelling a
///   crashed solver; the pool contains it (`catch_unwind`) and the caller
///   degrades or retries the lost items.
/// * **Round starvation** (`starve_from_round`): every item from the given
///   round on is starved, modelling whole-run deadline exhaustion at round
///   granularity — deterministic, unlike a real wall-clock cut, so tests
///   can assert exact subset properties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Fault-pattern seed.
    pub seed: u64,
    /// Per-item chance (out of 1024) of forcing an inconclusive answer.
    pub unknown_in_1024: u16,
    /// Per-item chance (out of 1024) of panicking the worker.
    pub panic_in_1024: u16,
    /// Starve every item to inconclusive from this round on.
    pub starve_from_round: Option<usize>,
}

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Answer inconclusively without doing the real work.
    Unknown,
    /// Panic the worker mid-item.
    Panic,
}

impl ChaosPlan {
    /// Rolls the fault (if any) for one work item. Pure function of
    /// `(self.seed, round, task)` — never of scheduling — so a fault
    /// pattern replays identically whatever executes the items.
    pub fn roll(&self, round: usize, task: usize) -> Option<Fault> {
        if self.starve_from_round.is_some_and(|r| round >= r) {
            return Some(Fault::Unknown);
        }
        let x = splitmix64(
            self.seed ^ ((round as u64) << 40) ^ (task as u64).wrapping_mul(0x9E37_79B9),
        );
        let r = (x % 1024) as u16;
        if r < self.panic_in_1024 {
            Some(Fault::Panic)
        } else if r < self.panic_in_1024.saturating_add(self.unknown_in_1024) {
            Some(Fault::Unknown)
        } else {
            None
        }
    }
}

/// SplitMix64 finaliser: one well-mixed word from one input word.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Outcome of [`run_sharded`]: per-slot results plus which shards died.
#[derive(Debug)]
pub struct ShardedRun<V> {
    /// Result per slot (`None` where nothing was emitted — unfilled slots,
    /// or items lost to a shard panic).
    pub results: Vec<Option<V>>,
    /// Indices of shards whose closure panicked, in ascending order. The
    /// caller owns the shard states and should treat these as poisoned
    /// (e.g. rebuild the shard's solver before reusing it).
    pub failed_shards: Vec<usize>,
}

/// Runs `f(shard_index, &mut shard_state, emit)` once per shard, spreading
/// the shards round-robin across at most `threads` worker threads.
///
/// `f` receives an `emit(key, value)` sink; every emitted pair is collected
/// into `results` at position `key` (`None` where nothing was emitted).
/// Keys must be `< slots`; emitting a key twice keeps the later arrival, so
/// shard item assignments should be disjoint.
///
/// With `threads <= 1` (or a single shard) everything runs inline on the
/// caller's thread — no spawns, no channel — but over the *same* per-shard
/// item sequences, so the output is bit-identical to the parallel run.
///
/// A panic inside `f` never propagates: the shard's completed emissions
/// are kept, its index lands in [`ShardedRun::failed_shards`], and the
/// remaining shards run to completion — on the inline path exactly as on
/// the threaded one.
///
/// # Panics
/// Panics (in the collector) if an emitted key is `>= slots`.
pub fn run_sharded<S, V, F>(threads: usize, shards: &mut [S], slots: usize, f: F) -> ShardedRun<V>
where
    S: Send,
    V: Send,
    F: Fn(usize, &mut S, &mut dyn FnMut(usize, V)) + Sync,
{
    let mut out: Vec<Option<V>> = std::iter::repeat_with(|| None).take(slots).collect();
    let mut failed: Vec<usize> = Vec::new();
    let workers = threads.min(shards.len());
    if workers <= 1 {
        for (s, state) in shards.iter_mut().enumerate() {
            // AssertUnwindSafe: on panic the caller is told the shard
            // failed and is expected to discard its (possibly
            // half-mutated) state instead of querying it further.
            let run = catch_unwind(AssertUnwindSafe(|| {
                f(s, state, &mut |k, v| out[k] = Some(v));
            }));
            if run.is_err() {
                failed.push(s);
            }
        }
        return ShardedRun {
            results: out,
            failed_shards: failed,
        };
    }
    enum Msg<V> {
        Item(usize, V),
        ShardPanicked(usize),
    }
    let (tx, rx) = mpsc::channel::<Msg<V>>();
    std::thread::scope(|scope| {
        // Deal shards round-robin onto workers. Which worker runs a shard
        // is irrelevant for determinism — only the per-shard sequence is.
        let mut buckets: Vec<Vec<(usize, &mut S)>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, state) in shards.iter_mut().enumerate() {
            buckets[s % workers].push((s, state));
        }
        let f = &f;
        for bucket in buckets {
            let tx = tx.clone();
            scope.spawn(move || {
                for (s, state) in bucket {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        f(s, state, &mut |k, v| {
                            // A closed channel means the collector
                            // panicked; just stop producing.
                            let _ = tx.send(Msg::Item(k, v));
                        });
                    }));
                    if run.is_err() {
                        let _ = tx.send(Msg::ShardPanicked(s));
                    }
                }
            });
        }
        drop(tx);
        for msg in rx {
            match msg {
                Msg::Item(k, v) => out[k] = Some(v),
                Msg::ShardPanicked(s) => failed.push(s),
            }
        }
    });
    failed.sort_unstable();
    ShardedRun {
        results: out,
        failed_shards: failed,
    }
}

/// Resolves a thread-count knob: `0` means one thread per available core,
/// any other value is taken as-is (floored at 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shard counts its items; results must land at their item index
    /// regardless of thread count.
    fn run(threads: usize, shards: usize, items: usize) -> Vec<Option<(usize, u64)>> {
        let mut states: Vec<u64> = vec![0; shards];
        let run = run_sharded(threads, &mut states, items, |s, state, emit| {
            let mut i = s;
            while i < items {
                *state += 1; // per-shard running count = deterministic state
                emit(i, (s, *state));
                i += shards;
            }
        });
        assert!(run.failed_shards.is_empty());
        run.results
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = run(1, 4, 23);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads, 4, 23), seq, "threads={threads}");
        }
        // Every slot filled, shard assignment is index mod shards.
        for (i, slot) in seq.iter().enumerate() {
            let (s, count) = slot.expect("every item answered");
            assert_eq!(s, i % 4);
            assert_eq!(count as usize, i / 4 + 1, "per-shard sequence order");
        }
    }

    #[test]
    fn more_threads_than_shards_is_capped() {
        let out = run(64, 2, 5);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|o| o.is_some()));
    }

    #[test]
    fn empty_work_is_fine() {
        let out = run(4, 3, 0);
        assert!(out.is_empty());
        let mut none: Vec<u8> = Vec::new();
        let run: ShardedRun<()> = run_sharded(4, &mut none, 0, |_, _, _| {});
        assert!(run.results.is_empty());
        assert!(run.failed_shards.is_empty());
    }

    /// Shard 1 panics midway; its pre-panic emissions and every other
    /// shard's full output must survive, identically for any thread count.
    fn run_with_poison(threads: usize) -> (Vec<Option<usize>>, Vec<usize>) {
        let mut states: Vec<u64> = vec![0; 3];
        let run = run_sharded(threads, &mut states, 9, |s, _state, emit| {
            let mut i = s;
            while i < 9 {
                if s == 1 && i >= 4 {
                    panic!("injected shard failure");
                }
                emit(i, i * 10);
                i += 3;
            }
        });
        (run.results, run.failed_shards)
    }

    #[test]
    fn panicking_shard_is_contained_and_reported() {
        let (seq, seq_failed) = run_with_poison(1);
        assert_eq!(seq_failed, vec![1]);
        // Shard 1 handles items 1, 4, 7: item 1 emitted, 4 and 7 lost.
        assert_eq!(seq[1], Some(10));
        assert_eq!(seq[4], None);
        assert_eq!(seq[7], None);
        // Shards 0 and 2 are untouched by the neighbour's crash.
        for i in [0usize, 2, 3, 5, 6, 8] {
            assert_eq!(seq[i], Some(i * 10), "item {i}");
        }
        for threads in [2, 3, 8] {
            assert_eq!(run_with_poison(threads), (seq.clone(), seq_failed.clone()));
        }
    }

    #[test]
    fn every_shard_failing_still_returns() {
        let mut states: Vec<u8> = vec![0; 4];
        let run: ShardedRun<()> = run_sharded(2, &mut states, 4, |_, _, _| {
            panic!("all down");
        });
        assert!(run.results.iter().all(|r| r.is_none()));
        assert_eq!(run.failed_shards, vec![0, 1, 2, 3]);
    }

    #[test]
    fn resolve_threads_floors_and_autodetects() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }
}
