//! Content-addressed compiled-artifact cache.
//!
//! Every run of a [`Program`] pays a host-side compile pipeline before
//! the first step: validate, instrumentation/elision analysis, and
//! pre-decode. Services, suite runners, and sweeps execute the *same*
//! programs thousands to millions of times, so this crate hoists that
//! pipeline into a one-time [`CompiledArtifact`] per distinct program —
//! the same move the paper's hardware makes by metadata hoisting,
//! applied to the simulator's own host costs.
//!
//! **Keying.** An artifact is addressed by *content*, not identity:
//! `(program fingerprint, analysis fingerprint, instrumented?,
//! elide_checks?)`.
//! The fingerprint is FNV-1a over the program's deterministic rendering
//! (`program_fingerprint`), so structurally identical programs built
//! independently share one artifact. The other key components are
//! exactly the compile *inputs* of [`compile_artifact`]; allocator
//! kind, the no-promote ablation, temporal policy, cache geometry, and
//! fuel do not participate in decode/analyze, so they are deliberately
//! **not** part of the key — one artifact serves every such variation,
//! which is what lets a 5-mode sweep compile twice instead of five
//! times. A stale hit is impossible by construction: anything that
//! could change the compiled streams is either hashed (the program) or
//! in the key (the compile flags).
//!
//! **Concurrency.** One mutex guards one map. Compilation happens
//! *outside* the lock; two threads racing on the same cold key may both
//! compile, and the first insert wins — artifacts for the same key are
//! interchangeable, so this is a throughput trade, not a correctness
//! one. Nothing is ever evicted: the repo's largest suites keep a few
//! hundred artifacts resident.
//!
//! **Telemetry.** [`CacheStats`] (hits/misses/residency/compile time)
//! lives entirely outside [`ifp_vm::RunStats`]: golden-pinned modeled
//! output cannot depend on cache behaviour by construction. Hit/miss
//! counts are host telemetry and may vary run-to-run under racing
//! threads; nothing deterministic may be derived from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ifp_compiler::Program;
use ifp_vm::{compile_artifact, CompiledArtifact, RunResult, Vm, VmConfig, VmError, VmHost};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content fingerprint of a program: FNV-1a over its (deterministic)
/// `Debug` rendering, streamed — no intermediate string is built. Two
/// structurally identical programs (same functions, blocks, ops, types,
/// globals) fingerprint identically even when built independently, which
/// is what lets the cache amortize compilation across rebuilt copies.
///
/// Rendering a program costs about as much as a short run does, so only
/// a cache lookup pays it: uncached runs never fingerprint.
#[must_use]
fn program_fingerprint(program: &Program) -> u64 {
    use std::fmt::Write as _;
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{program:?}");
    h.0
}

/// The full cache key. `fingerprint` addresses program content; the
/// rest are the compile inputs of [`compile_artifact`] — nothing else
/// affects the compiled streams, which is why nothing else is here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: u64,
    /// [`ifp_analyze::ANALYSIS_FINGERPRINT`]: cached plans never outlive
    /// the analysis semantics that justified them. Constant within one
    /// build, so it never splits keys at runtime — it exists for caches
    /// that outlive a process (and to make the dependency explicit).
    analysis: u64,
    instrumented: bool,
    elide_checks: bool,
}

impl Key {
    fn of(fingerprint: u64, config: &VmConfig) -> Key {
        let instrumented = config.mode.is_instrumented();
        Key {
            fingerprint,
            analysis: ifp_analyze::ANALYSIS_FINGERPRINT,
            instrumented,
            // Elision is a plan input only when a plan exists; normalize
            // so uninstrumented lookups with the flag set still share.
            elide_checks: instrumented && config.elide_checks,
        }
    }
}

/// Cache telemetry counters. Host-side only — see the crate docs for
/// why none of this may feed a modeled statistic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a fresh artifact.
    pub misses: u64,
    /// Artifacts currently resident.
    pub resident_artifacts: u64,
    /// Total host nanoseconds spent compiling on misses.
    pub compile_ns: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0.0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The thread-shareable artifact cache. Construct once (usually inside
/// an [`Arc`]), hand clones of the handle to every worker that runs
/// repeated programs.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<Key, Arc<CompiledArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compile_ns: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// A shared handle on an empty cache.
    #[must_use]
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// The artifact for `program` under `config`: a shared handle on a
    /// hit, a fresh compile (inserted) on a miss.
    ///
    /// # Errors
    ///
    /// [`VmError::BadProgram`] when a miss fails validation. Invalid
    /// programs are never cached.
    pub fn artifact(
        &self,
        program: &Program,
        config: &VmConfig,
    ) -> Result<Arc<CompiledArtifact>, VmError> {
        let key = Key::of(program_fingerprint(program), config);
        if let Some(a) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(a));
        }

        // Compile outside the lock so a cold miss never blocks sibling
        // workers hitting other keys.
        let artifact = Arc::new(compile_artifact(program, config)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.compile_ns
            .fetch_add(artifact.compile_ns, Ordering::Relaxed);
        // A sibling may have compiled the same key meanwhile: the first
        // insert wins (artifacts are interchangeable by construction).
        Ok(Arc::clone(self.lock().entry(key).or_insert(artifact)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Key, Arc<CompiledArtifact>>> {
        self.map.lock().expect("plan-cache lock poisoned")
    }

    /// [`ifp_vm::run`] through the cache: identical results, amortized
    /// compile.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(&self, program: &Program, config: &VmConfig) -> Result<RunResult, VmError> {
        let artifact = self.artifact(program, config)?;
        Vm::with_artifact(program, config, &artifact, VmHost::with_l1(config.l1)).run()
    }

    /// [`ifp_vm::run_pooled`] through the cache: same signature and
    /// host-return contract (`None` exactly on the `BadProgram` path),
    /// amortized compile.
    pub fn run_pooled(
        &self,
        program: &Program,
        config: &VmConfig,
        host: VmHost,
    ) -> (Result<RunResult, VmError>, Option<VmHost>) {
        match self.artifact(program, config) {
            Ok(artifact) => {
                let (result, host) =
                    Vm::with_artifact(program, config, &artifact, host).run_pooled();
                (result, Some(host))
            }
            Err(e) => (Err(e), None),
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resident_artifacts: self.lock().len() as u64,
            compile_ns: self.compile_ns.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifp_vm::{run, AllocatorKind, Mode};

    fn digest(r: &Result<RunResult, VmError>) -> String {
        match r {
            Ok(r) => format!(
                "ok exit={} out={:?} stats={:?}",
                r.exit_code, r.output, r.stats
            ),
            Err(e) => format!("err {e}"),
        }
    }

    #[test]
    fn one_artifact_serves_every_allocator_and_ablation() {
        let w = ifp_workloads::by_name("treeadd").expect("workload");
        let program = w.build_default();
        let cache = PlanCache::new();
        let modes = [
            Mode::instrumented(AllocatorKind::Wrapped),
            Mode::instrumented(AllocatorKind::Subheap),
            Mode::Instrumented {
                allocator: AllocatorKind::Wrapped,
                no_promote: true,
            },
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
        ];
        let arts: Vec<_> = modes
            .iter()
            .map(|m| {
                cache
                    .artifact(&program, &VmConfig::with_mode(*m))
                    .expect("compiles")
            })
            .collect();
        for a in &arts[1..] {
            assert!(
                Arc::ptr_eq(&arts[0], a),
                "instrumented modes share one artifact"
            );
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 3));

        // Baseline and elided lookups each get their own.
        let b = cache
            .artifact(&program, &VmConfig::default())
            .expect("compiles");
        assert!(!Arc::ptr_eq(&arts[0], &b));
        let mut ecfg = VmConfig::with_mode(modes[0]);
        ecfg.elide_checks = true;
        let e = cache.artifact(&program, &ecfg).expect("compiles");
        assert!(!Arc::ptr_eq(&arts[0], &e));
        assert_eq!(cache.stats().resident_artifacts, 3);
    }

    #[test]
    fn structurally_identical_rebuilt_program_hits() {
        let w = ifp_workloads::by_name("em3d").expect("workload");
        let p1 = w.build_default();
        let p2 = w.build_default();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        let cache = PlanCache::new();
        let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
        let a1 = cache.artifact(&p1, &cfg).expect("compiles");
        let a2 = cache.artifact(&p2, &cfg).expect("compiles");
        assert!(Arc::ptr_eq(&a1, &a2), "content addressing, not identity");
    }

    #[test]
    fn cached_runs_are_byte_identical_to_fresh() {
        let cache = PlanCache::new();
        for wname in ["treeadd", "anagram"] {
            let w = ifp_workloads::by_name(wname).expect("workload");
            let program = w.build_default();
            let cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
            let fresh = digest(&run(&program, &cfg));
            // Twice through the cache: miss path, then hit path.
            assert_eq!(fresh, digest(&cache.run(&program, &cfg)), "{wname} cold");
            assert_eq!(fresh, digest(&cache.run(&program, &cfg)), "{wname} warm");
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (2, 2));
    }

    #[test]
    fn invalid_programs_are_not_cached() {
        let program = Program::default();
        let cache = PlanCache::new();
        let r = cache.artifact(&program, &VmConfig::default());
        assert!(matches!(r, Err(VmError::BadProgram(_))));
        assert_eq!(cache.stats().resident_artifacts, 0);
    }

    #[test]
    fn shared_cache_is_worker_count_invariant_in_results() {
        // The same suite of (workload, mode) runs through one shared
        // cache on 1 and 4 workers: result digests must be identical
        // (telemetry like hit/miss split may differ; results may not).
        let cache = Arc::new(PlanCache::new());
        let inputs: Vec<(usize, Mode)> = (0..8)
            .map(|i| {
                (
                    i % 4,
                    if i % 2 == 0 {
                        Mode::instrumented(AllocatorKind::Subheap)
                    } else {
                        Mode::instrumented(AllocatorKind::Wrapped)
                    },
                )
            })
            .collect();
        let programs: Vec<_> = ifp_workloads::all()
            .iter()
            .take(4)
            .map(|w| w.build_default())
            .collect();
        let run_all = |workers: usize| -> Vec<String> {
            ifp_testutil::par_map(&inputs, workers, |(wi, mode)| {
                digest(&cache.run(&programs[*wi], &VmConfig::with_mode(*mode)))
            })
        };
        assert_eq!(run_all(1), run_all(4));
    }
}
