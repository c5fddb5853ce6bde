//! Deterministic parallel execution engine for the Monte-Carlo
//! fault injector.
//!
//! The estimator is embarrassingly parallel: each trial draws an
//! independent Bernoulli per event and trials never communicate. The
//! engine exploits that by splitting the trial budget into fixed-size
//! *chunks*, giving every chunk its own RNG stream derived from the
//! root seed by a SplitMix64 counter, and merging the per-chunk
//! [`McEstimate`]s by pure integer addition.
//!
//! One executor runs every configuration: a single chunk-claiming loop
//! that runs on the caller's thread for one worker and on scoped
//! work-stealing threads otherwise, over either trial kernel selected
//! by [`McKernel`]:
//!
//! * **`BitParallel`** (the default) — the SWAR kernel of
//!   [`crate::bitparallel`]: 64 trials per `u64` lane-word, one
//!   alias draw of a Poisson attempt count per `(word, fused row)`,
//!   OR-folded failure masks that stop once all 64 trials have
//!   failed, `count_ones()` to merge. ~10x the scalar throughput on
//!   the 1-CPU CI host.
//! * **`Scalar`** — the original per-trial Bernoulli loop over
//!   [`rand::rngs::StdRng`], retained as the cross-validation oracle:
//!   an independent sampling procedure the bit-parallel estimates are
//!   held to within binomial standard error (the `mc-crossval` CI
//!   job).
//!
//! Tracing is a const parameter of that one loop, not a second copy of
//! it: with `TRACED = false` every span, counter, and tally write
//! compiles away, with `TRACED = true` they are compiled in around the
//! same draws. A traced run therefore consumes exactly the random
//! numbers an untraced run does, by construction.
//!
//! # Determinism contract
//!
//! For a given `(trials, seed, chunk_trials, kernel)` the result is
//! **bit-identical for every thread count, including 1**, with or
//! without tracing:
//!
//! * chunk `k` always simulates the same trial range with the RNG
//!   stream seeded by [`chunk seed derivation`](#seed-derivation),
//!   regardless of which worker picks it up;
//! * merging is `u64` addition of success and trial counts —
//!   associative and commutative, so the work-stealing schedule cannot
//!   leak into the result;
//! * the final PST is one `f64` division of the merged integers,
//!   performed once.
//!
//! The chunk size is a property of the *estimator*, not of the
//! machine: it defaults to [`DEFAULT_CHUNK_TRIALS`] everywhere so a
//! laptop, a CI runner, and a 96-core server all produce the same
//! bytes.
//!
//! The bit-parallel kernel's contract is strictly stronger: its draws
//! are keyed by the *global* lane-word index (lane-major seeding), not
//! by the chunk, so its counts are invariant under the chunk size too
//! — any partition of the trial range merges to the same bytes. The
//! scalar kernel keeps its historical per-chunk streams, where the
//! chunk size selects the (deterministic) sample.
//!
//! # Seed derivation
//!
//! Chunk `k` is seeded with element `k` of the SplitMix64 stream
//! anchored at the root seed (the same generator, with the same
//! constants, that [`rand::rngs::StdRng`] uses internally to expand
//! seeds). SplitMix64 is a bijective counter-based generator, so chunk
//! seeds are derived in O(1) without scanning — workers can claim
//! chunks in any order — and distinct chunks never collide. The
//! bit-parallel kernel anchors the same stream at the same root but
//! indexes it by global lane-word instead of chunk: word `w`'s draws
//! all derive from stream element `w` by salted counter offsets.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitparallel::{self, LaneTable, LANES};
use crate::montecarlo::McEstimate;
use crate::profile::{EventClass, FailureProfile};

/// Trials per chunk: the unit of work handed to worker threads.
///
/// Fixed (rather than `trials / threads`) so results are independent
/// of the thread count. 16Ki trials is large enough that chunk
/// dispatch overhead vanishes against the injection loop, and small
/// enough that a million-trial run load-balances across dozens of
/// workers even when early faults make chunk costs uneven.
pub const DEFAULT_CHUNK_TRIALS: u64 = 16_384;

/// The SplitMix64 increment (golden-ratio constant), shared with
/// `StdRng`'s seed expansion and every counter-based draw of the
/// bit-parallel kernel.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective avalanche over `u64`.
/// Shared by the chunk-seed derivation here and every counter-based
/// draw of the bit-parallel kernel.
#[inline]
pub(crate) fn splitmix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Element `index` of the SplitMix64 stream anchored at `root` — the
/// RNG seed of chunk `index` (scalar kernel) or the base of lane-word
/// `index`'s draws (bit-parallel kernel). Counter-based: O(1) for any
/// index.
fn chunk_seed(root: u64, index: u64) -> u64 {
    splitmix(root.wrapping_add(GOLDEN.wrapping_mul(index.wrapping_add(1))))
}

/// Per-worker tallies of a traced run, published once per worker by
/// [`Tally::record`]. Only traced kernel instantiations write it.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Aborted trials per [`EventClass::index`].
    pub aborts: [u64; 5],
    /// Bit-parallel lane-words processed (partial edge words count
    /// once each).
    pub words: u64,
    /// Bit-parallel fused rows that fired (`m ≥ 1`, or any
    /// complement-form row) in the blocks each processed word visited:
    /// a word that saturates skips the rest, so they are not counted.
    pub fires: u64,
}

impl Tally {
    /// Publishes the tally as `sim.abort.<class>` and
    /// `sim.bitparallel.{words,fires}` counters (zero entries omitted,
    /// so a scalar run emits only its aborts). Counter merging is u64
    /// addition, so the drained totals are independent of the
    /// work-stealing schedule.
    fn record(&self) {
        for class in EventClass::ALL {
            quva_obs::counter(class.abort_counter(), self.aborts[class.index()]);
        }
        quva_obs::counter("sim.bitparallel.words", self.words);
        quva_obs::counter("sim.bitparallel.fires", self.fires);
    }
}

/// Runs one chunk of the scalar injection loop: `trials` independent
/// trials against the dense `events` table, its own seeded stream.
/// Traced, the aborting event's class is tallied; a trial aborts at its
/// first firing event either way, so the draws are the same.
fn run_chunk<const TRACED: bool>(
    events: &[f64],
    classes: &[EventClass],
    trials: u64,
    seed: u64,
    tally: &mut Tally,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut successes = 0u64;
    'trial: for _ in 0..trials {
        for (i, &p) in events.iter().enumerate() {
            if rng.random::<f64>() < p {
                if TRACED {
                    tally.aborts[classes[i].index()] += 1;
                }
                continue 'trial;
            }
        }
        successes += 1;
    }
    successes
}

/// The lane mask selecting bits `lo..hi` of a word (`hi ≤ 64`,
/// `lo < hi`).
#[inline]
fn lane_mask(lo: u64, hi: u64) -> u64 {
    debug_assert!(lo < hi && hi <= LANES);
    (!0u64 >> (LANES - (hi - lo))) << lo
}

/// Runs the bit-parallel kernel over the *global* trial range
/// `[start, start + len)`. Lane-words overlapping the range are
/// evaluated in full — every draw is keyed by the global word index,
/// so a word split across two chunks is computed identically by both
/// and each counts (and, traced, attributes) only its own lanes. That
/// is what makes the merged result independent of the chunking.
fn run_chunk_bitparallel<const TRACED: bool>(
    table: &LaneTable,
    seed: u64,
    start: u64,
    len: u64,
    tally: &mut Tally,
) -> u64 {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let mut successes = 0u64;
    let mut scratch = bitparallel::Scratch::default();
    for w in start / LANES..end.div_ceil(LANES) {
        let lo = start.max(w * LANES) - w * LANES;
        let hi = end.min((w + 1) * LANES) - w * LANES;
        let lanes = lane_mask(lo, hi);
        let fail =
            bitparallel::word_failures::<TRACED>(table, chunk_seed(seed, w), lanes, tally, &mut scratch);
        successes += u64::from((!fail & lanes).count_ones());
    }
    successes
}

/// A run's trial kernel with its per-run tables built: what one chunk
/// of the executor's loop runs.
enum ChunkKernel<'a> {
    Scalar {
        events: &'a [f64],
        classes: &'a [EventClass],
    },
    BitParallel(LaneTable),
}

impl<'a> ChunkKernel<'a> {
    fn new(kernel: McKernel, profile: &'a FailureProfile) -> Self {
        match kernel {
            McKernel::Scalar => ChunkKernel::Scalar {
                events: profile.active_events(),
                classes: profile.active_event_classes(),
            },
            McKernel::BitParallel => ChunkKernel::BitParallel(LaneTable::new(profile)),
        }
    }

    /// Successes among chunk `k`, which covers the global trial range
    /// `[start, start + len)`.
    fn run<const TRACED: bool>(&self, seed: u64, k: u64, start: u64, len: u64, tally: &mut Tally) -> u64 {
        match self {
            ChunkKernel::Scalar { events, classes } => {
                run_chunk::<TRACED>(events, classes, len, chunk_seed(seed, k), tally)
            }
            ChunkKernel::BitParallel(table) => {
                run_chunk_bitparallel::<TRACED>(table, seed, start, len, tally)
            }
        }
    }
}

/// Chunk-boundary progress accounting threaded through the executor's
/// chunk loop. `done` is a shared cumulative counter, so each completed
/// chunk reports the *total* trials finished so far; with work
/// stealing the callback may be invoked from several worker threads
/// and invocation order is schedule-dependent (fold with `max` for a
/// monotonic display). Progress observes the run — it never alters
/// chunking, seeding, or merging, so results stay bit-identical with
/// and without a sink.
struct ProgressSink<'a> {
    done: AtomicU64,
    total: u64,
    f: &'a (dyn Fn(u64, u64) + Sync),
}

impl ProgressSink<'_> {
    fn chunk_done(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        (self.f)(done.min(self.total), self.total);
    }
}

/// Which trial kernel a [`McEngine`] runs.
///
/// Both kernels sample the same model (independent Bernoulli per
/// active event) and satisfy the same determinism contract; they are
/// *different deterministic samples*, cross-validated against each
/// other statistically rather than bit-compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum McKernel {
    /// Per-trial Bernoulli loop over `StdRng` — the original kernel,
    /// kept as the independent oracle for cross-validation.
    Scalar,
    /// 64-trials-per-word SWAR kernel ([`crate::bitparallel`]) — the
    /// production default.
    #[default]
    BitParallel,
}

impl McKernel {
    /// The stable textual name, as accepted by [`McKernel::from_str`]
    /// and the CLI `--engine` flag.
    pub fn label(self) -> &'static str {
        match self {
            McKernel::Scalar => "scalar",
            McKernel::BitParallel => "bitparallel",
        }
    }
}

impl std::fmt::Display for McKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for McKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(McKernel::Scalar),
            "bitparallel" => Ok(McKernel::BitParallel),
            other => Err(format!(
                "unknown engine kernel '{other}' (expected scalar|bitparallel)"
            )),
        }
    }
}

/// A chunked, deterministic, optionally multi-threaded executor for
/// Monte-Carlo trial runs.
///
/// # Examples
///
/// ```
/// use quva_circuit::{Circuit, PhysQubit};
/// use quva_device::{Calibration, Device, Topology};
/// use quva_sim::{CoherenceModel, FailureProfile, McEngine};
///
/// # fn main() -> Result<(), quva_sim::SimError> {
/// let dev = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
/// let mut c: Circuit<PhysQubit> = Circuit::new(2);
/// c.cnot(PhysQubit(0), PhysQubit(1));
/// let profile = FailureProfile::new(&dev, &c, CoherenceModel::Disabled)?;
///
/// let sequential = McEngine::sequential().run(&profile, 100_000, 7);
/// let parallel = McEngine::new(8).run(&profile, 100_000, 7);
/// assert_eq!(sequential, parallel); // bit-identical, any thread count
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McEngine {
    threads: usize,
    chunk_trials: u64,
    kernel: McKernel,
}

impl Default for McEngine {
    /// The automatic engine: one worker per available hardware thread.
    fn default() -> Self {
        McEngine::auto()
    }
}

impl McEngine {
    /// An engine with exactly `threads` workers (clamped to at least
    /// one). `McEngine::new(1)` runs entirely on the caller's thread —
    /// no threads are spawned — and is the reference the parallel
    /// schedules are bit-compared against.
    pub fn new(threads: usize) -> Self {
        McEngine {
            threads: threads.max(1),
            chunk_trials: DEFAULT_CHUNK_TRIALS,
            kernel: McKernel::default(),
        }
    }

    /// The single-threaded engine (identical results, no spawning).
    pub fn sequential() -> Self {
        McEngine::new(1)
    }

    /// One worker per available hardware thread (falls back to 1 when
    /// the parallelism cannot be queried).
    pub fn auto() -> Self {
        McEngine::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Overrides the trials-per-chunk granularity. Results are
    /// bit-stable across thread counts for any fixed chunk size. The
    /// default bit-parallel kernel is also invariant under the chunk
    /// size (lane-major seeding); for the scalar kernel, changing it
    /// picks a *different* (still deterministic) sample. Exposed for
    /// property tests and tuning; the default suits every production
    /// path.
    pub fn with_chunk_trials(mut self, chunk_trials: u64) -> Self {
        self.chunk_trials = chunk_trials.max(1);
        self
    }

    /// Selects the trial kernel. The default is
    /// [`McKernel::BitParallel`]; cross-validation harnesses pass
    /// [`McKernel::Scalar`] to run the oracle.
    pub fn with_kernel(mut self, kernel: McKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured trials-per-chunk granularity.
    pub fn chunk_trials(&self) -> u64 {
        self.chunk_trials
    }

    /// The configured trial kernel.
    pub fn kernel(&self) -> McKernel {
        self.kernel
    }

    /// Number of trials chunk `index` simulates out of `trials` total.
    fn chunk_len(&self, trials: u64, index: u64) -> u64 {
        (trials - index * self.chunk_trials).min(self.chunk_trials)
    }

    /// Runs `trials` fault-injection trials against `profile` and
    /// merges the per-chunk estimates.
    ///
    /// Deterministic for a given `(trials, seed)`: the result is the
    /// same `McEstimate`, bit for bit, whatever `threads` is — and
    /// whether or not the `quva-obs` recorder is enabled (traced runs
    /// execute the same loop, so they draw the identical RNG stream).
    ///
    /// When the recorder is on, each run contributes `sim.*` counters
    /// (`sim.trials`, `sim.chunks`, `sim.abort.<class>`, …) and
    /// per-chunk/per-worker spans. When it is off, the only cost over
    /// [`Self::run_reference`] is one relaxed atomic load.
    pub fn run(&self, profile: &FailureProfile, trials: u64, seed: u64) -> McEstimate {
        self.run_with(profile, trials, seed, None)
    }

    /// [`Self::run`] with a chunk-boundary progress callback, invoked
    /// as `f(done, total)` after each completed chunk with the
    /// cumulative trial count. The callback observes the run without
    /// altering it: chunking, seeding, and merging are untouched, so
    /// the estimate is bit-identical to [`Self::run`]. With work
    /// stealing the callback fires from worker threads in
    /// schedule-dependent order (`done` values are cumulative totals;
    /// fold with `max` for a monotonic display).
    pub fn run_with_progress(
        &self,
        profile: &FailureProfile,
        trials: u64,
        seed: u64,
        f: &(dyn Fn(u64, u64) + Sync),
    ) -> McEstimate {
        let sink = ProgressSink {
            done: AtomicU64::new(0),
            total: trials,
            f,
        };
        self.run_with(profile, trials, seed, Some(&sink))
    }

    fn run_with(
        &self,
        profile: &FailureProfile,
        trials: u64,
        seed: u64,
        progress: Option<&ProgressSink>,
    ) -> McEstimate {
        if quva_obs::enabled() {
            self.execute::<true>(profile, trials, seed, progress)
        } else {
            self.execute::<false>(profile, trials, seed, progress)
        }
    }

    /// The uninstrumented injection loop for the configured kernel: no
    /// recorder check, no spans, no counters. [`Self::run`] delegates
    /// here whenever tracing is disabled; `bench_sim`'s overhead gate
    /// compares the two to keep the disabled path within 5 % of this
    /// baseline (the bit-parallel kernel runs at ~8 ns/trial, so a
    /// tighter bound would be below timing resolution).
    pub fn run_reference(&self, profile: &FailureProfile, trials: u64, seed: u64) -> McEstimate {
        self.execute::<false>(profile, trials, seed, None)
    }

    /// The executor behind every run. Workers claim chunk indices from
    /// a shared counter — chunk costs are uneven (an early fault aborts
    /// a trial), so work stealing beats static striping — and the
    /// result cannot depend on the schedule: chunk `k`'s draws are a
    /// pure function of `(seed, k)` and the merge is integer addition.
    /// One worker runs the same loop on the caller's thread, spawning
    /// nothing.
    ///
    /// With `TRACED`, the run adds spans and deterministic counters.
    /// Spawned workers record only u64 counters and flush before
    /// exiting, so a drain after this returns sees schedule-independent
    /// totals.
    fn execute<const TRACED: bool>(
        &self,
        profile: &FailureProfile,
        trials: u64,
        seed: u64,
        progress: Option<&ProgressSink>,
    ) -> McEstimate {
        let _run = TRACED.then(|| quva_obs::span("sim", "sim.run"));
        let kernel = ChunkKernel::new(self.kernel, profile);
        let chunks = trials.div_ceil(self.chunk_trials);
        let workers = (self.threads as u64).min(chunks);
        if TRACED {
            quva_obs::counter("sim.runs", 1);
            quva_obs::counter("sim.trials", trials);
            quva_obs::counter("sim.chunks", chunks);
            quva_obs::counter("sim.workers", workers.max(1));
            if self.kernel == McKernel::BitParallel {
                quva_obs::counter("sim.bitparallel.runs", 1);
            }
        }

        let next = AtomicU64::new(0);
        let claim_chunks = || {
            let mut tally = Tally::default();
            let mut successes = 0u64;
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= chunks {
                    break;
                }
                let _chunk = TRACED.then(|| quva_obs::span("sim", "sim.chunk"));
                let len = self.chunk_len(trials, k);
                successes += kernel.run::<TRACED>(seed, k, k * self.chunk_trials, len, &mut tally);
                if let Some(p) = progress {
                    p.chunk_done(len);
                }
            }
            if TRACED {
                tally.record();
            }
            successes
        };

        let successes = if workers <= 1 {
            claim_chunks()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let successes = {
                                let _worker = TRACED.then(|| quva_obs::span("sim", "sim.worker"));
                                claim_chunks()
                            };
                            if TRACED {
                                // TLS destructors may lag a scope join: merge
                                // now so the caller's drain sees this worker
                                quva_obs::flush();
                            }
                            successes
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .sum()
            })
        };
        McEstimate::from_counts(successes, trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CoherenceModel;
    use quva_circuit::{Circuit, PhysQubit};
    use quva_device::{Calibration, Device, Topology};

    fn profile(e2q: f64, gates: usize) -> FailureProfile {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, e2q, 0.0, 0.0));
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        for _ in 0..gates {
            c.cnot(PhysQubit(0), PhysQubit(1));
        }
        FailureProfile::new(&dev, &c, CoherenceModel::Disabled).unwrap()
    }

    #[test]
    fn chunk_seeds_are_counter_derived_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(chunk_seed(42, k)), "collision at chunk {k}");
        }
        // counter-based: deriving a late chunk's seed needs no scan and
        // no derivation order
        let forward: Vec<u64> = (0..100).map(|k| chunk_seed(7, k)).collect();
        let backward: Vec<u64> = (0..100).rev().map(|k| chunk_seed(7, k)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let p = profile(0.08, 7);
        for kernel in [McKernel::Scalar, McKernel::BitParallel] {
            let reference = McEngine::sequential().with_kernel(kernel).run(&p, 100_000, 11);
            for threads in [2usize, 3, 4, 8, 17] {
                let parallel = McEngine::new(threads).with_kernel(kernel).run(&p, 100_000, 11);
                assert_eq!(reference, parallel, "{kernel} at {threads} threads diverged");
            }
        }
    }

    #[test]
    fn bitparallel_is_chunk_size_invariant() {
        // lane-major seeding: the bit-parallel sample is a function of
        // (trials, seed) alone — any chunking merges to the same bytes,
        // including chunk sizes that split words across chunks
        let p = profile(0.08, 7);
        let reference = McEngine::sequential().run(&p, 50_001, 13);
        for chunk_trials in [1u64, 7, 63, 64, 100, 1000, 16_384, 60_000] {
            let est = McEngine::new(4)
                .with_chunk_trials(chunk_trials)
                .run(&p, 50_001, 13);
            assert_eq!(reference, est, "chunk size {chunk_trials} changed the sample");
        }
    }

    #[test]
    fn kernels_agree_statistically_and_are_distinct_samples() {
        let p = profile(0.05, 10);
        let trials = 200_000u64;
        let scalar = McEngine::new(4).with_kernel(McKernel::Scalar).run(&p, trials, 2);
        let bitparallel = McEngine::new(4)
            .with_kernel(McKernel::BitParallel)
            .run(&p, trials, 2);
        let se = (scalar.std_error().powi(2) + bitparallel.std_error().powi(2)).sqrt();
        assert!(
            (scalar.pst - bitparallel.pst).abs() < 4.0 * se.max(1e-4),
            "scalar {} vs bit-parallel {}",
            scalar.pst,
            bitparallel.pst
        );
        // different kernels are different deterministic samples: exact
        // equality would mean the oracle is not independent
        assert_ne!(scalar.successes, bitparallel.successes);
    }

    #[test]
    fn kernel_selection_round_trips() {
        assert_eq!(McEngine::new(2).kernel(), McKernel::BitParallel);
        let oracle = McEngine::new(2).with_kernel(McKernel::Scalar);
        assert_eq!(oracle.kernel(), McKernel::Scalar);
        assert_eq!("scalar".parse::<McKernel>().unwrap(), McKernel::Scalar);
        assert_eq!("bitparallel".parse::<McKernel>().unwrap(), McKernel::BitParallel);
        assert!("simd".parse::<McKernel>().is_err());
        for kernel in [McKernel::Scalar, McKernel::BitParallel] {
            assert_eq!(kernel.label().parse::<McKernel>().unwrap(), kernel);
        }
    }

    #[test]
    fn partial_final_chunk_is_covered() {
        let p = profile(0.0, 1);
        // trials not a multiple of the chunk size: every trial must
        // still run (error-free device ⇒ every trial succeeds)
        let engine = McEngine::new(4).with_chunk_trials(1000);
        let est = engine.run(&p, 2_500, 0);
        assert_eq!(est.successes, 2_500);
        assert_eq!(est.trials, 2_500);
        assert_eq!(est.pst, 1.0);
    }

    #[test]
    fn zero_trials_is_the_empty_estimate() {
        let p = profile(0.1, 3);
        let est = McEngine::new(8).run(&p, 0, 5);
        assert_eq!(est, McEstimate::from_counts(0, 0));
        assert_eq!(est.pst, 0.0);
        assert_eq!(est.std_error(), 0.0);
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let p = profile(0.05, 2);
        let engine = McEngine::new(64).with_chunk_trials(10);
        let small = engine.run(&p, 25, 3);
        assert_eq!(small, McEngine::sequential().with_chunk_trials(10).run(&p, 25, 3));
    }

    #[test]
    fn engine_converges_to_analytic() {
        let p = profile(0.05, 10);
        let analytic = p.success_probability();
        let est = McEngine::new(4).run(&p, 200_000, 1);
        assert!(
            (est.pst - analytic).abs() < 4.0 * est.std_error().max(1e-4),
            "engine {} vs analytic {analytic}",
            est.pst
        );
    }

    #[test]
    fn progress_callback_observes_without_changing_results() {
        let p = profile(0.08, 7);
        for kernel in [McKernel::Scalar, McKernel::BitParallel] {
            for threads in [1usize, 4] {
                let plain = McEngine::new(threads).with_kernel(kernel).run(&p, 100_000, 11);
                let calls = AtomicU64::new(0);
                let peak = AtomicU64::new(0);
                let with_progress = McEngine::new(threads).with_kernel(kernel).run_with_progress(
                    &p,
                    100_000,
                    11,
                    &|done, total| {
                        assert_eq!(total, 100_000);
                        assert!(done <= total, "{done}");
                        calls.fetch_add(1, Ordering::Relaxed);
                        peak.fetch_max(done, Ordering::Relaxed);
                    },
                );
                assert_eq!(
                    plain, with_progress,
                    "{kernel}@{threads}: progress changed the estimate"
                );
                assert_eq!(
                    peak.load(Ordering::Relaxed),
                    100_000,
                    "last chunk must report total"
                );
                assert_eq!(
                    calls.load(Ordering::Relaxed),
                    100_000u64.div_ceil(DEFAULT_CHUNK_TRIALS),
                    "one callback per chunk"
                );
            }
        }
    }

    #[test]
    fn auto_engine_has_at_least_one_thread() {
        assert!(McEngine::auto().threads() >= 1);
        assert_eq!(McEngine::default(), McEngine::auto());
    }
}
