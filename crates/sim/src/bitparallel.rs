//! Bit-parallel (SWAR) Monte-Carlo fault-injection kernel: 64 trials
//! per `u64` lane-word.
//!
//! # Why not 64 threshold compares?
//!
//! The naive SWAR formulation draws one uniform per (event, lane) and
//! threshold-compares — that is the scalar loop again, just transposed,
//! and saves nothing. The kernel instead samples, per `(word, event)`,
//! a *count* in O(1) with a Walker alias table and then touches only
//! that many lanes.
//!
//! The count is not the binomial number of failing lanes but the number
//! of placement *attempts* `m ~ Poisson(λ)` with `λ = −64·ln(1 − p)`,
//! and the attempts land on lanes uniformly **with replacement**. By
//! Poisson thinning, the per-lane hit counts are then independent
//! `Poisson(λ/64)` variables, so each lane is hit at least once with
//! probability `1 − e^(−λ/64) = p`, independently across lanes — the
//! hit mask is distributed exactly as 64 iid Bernoulli(p) draws. The
//! construction is exact, and because attempts need no distinctness
//! there is no acceptance test, no popcount, and no rejection fallback
//! anywhere in the kernel.
//!
//! For `p > 1/2` the same construction runs on the complement: attempts
//! at rate `λ = −64·ln(p)` place the *surviving* lanes and the mask is
//! inverted (`p = 1` degenerates to `m = 0`, all lanes fail, exactly).
//!
//! # Run fusion
//!
//! Poisson rates are additive, so a *run* of consecutive events with
//! the same [`EventClass`] is fused into a single row with
//! `λ = Σ λᵢ`: the fused hit mask is distributed exactly as the OR of
//! the individual event masks (per lane, `1 − Π(1 − pᵢ)`). Because a
//! run is class-homogeneous and fused rows keep program order,
//! first-failure *class* attribution is unchanged. Fusion stops at
//! [`FUSE_CAP`] so the folded tail stays negligible, and complement-
//! form events always stand alone.
//!
//! With the paper-scale event probabilities (p mostly well under 0.15)
//! the expected number of *firing* rows per word is small, so most
//! per-row work is the O(1) alias lookup; lane placement runs only for
//! rows that actually fired.
//!
//! # Saturation exit
//!
//! Most of the paper's workloads run at low PST, so most words have
//! failed all 64 trials long before the circuit ends. The sweep checks
//! after each block of [`BLOCK`] rows whether the failure mask is all
//! ones, and if so stops the word. The exit is exact: a mask only gains
//! bits as rows are ORed in, so the rows left could not change it, and
//! every draw is keyed by `(word, row)`, so skipping rows perturbs no
//! other draw. The check compares all 64 bits rather than the word's
//! counted lanes, so the returned mask is the full-sweep mask for every
//! lane mask. A saturated word therefore costs the blocks it took to
//! saturate, however many rows follow.
//!
//! # Counter-based draws and the determinism contract
//!
//! Every random draw is a pure function of `(word index, row index,
//! role)`: the word base is the SplitMix64 stream element at the
//! *global* word index (the same derivation [`McEngine`] uses for chunk
//! seeds), and the phase/placement draws are SplitMix64 finalizations
//! of salted offsets from that base. There is no sequential RNG state
//! anywhere, which yields two structural guarantees:
//!
//! * traced and untraced runs execute one sweep body (tracing is a
//!   const parameter that compiles the tally writes in or out), so
//!   they consume *identical* draws and stop at the same block —
//!   tracing cannot perturb the sample, and first-failure attribution
//!   is the full sweep's, because a saturated word has no lane left to
//!   attribute;
//! * merged counts are invariant under any partition of the trial range
//!   into chunks and any thread schedule, because a word's failure mask
//!   never depends on which chunk computed it.
//!
//! # Quantization
//!
//! Alias thresholds are quantized to 24 fractional bits, so each
//! per-row attempt-count pmf is realized to within 2⁻²⁴ ≈ 6·10⁻⁸
//! total variation, and attempt counts of 63 and above share one alias
//! slot. The folded tail mass is below 10⁻⁸ for λ ≤ [`FUSE_CAP`] and,
//! for a lone event, below 10⁻¹¹ for p ≤ 0.42 (or ≥ 0.58, where the
//! complement form runs); it peaks at ~3·10⁻³ at p = 0.5, where
//! capping attempts at 63 biases the per-lane failure probability by
//! ~5·10⁻⁵ — orders of magnitude below the binomial standard error of
//! any feasible trial count; the cross-validation gate (±4 SE at 100k
//! trials) could not see a bias below ~10⁻³.
//!
//! [`McEngine`]: crate::engine::McEngine

use crate::engine::{splitmix, Tally, GOLDEN};
use crate::profile::{EventClass, FailureProfile};

/// Trials per lane-word.
pub(crate) const LANES: u64 = 64;

/// Alias-table slots: attempt counts `0..=62`, with `m >= 63` folded
/// into slot 63 (see the module docs on quantization).
const SLOTS: usize = 64;

/// Fractional bits of each alias threshold.
const FRAC_BITS: u32 = 24;
const FRAC_MASK: u32 = (1 << FRAC_BITS) - 1;

/// Bit flagging a complement-form (`p > 1/2`) row in every cell of its
/// alias table, so phase 1 learns it from the cell it already loaded.
const INV_BIT: u32 = 1 << 31;

/// Rows per block: a word checks for saturation after each block, so
/// this is the most work a word does past the row that saturated it.
/// The cost envelope's optimistic Monte-Carlo bound charges a trial at
/// most this many events (`MC_EVENTS_LO_CAP` in `quva-analysis`, which
/// a test there keeps equal to this), so 32 keeps the bound of
/// programs up to 32 events (bv-8 has 30) where it was. In interleaved
/// 10 s mc-sweep rounds on a 2-vCPU VM, 16-row blocks ran 5-11 %
/// faster than 32 and 64-row blocks 10-12 % slower.
pub const BLOCK: usize = 32;

/// Largest fused attempt rate: `P(Poisson(32) ≥ 63) < 3·10⁻⁸`, so
/// folding the tail into slot 63 stays invisible after fusion.
const FUSE_CAP: f64 = 32.0;

/// Stream salt for the overflow placement draws of a row (attempts
/// beyond the five that ride in the phase draw).
const SALT_PLACE: u64 = 0xD1B5_4A32_D192_ED03;

/// The attempt rate and form of one event: `λ = −64·ln(1 − p̃)` with
/// `p̃ = min(p, 1 − p)`, and whether the complement form applies.
fn event_rate(p: f64) -> (f64, bool) {
    let p = p.clamp(0.0, 1.0);
    let inv = p > 0.5;
    let pt = if inv { 1.0 - p } else { p };
    (-64.0 * (1.0 - pt).ln(), inv)
}

/// Per-run tables for the bit-parallel kernel: one packed alias table
/// per fused event run, plus the run classes for abort attribution.
///
/// A cell `row[j]` packs the 24-bit acceptance threshold in the low
/// bits, the alias outcome in bits 24..30, and the complement flag in
/// bit 31, so the alias draw is one load, one mask-compare, and one
/// conditional move.
#[derive(Debug)]
pub(crate) struct LaneTable {
    rows: Box<[[u32; SLOTS]]>,
    classes: Box<[EventClass]>,
    /// Any complement-form row present? Selects the general sweep; the
    /// common all-direct case runs a specialization with the inversion
    /// plumbing compiled out.
    any_inv: bool,
}

impl LaneTable {
    /// Builds the fused alias rows from the profile's dense
    /// active-event table. Cost is O(events · 64) — microseconds,
    /// amortized over a whole run.
    pub(crate) fn new(profile: &FailureProfile) -> Self {
        let mut runs: Vec<(f64, bool, EventClass)> = Vec::new();
        for (&p, &class) in profile.active_events().iter().zip(profile.active_event_classes()) {
            let (lam, inv) = event_rate(p);
            if let Some(last) = runs.last_mut() {
                if !inv && !last.1 && last.2 == class && last.0 + lam <= FUSE_CAP {
                    last.0 += lam;
                    continue;
                }
            }
            runs.push((lam, inv, class));
        }
        let rows: Box<[[u32; SLOTS]]> = runs.iter().map(|&(lam, inv, _)| alias_row(lam, inv)).collect();
        let classes: Box<[EventClass]> = runs.iter().map(|&(_, _, c)| c).collect();
        let any_inv = runs.iter().any(|&(_, inv, _)| inv);
        LaneTable {
            rows,
            classes,
            any_inv,
        }
    }
}

/// The attempt-count pmf: `Poisson(λ)` with `m ≥ 63` folded into
/// index 63.
///
/// The worst case is `λ = 64·ln 2 ≈ 44.4` for a lone `p = 1/2` event,
/// where the recurrence start `e^(−λ) ≈ 5·10⁻²⁰` is still far from
/// underflow, so the simple ratio recurrence is accurate everywhere.
///
/// The recurrence runs to at most 400 terms and stops at the first one
/// that changes no slot: a zero term, or, past the mode, a tail term
/// too small to move slot 63. Past the mode each term is at most the
/// one before, and rounding is monotone, so no later term could change
/// a slot either; the pmf is the 400-term sum's, bit for bit.
fn attempts_pmf(lam: f64) -> [f64; SLOTS] {
    let mut pmf = [0f64; SLOTS];
    let mut v = (-lam).exp();
    pmf[0] = v;
    for m in 1..=400usize {
        v *= lam / m as f64;
        let slot = &mut pmf[m.min(SLOTS - 1)];
        let before = *slot;
        *slot += v;
        if v == 0.0 || (*slot == before && m as f64 >= lam) {
            break;
        }
    }
    pmf
}

/// Builds one packed alias table (Vose's construction) for attempt
/// rate `lam`, with [`INV_BIT`] set on every cell of a complement-form
/// row.
fn alias_row(lam: f64, inv: bool) -> [u32; SLOTS] {
    let pmf = attempts_pmf(lam);
    let total: f64 = pmf.iter().sum();
    let scale = SLOTS as f64 / total.max(f64::MIN_POSITIVE);

    let mut scaled = [0f64; SLOTS];
    let mut small = [0u8; SLOTS];
    let mut large = [0u8; SLOTS];
    let (mut ns, mut nl) = (0usize, 0usize);
    for (k, (&mass, slot)) in pmf.iter().zip(&mut scaled).enumerate() {
        *slot = mass * scale;
        if *slot < 1.0 {
            small[ns] = k as u8;
            ns += 1;
        } else {
            large[nl] = k as u8;
            nl += 1;
        }
    }

    let mut thresh = [FRAC_MASK; SLOTS];
    let mut alias: [u8; SLOTS] = core::array::from_fn(|k| k as u8);
    while ns > 0 && nl > 0 {
        ns -= 1;
        let s = small[ns] as usize;
        let l = large[nl - 1] as usize;
        thresh[s] = ((scaled[s] * f64::from(1u32 << FRAC_BITS)) as u32).min(FRAC_MASK);
        alias[s] = l as u8;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if scaled[l] < 1.0 {
            nl -= 1;
            small[ns] = l as u8;
            ns += 1;
        }
    }
    // Leftovers (either list, from rounding) keep the self-aliasing
    // defaults: threshold saturated and alias[k] == k, so the branch
    // taken at the 2^-24 boundary cannot matter.

    let flag = if inv { INV_BIT } else { 0 };
    let mut row = [0u32; SLOTS];
    for (k, cell) in row.iter_mut().enumerate() {
        *cell = thresh[k] | u32::from(alias[k]) << FRAC_BITS | flag;
    }
    row
}

/// Places `m` lane attempts for row `e`, with replacement — no
/// distinctness test, per the Poissonized construction. Attempt 1 uses
/// the phase draw's low 6 bits and attempts 2..=5 its bits 36..60
/// (disjoint from the bits that decided `m`); attempts beyond five
/// pull 10-digit chunks from salted overflow draws keyed `(row,
/// chunk)`. Returns 0 for `m = 0`.
#[inline]
fn place(r: u64, m: usize, wb: u64, e: u64) -> u64 {
    let mut mask = (1u64 << (r & 63)) & 0u64.wrapping_sub(u64::from(m >= 1));
    let mut rr = r >> 36;
    let extra = m.saturating_sub(1);
    let take = extra.min(4);
    for j in 0..4usize {
        mask |= (1u64 << (rr & 63)) & 0u64.wrapping_sub(u64::from(j < take));
        rr >>= 6;
    }
    let mut left = extra - take;
    let mut c = 0u64;
    while left > 0 {
        // m <= 63 needs at most 6 overflow chunks, so `e << 3 | c`
        // keys every (row, chunk) draw uniquely.
        let mut rr = splitmix(
            wb.wrapping_add(SALT_PLACE)
                .wrapping_add(GOLDEN.wrapping_mul(e << 3 | c)),
        );
        let take = left.min(10);
        for j in 0..10usize {
            mask |= (1u64 << (rr & 63)) & 0u64.wrapping_sub(u64::from(j < take));
            rr >>= 6;
        }
        left -= take;
        c += 1;
    }
    mask
}

/// Reusable compaction buffers for the two-phase sweep. Callers keep
/// one per chunk rather than zeroing them for every word, which a
/// word that saturates in its first block would notice.
#[derive(Debug)]
pub(crate) struct Scratch {
    r: [u64; BLOCK],
    ek: [u32; BLOCK],
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            r: [0; BLOCK],
            ek: [0; BLOCK],
        }
    }
}

/// The two-phase sweep behind [`word_failures`], specialized on
/// whether complement-form rows exist: in the (overwhelmingly common)
/// all-direct case every inversion op folds to a no-op at compile
/// time. The specialization is sample-identical by construction — when
/// no complement rows exist, `inv` is zero in every expression the
/// general path evaluates.
///
/// `TRACED` selects first-failure attribution. Untraced, the
/// ubiquitous direct-form `m == 1` fire is merged into the mask at
/// once; traced, it is buffered like every other fire, because
/// attribution needs the fires in program order. Both orders OR the
/// same masks, so the returned mask is the same, and both stop after
/// the first block that leaves it all ones.
#[inline]
fn sweep<const HAS_INV: bool, const TRACED: bool>(
    table: &LaneTable,
    wb: u64,
    lanes: u64,
    tally: &mut Tally,
    scratch: &mut Scratch,
) -> u64 {
    let min_buffered = if TRACED { 1 } else { 2 };
    let mut fail = 0u64;
    for (blk, rows) in table.rows.chunks(BLOCK).enumerate() {
        let base_e = (blk * BLOCK) as u64;
        let mut idx = 0usize;
        let mut se = wb.wrapping_add(GOLDEN.wrapping_mul(base_e));
        for (er, row) in rows.iter().enumerate() {
            se = se.wrapping_add(GOLDEN);
            let r = splitmix(se);
            let j = ((r >> 6) & 63) as usize;
            let frac = (r >> 12) as u32 & FRAC_MASK;
            let cell = row[j];
            let m = if frac < cell & FRAC_MASK {
                j as u32
            } else {
                (cell >> FRAC_BITS) & 63
            };
            let inv = if HAS_INV { cell >> 31 } else { 0 };
            if !TRACED {
                fail |= (1u64 << (r & 63)) & 0u64.wrapping_sub(u64::from(m == 1 && inv == 0));
            }
            scratch.r[idx & (BLOCK - 1)] = r;
            scratch.ek[idx & (BLOCK - 1)] = inv << 16 | (er as u32) << 8 | m;
            idx += usize::from(m >= min_buffered || inv != 0);
        }
        if TRACED {
            tally.fires += idx as u64;
        }
        for (&r, &ek) in scratch.r.iter().zip(&scratch.ek).take(idx) {
            let er = ((ek >> 8) & 0xFF) as usize;
            let placed = place(r, (ek & 0xFF) as usize, wb, base_e + er as u64);
            let mask = if HAS_INV {
                placed ^ 0u64.wrapping_sub(u64::from(ek >> 16))
            } else {
                placed
            };
            if TRACED {
                let newly = mask & !fail & lanes;
                tally.aborts[table.classes[blk * BLOCK + er].index()] += u64::from(newly.count_ones());
            }
            fail |= mask;
        }
        if fail == !0 {
            break;
        }
    }
    fail
}

/// The failure mask of global word `wb`: bit `l` set iff lane `l`'s
/// trial aborted at some event. Pure in `(table, wb)`.
///
/// Two phases per block: a branchless alias sweep that resolves `m`
/// per row (merging the ubiquitous direct-form `m == 1` case
/// immediately and compacting the rest of the fires into the scratch
/// buffers), then placement of the compacted fires only.
/// Complement-form rows are always buffered — even at `m = 0`, where
/// the inverted empty mask fails the whole word.
///
/// Blocks after the first that leaves the mask all ones are skipped
/// (see the module docs on the saturation exit).
///
/// With `TRACED`, the word is also tallied: one word, the fired rows of
/// the blocks it visited, and first-failure attribution. A lane aborts
/// at the first row (program order) whose mask covers it — rows are
/// class-homogeneous, so this is the same class accounting the scalar
/// kernel performs — restricted to `lanes` so phantom lanes of a
/// partial word are never attributed. Untraced, `lanes` and `tally`
/// are unused.
#[inline]
pub(crate) fn word_failures<const TRACED: bool>(
    table: &LaneTable,
    wb: u64,
    lanes: u64,
    tally: &mut Tally,
    scratch: &mut Scratch,
) -> u64 {
    if TRACED {
        tally.words += 1;
    }
    if table.any_inv {
        sweep::<true, TRACED>(table, wb, lanes, tally, scratch)
    } else {
        sweep::<false, TRACED>(table, wb, lanes, tally, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CoherenceModel;
    use quva_circuit::{Cbit, Circuit, PhysQubit};
    use quva_device::{Calibration, Device, Topology};

    fn ladder_profile() -> FailureProfile {
        let device = Device::new(Topology::linear(5), |t| Calibration::uniform(t, 0.05, 0.01, 0.02));
        let mut c: Circuit<PhysQubit> = Circuit::new(5);
        c.h(PhysQubit(0));
        for q in 0..4 {
            c.cnot(PhysQubit(q), PhysQubit(q + 1));
        }
        for q in 0..5 {
            c.measure(PhysQubit(q), Cbit(q));
        }
        FailureProfile::new(&device, &c, CoherenceModel::IdleWindow).expect("ladder is routed")
    }

    /// The untraced failure mask of word `wb`.
    fn untraced(table: &LaneTable, wb: u64, scratch: &mut Scratch) -> u64 {
        word_failures::<false>(table, wb, !0, &mut Tally::default(), scratch)
    }

    /// The attempt-count pmf with every one of its 400 terms summed.
    fn attempts_pmf_full(lam: f64) -> [f64; SLOTS] {
        let mut pmf = [0f64; SLOTS];
        let mut v = (-lam).exp();
        pmf[0] = v;
        for m in 1..=400usize {
            v *= lam / m as f64;
            pmf[m.min(SLOTS - 1)] += v;
        }
        pmf
    }

    /// The sweep with nothing taken out: every row in program order,
    /// one `place` per fired row, no blocks and no exit. Tallies like
    /// the traced kernel: one word, every fired row, and first-failure
    /// attribution restricted to `lanes`.
    fn naive_word(table: &LaneTable, wb: u64, lanes: u64, tally: &mut Tally) -> u64 {
        tally.words += 1;
        let mut fail = 0u64;
        for (e, row) in table.rows.iter().enumerate() {
            let e = e as u64;
            let r = splitmix(wb.wrapping_add(GOLDEN.wrapping_mul(e + 1)));
            let j = ((r >> 6) & 63) as usize;
            let cell = row[j];
            let m = if (r >> 12) as u32 & FRAC_MASK < cell & FRAC_MASK {
                j
            } else {
                ((cell >> FRAC_BITS) & 63) as usize
            };
            let inv = cell & INV_BIT != 0;
            if m == 0 && !inv {
                continue;
            }
            let placed = place(r, m, wb, e);
            let mask = if inv { !placed } else { placed };
            tally.fires += 1;
            tally.aborts[table.classes[e as usize].index()] += u64::from((mask & !fail & lanes).count_ones());
            fail |= mask;
        }
        fail
    }

    /// A 4-qubit line whose three links carry the CNOT errors `links`
    /// and whose qubits carry the gate error `e1q`, running `layers`
    /// layers of an H on every qubit and a CNOT on the two outer links,
    /// plus a CNOT on the middle link every `middle_every` layers.
    fn line_profile(links: [f64; 3], e1q: f64, layers: usize, middle_every: usize) -> FailureProfile {
        let device = Device::new(Topology::linear(4), |t| {
            let mut cal = Calibration::uniform(t, 0.0, e1q, 0.0);
            for (link, &p) in links.iter().enumerate() {
                cal.set_two_qubit_error(link, p);
            }
            cal
        });
        let mut c: Circuit<PhysQubit> = Circuit::new(4);
        for layer in 0..layers {
            for q in 0..4 {
                c.h(PhysQubit(q));
            }
            c.cnot(PhysQubit(0), PhysQubit(1));
            c.cnot(PhysQubit(2), PhysQubit(3));
            if layer % middle_every == middle_every - 1 {
                c.cnot(PhysQubit(1), PhysQubit(2));
            }
        }
        FailureProfile::new(&device, &c, CoherenceModel::Disabled).expect("line is routed")
    }

    /// Where most words saturate: PST about 1e-17 over 400 rows.
    fn low_pst_profile() -> FailureProfile {
        line_profile([0.05, 0.06, 0.04], 0.01, 200, 1)
    }

    /// Where no word saturates: PST about 0.85 over 160 rows.
    fn high_pst_profile() -> FailureProfile {
        line_profile([0.0005, 0.001, 0.0002], 0.0001, 80, 1)
    }

    /// With a complement-form (`p > 1/2`) row every 25 layers: PST
    /// about 1e-4 over 306 rows, so words saturate partway through.
    fn complement_profile() -> FailureProfile {
        line_profile([0.01, 0.6, 0.005], 0.002, 150, 25)
    }

    /// Lane masks cycled over the oracle words: full, low, high, and
    /// interior partial words.
    const LANE_MASKS: [u64; 4] = [!0, (1 << 13) - 1, !0 << 17, 0x0000_FFFF_FFFF_FFE0];

    #[test]
    fn attempts_pmf_matches_the_400_term_sum_bit_for_bit() {
        let (half, _) = event_rate(0.5);
        let special = [
            0.0, 5e-324, 1e-300, 1e-30, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 31.999, FUSE_CAP, half,
        ];
        let dense = (0..=60_000).map(|k| f64::from(k) * 44.5 / 60_000.0);
        let rates = (0..=1000).map(|k| event_rate(f64::from(k) / 1000.0).0);
        for lam in special.into_iter().chain(dense).chain(rates) {
            let fast = attempts_pmf(lam);
            let full = attempts_pmf_full(lam);
            assert!(
                fast.iter().zip(&full).all(|(a, b)| a.to_bits() == b.to_bits()),
                "λ={lam}: {fast:?} vs {full:?}"
            );
        }
    }

    #[test]
    fn word_failures_matches_the_naive_sweep_on_three_profiles() {
        let mut sc = Scratch::default();
        for (name, profile) in [
            ("low-pst", low_pst_profile()),
            ("high-pst", high_pst_profile()),
            ("complement", complement_profile()),
        ] {
            let table = LaneTable::new(&profile);
            assert!(table.rows.len() > 3 * BLOCK, "{name}: {} rows", table.rows.len());
            let (mut saturated, mut fires, mut naive_fires) = (0u64, 0u64, 0u64);
            for w in 0..4096u64 {
                let wb = splitmix(w.wrapping_mul(GOLDEN) ^ 0x5EED);
                let lanes = LANE_MASKS[(w % 4) as usize];
                let mut naive = Tally::default();
                let expect = naive_word(&table, wb, lanes, &mut naive);
                assert_eq!(untraced(&table, wb, &mut sc), expect, "{name}: word {w} untraced");
                let mut traced = Tally::default();
                let got = word_failures::<true>(&table, wb, lanes, &mut traced, &mut sc);
                assert_eq!(got, expect, "{name}: word {w} traced");
                assert_eq!(traced.aborts, naive.aborts, "{name}: word {w} attribution");
                assert_eq!(traced.words, 1);
                assert!(traced.fires <= naive.fires, "{name}: word {w} fires");
                saturated += u64::from(expect == !0);
                fires += traced.fires;
                naive_fires += naive.fires;
            }
            match name {
                // a count, not a timing: without the exit the traced
                // fired-row count equals the naive sweep's on any host
                "low-pst" => assert!(
                    saturated > 4000 && 2 * fires < naive_fires,
                    "{name}: {saturated} saturated, {fires} vs {naive_fires} fired rows"
                ),
                "high-pst" => assert_eq!((saturated, fires), (0, naive_fires), "{name}"),
                _ => assert!(table.any_inv && saturated > 0, "{name}: {saturated} saturated"),
            }
        }
    }

    #[test]
    fn attempts_pmf_sums_to_one_and_has_the_poisson_mean() {
        for p in [0.0, 1e-9, 0.003, 0.05, 0.13, 0.4, 0.5, 0.97, 0.999_999, 1.0] {
            let (lam, _) = event_rate(p);
            let pmf = attempts_pmf(lam);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "p={p}: total {total}");
            let mean: f64 = pmf.iter().enumerate().map(|(m, mass)| m as f64 * mass).sum();
            // folding m >= 63 into 63 shifts the mean by the folded
            // tail's excess, bounded by 400 * P(m >= 63)
            let fold: f64 = pmf[SLOTS - 1];
            assert!(
                (mean - lam).abs() < 1e-9 + 400.0 * fold,
                "p={p}: mean {mean} vs λ {lam}"
            );
        }
    }

    /// Realized attempt-count pmf of a quantized alias row: the mass
    /// each outcome receives from the threshold and alias sides.
    fn realized_pmf(row: &[u32; SLOTS]) -> [f64; SLOTS] {
        let mut realized = [0f64; SLOTS];
        let slot_mass = 1.0 / SLOTS as f64;
        for (j, &cell) in row.iter().enumerate() {
            let t = f64::from(cell & FRAC_MASK) / f64::from(1u32 << FRAC_BITS);
            realized[j] += slot_mass * t;
            realized[((cell >> FRAC_BITS) & 63) as usize] += slot_mass * (1.0 - t);
        }
        realized
    }

    /// The per-lane hit probability a quantized row realizes: a lane
    /// of an m-attempt word is hit with probability 1 - (63/64)^m.
    fn realized_hit(row: &[u32; SLOTS]) -> f64 {
        realized_pmf(row)
            .iter()
            .enumerate()
            .map(|(m, mass)| mass * (1.0 - (63.0f64 / 64.0).powi(m as i32)))
            .sum()
    }

    #[test]
    fn alias_rows_realize_the_attempt_pmf_within_quantization() {
        for p in [0.0025, 0.05, 0.1299, 0.4] {
            let (lam, inv) = event_rate(p);
            let pmf = attempts_pmf(lam);
            let realized = realized_pmf(&alias_row(lam, inv));
            for m in 0..SLOTS {
                assert!(
                    (realized[m] - pmf[m]).abs() < 1e-6,
                    "p={p} m={m}: realized {} vs pmf {}",
                    realized[m],
                    pmf[m]
                );
            }
        }
    }

    #[test]
    fn quantized_rows_realize_the_lane_probability() {
        for p in [0.0, 1e-7, 0.0025, 0.05, 0.1299, 0.42, 0.58, 0.97, 0.999_999, 1.0] {
            let (lam, inv) = event_rate(p);
            let hit = realized_hit(&alias_row(lam, inv));
            let fail = if inv { 1.0 - hit } else { hit };
            assert!((fail - p).abs() < 1e-5, "p={p}: realized lane failure {fail}");
        }
        // the p = 0.5 fold bias peaks at ~5e-5 (see module docs)
        let (lam, inv) = event_rate(0.5);
        let hit = realized_hit(&alias_row(lam, inv));
        assert!(
            !inv && (hit - 0.5).abs() < 3e-4,
            "p=0.5: realized lane failure {hit}"
        );
    }

    #[test]
    fn fusion_realizes_the_product_failure_probability() {
        // runs of same-class events fuse into rows whose per-lane
        // survival product still equals the analytic PST exactly
        let profile = ladder_profile();
        let table = LaneTable::new(&profile);
        assert!(
            table.rows.len() < profile.active_events().len(),
            "ladder must fuse at least one run"
        );
        let survival: f64 = table.rows.iter().map(|row| 1.0 - realized_hit(row)).product();
        let analytic = profile.success_probability();
        assert!(
            (survival - analytic).abs() < 1e-4,
            "fused tables realize {survival}, analytic {analytic}"
        );
    }

    #[test]
    fn fusion_respects_the_rate_cap() {
        // each p = 0.33 event is λ ≈ 25.6, so fusing any two would
        // cross FUSE_CAP: all four must stand alone
        let device = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.33, 0.0, 0.0));
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        for _ in 0..4 {
            c.cnot(PhysQubit(0), PhysQubit(1));
        }
        let profile = FailureProfile::new(&device, &c, CoherenceModel::Disabled).expect("routed");
        let table = LaneTable::new(&profile);
        assert_eq!(table.rows.len(), 4, "λ-capped run must not fuse");
    }

    #[test]
    fn word_failures_is_deterministic_and_word_independent() {
        let table = LaneTable::new(&ladder_profile());
        let mut sc = Scratch::default();
        let a: Vec<u64> = (0..100)
            .map(|w| untraced(&table, crate::engine::splitmix(w), &mut sc))
            .collect();
        let b: Vec<u64> = (0..100)
            .rev()
            .map(|w| untraced(&table, crate::engine::splitmix(w), &mut sc))
            .collect();
        assert!(a.iter().eq(b.iter().rev()));
    }

    #[test]
    fn traced_mask_is_identical_and_attribution_is_complete() {
        let table = LaneTable::new(&ladder_profile());
        let mut total_aborted = 0u64;
        let mut total_failed = 0u64;
        let mut sc = Scratch::default();
        for w in 0..200u64 {
            let wb = splitmix(w.wrapping_mul(GOLDEN));
            let mut trace = Tally::default();
            let traced = word_failures::<true>(&table, wb, !0u64, &mut trace, &mut sc);
            assert_eq!(traced, untraced(&table, wb, &mut sc), "word {w} diverged");
            total_aborted += trace.aborts.iter().sum::<u64>();
            total_failed += u64::from(traced.count_ones());
        }
        // every failed lane is attributed to exactly one class
        assert_eq!(total_aborted, total_failed);
        assert!(total_failed > 0);
    }

    #[test]
    fn partial_word_attribution_respects_the_lane_mask() {
        let table = LaneTable::new(&ladder_profile());
        let lanes = (1u64 << 13) - 1;
        let mut narrow = Tally::default();
        let mut full = Tally::default();
        let mut sc = Scratch::default();
        for w in 0..200u64 {
            let wb = splitmix(w);
            let m_narrow = word_failures::<true>(&table, wb, lanes, &mut narrow, &mut sc);
            let m_full = word_failures::<true>(&table, wb, !0u64, &mut full, &mut sc);
            // the mask itself is lane-mask independent (same draws)
            assert_eq!(m_narrow, m_full);
        }
        let narrow_total: u64 = narrow.aborts.iter().sum();
        let full_total: u64 = full.aborts.iter().sum();
        assert!(narrow_total < full_total);
        assert_eq!(narrow.words, full.words);
    }

    #[test]
    fn single_event_word_matches_binomial_mean() {
        // one event at p = 0.1: mean failing lanes per word is 6.4
        let device = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.cnot(PhysQubit(0), PhysQubit(1));
        let profile = FailureProfile::new(&device, &c, CoherenceModel::Disabled).expect("routed");
        let table = LaneTable::new(&profile);
        let words = 40_000u64;
        let mut sc = Scratch::default();
        let failing: u64 = (0..words)
            .map(|w| u64::from(untraced(&table, splitmix(w), &mut sc).count_ones()))
            .sum();
        let mean = failing as f64 / words as f64;
        // SE of the mean of Binomial(64, 0.1) over 40k words ≈ 0.012
        assert!((mean - 6.4).abs() < 0.06, "mean failing lanes {mean}");
    }

    #[test]
    fn complement_form_words_match_the_survivor_mean() {
        // one event at p = 0.9 exercises the inverted placement: mean
        // surviving lanes per word is 6.4
        let device = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.9, 0.0, 0.0));
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.cnot(PhysQubit(0), PhysQubit(1));
        let profile = FailureProfile::new(&device, &c, CoherenceModel::Disabled).expect("routed");
        let table = LaneTable::new(&profile);
        assert!(table.any_inv);
        let words = 40_000u64;
        let mut sc = Scratch::default();
        let surviving: u64 = (0..words)
            .map(|w| u64::from((!untraced(&table, splitmix(w), &mut sc)).count_ones()))
            .sum();
        let mean = surviving as f64 / words as f64;
        assert!((mean - 6.4).abs() < 0.06, "mean surviving lanes {mean}");
        // traced twin agrees on the inverted masks too
        let mut trace = Tally::default();
        for w in 0..200u64 {
            let wb = splitmix(w);
            assert_eq!(
                word_failures::<true>(&table, wb, !0u64, &mut trace, &mut sc),
                untraced(&table, wb, &mut sc)
            );
        }
    }

    #[test]
    fn extreme_probabilities_are_safe() {
        // p = 0 never attempts; p = 1 degenerates to m = 0 on the
        // complement form (all lanes fail, exactly); an all-lethal
        // profile kills every lane within a couple of events
        assert_eq!((alias_row(0.0, false)[0] >> FRAC_BITS) & 63, 0);
        assert_eq!(attempts_pmf(event_rate(1.0).0)[0], 1.0);
        let device = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.999, 0.0, 0.0));
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        for _ in 0..4 {
            c.cnot(PhysQubit(0), PhysQubit(1));
        }
        let profile = FailureProfile::new(&device, &c, CoherenceModel::Disabled).expect("routed");
        let table = LaneTable::new(&profile);
        let mut sc = Scratch::default();
        let survivors: u32 = (0..100)
            .map(|w| (!untraced(&table, splitmix(w), &mut sc)).count_ones())
            .sum();
        assert_eq!(survivors, 0, "hopeless device must fail every lane");
    }
}
