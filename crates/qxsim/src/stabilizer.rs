//! The stabilizer engines: a CHP-style tableau executor for
//! [`CircuitClass::Clifford`](crate::plan::CircuitClass) plans and a
//! bit-packed Pauli-frame sampler for
//! [`CircuitClass::CliffordTerminal`](crate::plan::CircuitClass) plans.
//!
//! Both engines execute the stabilizer lowering
//! ([`crate::plan::StabOp`]) of a compiled plan at `O(n^2)` bit-op cost
//! per shot instead of the state vector's `O(2^n)`, lifting the qubit
//! ceiling from [`crate::plan::MAX_SIM_QUBITS`] to
//! [`crate::plan::MAX_STAB_QUBITS`] for the Clifford fragment.
//!
//! # Determinism contract
//!
//! Histograms are bit-identical to the state-vector interpreter (where it
//! can run) and across any worker/shard split, because every engine
//! consumes the *same* per-shot RNG streams in the *same* pattern:
//!
//! - `measure q` / `prep_z q`: exactly one `gen_bool` draw per shot,
//!   random or not — mirroring [`crate::StateVector::measure`] /
//!   [`crate::StateVector::reset`], which always draw once.
//! - `measure_all`: exactly one `f64` draw per shot. The state-vector
//!   engine feeds it to a cumulative-table search; the stabilizer engines
//!   consume its binary digits most-significant-first, one per *random*
//!   measurement, walking qubits from `n-1` down to `0`. For stabilizer
//!   states every conditional one-probability is 0, 1/2 or 1, so the two
//!   procedures select the same basis state.
//! - Gates and conditionals draw nothing.
//!
//! The Pauli-frame sampler additionally packs 64 shots per machine word:
//! one symbolic reference run ([`qec::tableau::Tableau::measure_layout`])
//! expresses every measurement outcome as an XOR of fresh random bits,
//! and per-word sampling just XORs 64-shot bit columns.

use crate::histogram::ShotHistogram;
use crate::plan::{CliffordGate, StabOp};
use qec::tableau::{LayoutTracker, MeasureRecord, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// How the executor picks a simulation engine for a compiled plan (see
/// [`crate::Simulator::with_engine_select`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSelect {
    /// Route by [`crate::plan::CircuitClass`]: `CliffordTerminal` plans go
    /// to the Pauli-frame sampler, `Clifford` plans to the tableau
    /// executor, `General` plans to the state-vector engine. The default.
    #[default]
    Auto,
    /// Force the state-vector engine. Exact for every class, but capped
    /// at [`crate::plan::MAX_SIM_QUBITS`] qubits.
    StateVector,
    /// Force the CHP tableau executor. Requires a Clifford-class plan.
    Tableau,
    /// Force the Pauli-frame sampler. Requires a `CliffordTerminal` plan.
    PauliFrame,
    /// Run the density-matrix engine: exact channel evolution of a plan
    /// whose only measurements are terminal, on at most
    /// [`crate::MAX_DENSITY_QUBITS`] qubits. Agrees with the trajectory
    /// engines in distribution, not per shot, so `Auto` never picks it.
    Density,
}

impl EngineSelect {
    /// Stable lowercase name for telemetry labels and wire encodings.
    pub fn name(&self) -> &'static str {
        match self {
            EngineSelect::Auto => "auto",
            EngineSelect::StateVector => "state_vector",
            EngineSelect::Tableau => "tableau",
            EngineSelect::PauliFrame => "pauli_frame",
            EngineSelect::Density => "density",
        }
    }
}

/// Applies one Clifford gate to a tableau.
pub(crate) fn apply_clifford(t: &mut Tableau, g: CliffordGate) {
    match g {
        CliffordGate::H(q) => t.h(q),
        CliffordGate::S(q) => t.s(q),
        CliffordGate::Sdag(q) => t.sdag(q),
        CliffordGate::X(q) => t.x_gate(q),
        CliffordGate::Y(q) => t.y_gate(q),
        CliffordGate::Z(q) => t.z_gate(q),
        CliffordGate::X90(q) => t.x90(q),
        CliffordGate::Y90(q) => t.y90(q),
        CliffordGate::Mx90(q) => t.mx90(q),
        CliffordGate::My90(q) => t.my90(q),
        CliffordGate::Cnot(c, tq) => t.cnot(c, tq),
        CliffordGate::Cz(a, b) => t.cz(a, b),
        CliffordGate::Swap(a, b) => t.swap(a, b),
    }
}

/// Sets or clears bit `index` of a classical register.
#[inline]
pub(crate) fn set_bit(bits: &mut u64, index: usize, value: bool) {
    if value {
        *bits |= 1 << index;
    } else {
        *bits &= !(1 << index);
    }
}

/// `r * 2^53` for `r` produced by the standard `f64` distribution — exact,
/// because such `r` is a multiple of `2^-53`.
const F64_DIGITS: f64 = 9_007_199_254_740_992.0;

/// Executes one shot of a Clifford plan on a fresh tableau, returning the
/// final classical register. Draws from `rng` in exactly the pattern the
/// state-vector interpreter would (see the module docs).
pub(crate) fn tableau_shot<R: Rng + ?Sized>(ops: &[StabOp], n: usize, rng: &mut R) -> u64 {
    let mut t = Tableau::zero_state(n);
    let mut bits = 0u64;
    for op in ops {
        match *op {
            StabOp::Gate(g) => apply_clifford(&mut t, g),
            StabOp::Cond(bit, g) => {
                if (bits >> bit) & 1 == 1 {
                    apply_clifford(&mut t, g);
                }
            }
            StabOp::PrepZ(q) => {
                let outcome = rng.gen_bool(t.probability_one(q));
                let realised = t.measure_given(q, outcome);
                if realised {
                    t.x_gate(q);
                }
            }
            StabOp::Measure(q) => {
                let outcome = rng.gen_bool(t.probability_one(q));
                let realised = t.measure_given(q, outcome);
                set_bit(&mut bits, q, realised);
            }
            StabOp::MeasureAll => {
                let r: f64 = rng.gen();
                let m = (r * F64_DIGITS) as u64;
                let mut v = 0u32;
                for q in (0..n).rev() {
                    let outcome = if t.is_random(q) {
                        let digit = v < 53 && (m >> (52 - v)) & 1 == 1;
                        v += 1;
                        digit
                    } else {
                        t.deterministic_outcome(q)
                    };
                    t.measure_given(q, outcome);
                    set_bit(&mut bits, q, outcome);
                }
            }
        }
    }
    bits
}

/// The measurement shape of a `CliffordTerminal` lowering.
enum FrameTargets {
    /// Per-qubit measures in program order, possibly interleaved with
    /// gates (the scheduler hoists each measure next to its qubit's last
    /// gate, so even logically-terminal measures land mid-sequence).
    Run(Vec<usize>),
    /// One final `measure_all` after a pure-gate prefix.
    All,
}

/// The bit-packed Pauli-frame sampler: one symbolic tableau run over the
/// Clifford prefix expresses every terminal measurement outcome as
/// `base XOR (parity of fresh coin flips)`; sampling then packs 64 shots
/// per `u64` and reduces each shot to a handful of word XORs.
pub(crate) struct FrameSampler {
    n: usize,
    targets: FrameTargets,
    records: Vec<MeasureRecord>,
    num_vars: u32,
}

impl FrameSampler {
    /// Builds the sampler from a `CliffordTerminal` lowering, or `None`
    /// when the shape doesn't qualify (conditionals, resets, a mid-run
    /// `measure_all`) or the layout needs more than 64 random variables
    /// (callers fall back to the per-shot tableau executor, which is
    /// bit-identical).
    pub(crate) fn build(ops: &[StabOp], n: usize) -> Option<FrameSampler> {
        let mut t = Tableau::zero_state(n);
        if let Some(StabOp::MeasureAll) = ops.last() {
            for op in &ops[..ops.len() - 1] {
                match *op {
                    StabOp::Gate(g) => apply_clifford(&mut t, g),
                    _ => return None,
                }
            }
            let positions: Vec<usize> = (0..n).rev().collect();
            let records = t.measure_layout(&positions)?;
            let num_vars = records.iter().filter(|r| r.random).count() as u32;
            return Some(FrameSampler {
                n,
                targets: FrameTargets::All,
                records,
                num_vars,
            });
        }
        // Gates and measures may interleave freely: outcomes never feed
        // back (no conditionals, no resets), so one incremental symbolic
        // pass resolves every measure while gates apply in between.
        let mut tracker: LayoutTracker = t.begin_layout();
        let mut qs = Vec::new();
        let mut records = Vec::new();
        for op in ops {
            match *op {
                StabOp::Gate(g) => apply_clifford(&mut t, g),
                StabOp::Measure(q) => {
                    records.push(t.measure_symbolic(q, &mut tracker)?);
                    qs.push(q);
                }
                _ => return None,
            }
        }
        if qs.is_empty() {
            return None;
        }
        let num_vars = tracker.vars();
        Some(FrameSampler {
            n,
            targets: FrameTargets::Run(qs),
            records,
            num_vars,
        })
    }

    /// Samples shots `lo..hi` against the frozen reference layout,
    /// bit-identical to the tableau executor on the same streams. Disjoint
    /// ranges merge to the single-range histogram in any order.
    pub(crate) fn sample_range(&self, seed: u64, stride: u64, lo: u64, hi: u64) -> ShotHistogram {
        let mut hist = ShotHistogram::new();
        let mut shot = lo;
        while shot < hi {
            let w = (hi - shot).min(64) as usize;
            let keys = self.sample_word(seed, stride, shot, w);
            for &k in keys.iter().take(w) {
                hist.record(k);
            }
            shot += w as u64;
        }
        hist
    }

    /// Number of 64-shot words a `shots`-shot run costs, for telemetry.
    pub(crate) fn words(shots: u64) -> u64 {
        shots.div_ceil(64)
    }

    /// Samples one word of `w <= 64` consecutive shots starting at `base`.
    fn sample_word(&self, seed: u64, stride: u64, base: u64, w: usize) -> [u64; 64] {
        // rand_words[v] bit s = value of random variable v in shot base+s.
        let mut rand_words = [0u64; 64];
        match &self.targets {
            FrameTargets::All => {
                // One f64 draw per shot; variable v is its v-th binary
                // digit, most-significant first (false past digit 52).
                for s in 0..w {
                    let mut rng = frame_rng(seed, stride, base + s as u64);
                    let m = rng.next_u64() >> 11;
                    for v in 0..self.num_vars.min(53) {
                        if (m >> (52 - v)) & 1 == 1 {
                            rand_words[v as usize] |= 1 << s;
                        }
                    }
                }
            }
            FrameTargets::Run(_) => {
                // One gen_bool draw per measure per shot — consumed even at
                // deterministic measures, exactly like the interpreter.
                let mut rngs: Vec<StdRng> = (0..w)
                    .map(|s| frame_rng(seed, stride, base + s as u64))
                    .collect();
                let mut v = 0usize;
                for rec in &self.records {
                    if rec.random {
                        for (s, rng) in rngs.iter_mut().enumerate() {
                            // gen_bool(0.5) is true iff the sampled f64 is
                            // below one half, i.e. iff the top bit is clear.
                            if rng.next_u64() >> 63 == 0 {
                                rand_words[v] |= 1 << s;
                            }
                        }
                        v += 1;
                    } else {
                        for rng in rngs.iter_mut() {
                            rng.next_u64();
                        }
                    }
                }
            }
        }
        // Resolve each measurement record to a 64-shot outcome column and
        // commit it to the register bit it writes; later records in a
        // measure run overwrite earlier writes to the same qubit, matching
        // register semantics.
        let mut keys = [0u64; 64];
        for (i, rec) in self.records.iter().enumerate() {
            let mut column = if rec.base { !0u64 } else { 0u64 };
            let mut deps = rec.deps;
            while deps != 0 {
                let v = deps.trailing_zeros() as usize;
                deps &= deps - 1;
                column ^= rand_words[v];
            }
            let q = match &self.targets {
                FrameTargets::Run(qs) => qs[i],
                FrameTargets::All => self.n - 1 - i,
            };
            for (s, key) in keys.iter_mut().enumerate().take(w) {
                set_bit(key, q, (column >> s) & 1 == 1);
            }
        }
        keys
    }
}

/// The RNG stream of shot `shot`: identical to the executor's per-shot
/// streams so the frame sampler, the tableau executor and the state-vector
/// engines all consume the same randomness.
fn frame_rng(seed: u64, stride: u64, shot: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(shot.wrapping_mul(stride)))
}
