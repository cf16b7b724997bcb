//! Dense state-vector representation and gate application kernels.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes. Basis
//! index bit `i` is the state of qubit `i` (qubit 0 is the least significant
//! bit). This is the engine behind the QX simulator of the paper: it scales
//! to however many qubits fit in host memory (the paper quotes ~35 fully
//! entangled qubits on a laptop for the C++ engine; the memory wall is
//! identical here since the representation is the same).
//!
//! Every kernel class has one slice-based body that applies it to a
//! contiguous run of amplitudes: the whole state, or one chunk of it.
//! Permutation, diagonal, dense 1q and 1q-layer kernels walk the slice
//! block by block with no index arithmetic; the orbit kernels
//! (multi-controlled, fused blocks) enumerate each gate's *orbits* directly —
//! a `k`-qubit gate partitions the `2^n` basis states into `2^(n-k)`
//! independent orbits of `2^k` amplitudes, expanded from an orbit index
//! with bit insertion ([`insert_bit`]). Structured gates dispatch to their
//! bodies via [`cqasm::KernelClass`]. [`StateVector::evolve`] applies a
//! kernel list by *segments*, one fork-join per run of chunk-local
//! kernels. The original scan-and-skip kernels are preserved in
//! [`reference`] as ground truth for property tests and as the benchmark
//! baseline.

use cqasm::math::{Mat2, Mat4, C64, EPSILON};
use cqasm::{BlockUnitary, FusedDiagonal, KernelClass};
use rand::Rng;

/// Analytic default for the minimum register size (in qubits) at which
/// the simulator evolves plans by segments across threads (see
/// [`StateVector::evolve`]). Below this the fork-join costs more than the
/// arithmetic saved; at `2^18` amplitudes (4 MiB of state) the split
/// starts to pay on multi-core hosts. The effective threshold is
/// [`par_min_qubits`], tunable via `QCA_PAR_MIN_QUBITS`.
pub const PAR_MIN_QUBITS: usize = 18;

/// Parses a `QCA_PAR_MIN_QUBITS` value. Accepts `0..=63`; anything else
/// (empty, non-numeric, out of range) falls back to the analytic default
/// [`PAR_MIN_QUBITS`]. Pure, so the env-var plumbing is testable without
/// mutating the process environment.
pub fn parse_par_min_qubits(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n < 64)
        .unwrap_or(PAR_MIN_QUBITS)
}

/// The effective threads-on threshold: `QCA_PAR_MIN_QUBITS` from the
/// environment if set to a valid qubit count, else the analytic default
/// [`PAR_MIN_QUBITS`]. Read once per process (see DESIGN.md "Observability"
/// for the empirical tuning procedure built on the telemetry counters).
pub fn par_min_qubits() -> usize {
    use std::sync::OnceLock;
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD
        .get_or_init(|| parse_par_min_qubits(std::env::var("QCA_PAR_MIN_QUBITS").ok().as_deref()))
}

/// The host's available parallelism, probed once. `1` disables threading
/// entirely.
fn auto_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The thread count the simulator evolves an `n`-qubit plan with: the
/// host's parallelism from [`par_min_qubits`] qubits up, else one.
pub(crate) fn evolve_threads(n: usize) -> usize {
    if n >= par_min_qubits() {
        auto_threads()
    } else {
        1
    }
}

/// The number of chunks [`StateVector::evolve`] splits an `n`-qubit state
/// into for `threads` threads: the largest power of two no larger than
/// `threads` or the state.
pub(crate) fn chunk_count(threads: usize, n: usize) -> usize {
    1 << chunk_bits(threads, n)
}

fn chunk_bits(threads: usize, n: usize) -> usize {
    (threads.max(1).ilog2() as usize).min(n)
}

/// Expands a compressed index by inserting a `0` bit at `pos`: bits below
/// `pos` stay, bits at and above shift up by one. Maps orbit index to the
/// orbit's base state.
#[inline(always)]
fn insert_bit(k: usize, pos: usize) -> usize {
    ((k >> pos) << (pos + 1)) | (k & ((1usize << pos) - 1))
}

/// One kernel application: a classified kernel and its operand qubits.
/// [`StateVector::evolve`] steps through a list of these.
pub type KernelRef<'k> = (&'k KernelClass, &'k [usize]);

/// The work of one [`StateVector::evolve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvolveCounts {
    /// Fork-joins: runs of chunk-local kernels in which every thread
    /// drove its own chunk through the whole run.
    pub segments: u64,
    /// Whole-state passes: one per segment plus one per kernel applied
    /// to the whole state outside a segment.
    pub passes: u64,
}

impl std::ops::AddAssign for EvolveCounts {
    fn add_assign(&mut self, rhs: EvolveCounts) {
        self.segments += rhs.segments;
        self.passes += rhs.passes;
    }
}

/// A pure quantum state of `n` qubits as a dense amplitude vector.
///
/// # Example
///
/// ```
/// use qxsim::StateVector;
/// use cqasm::GateKind;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&GateKind::H, &[0]);
/// psi.apply_gate(&GateKind::Cnot, &[0, 1]);
/// // Bell state: |00> and |11> each with probability 1/2.
/// assert!((psi.probability_of(0b00) - 0.5).abs() < 1e-12);
/// assert!((psi.probability_of(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is so large that `2^n` amplitudes cannot be allocated
    /// as a `Vec` (practically, `n > ~30` on common machines will abort on
    /// allocation failure).
    pub fn zero_state(n: usize) -> Self {
        assert!(n < 64, "qubit count {n} out of supported range");
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        StateVector { n, amps }
    }

    /// Creates a computational basis state `|basis>`.
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^n`.
    pub fn basis_state(n: usize, basis: u64) -> Self {
        let mut s = StateVector::zero_state(n);
        assert!((basis as usize) < s.amps.len(), "basis index out of range");
        s.amps[0] = C64::ZERO;
        s.amps[basis as usize] = C64::ONE;
        s
    }

    /// Creates a state from explicit amplitudes (normalising them).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the vector is all-zero.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let n = amps.len().trailing_zeros() as usize;
        let mut s = StateVector { n, amps };
        let norm = s.norm();
        assert!(norm > EPSILON, "cannot normalise the zero vector");
        let inv = 1.0 / norm;
        for a in &mut s.amps {
            *a = *a * inv;
        }
        s
    }

    /// Wraps explicit amplitudes *without* normalising. For callers that
    /// have already produced a normalised (or deliberately unnormalised)
    /// vector — e.g. differential oracles replaying the executor's exact
    /// collapse arithmetic — where [`StateVector::from_amplitudes`]'s
    /// renormalisation would perturb the bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_raw(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let n = amps.len().trailing_zeros() as usize;
        StateVector { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Read-only view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Euclidean norm of the amplitude vector (1 for a valid state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Probability of observing the full basis string `basis`.
    #[inline]
    pub fn probability_of(&self, basis: u64) -> f64 {
        self.amps[basis as usize].norm_sqr()
    }

    /// Probability that qubit `q` measures as 1.
    ///
    /// Walks only the `2^(n-1)` amplitudes with bit `q` set, in strided
    /// blocks, instead of filtering all `2^n` indices.
    pub fn probability_one(&self, q: usize) -> f64 {
        let stride = 1usize << q;
        let mut sum = 0.0f64;
        let mut base = stride;
        while base < self.amps.len() {
            for a in &self.amps[base..base + stride] {
                sum += a.norm_sqr();
            }
            base += stride << 1;
        }
        sum
    }

    /// Expectation value of Pauli-Z on qubit `q` (`+1` for |0>, `-1` for |1>).
    pub fn expectation_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.probability_one(q)
    }

    /// Expectation of an arbitrary diagonal observable: sums
    /// `|amp(b)|^2 * f(b)` over all basis states `b`.
    ///
    /// This is how the QAOA layer evaluates cost Hamiltonians exactly
    /// instead of by sampling.
    pub fn expectation_diagonal<F: Fn(u64) -> f64>(&self, f: F) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * f(i as u64))
            .sum()
    }

    /// `|<self|other>|^2`, the state fidelity between two pure states.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "fidelity requires equal qubit counts");
        let mut ip = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += a.conj() * *b;
        }
        ip.norm_sqr()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        debug_assert!(q < self.n);
        one_q(&mut self.amps, m, q);
    }

    /// Applies a two-qubit unitary. The matrix is in the basis
    /// `|q_hi q_lo>` where `q_hi` is the **first** operand (matching
    /// [`cqasm::GateUnitary::Two`]).
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range; in debug builds also if the
    /// operands alias.
    pub fn apply_2q(&mut self, m: &Mat4, q_hi: usize, q_lo: usize) {
        debug_assert!(q_hi != q_lo);
        two_q(&mut self.amps, m, q_hi, q_lo);
    }

    /// Applies a single-qubit unitary to `target` conditioned on every qubit
    /// in `controls` being `|1>`. Used for Toffoli and the multi-controlled
    /// oracles of Grover search.
    ///
    /// Enumerates only the `2^(n - controls - 1)` amplitude pairs where all
    /// control bits are set, by inserting the fixed control/target bits into
    /// a compressed counter.
    ///
    /// # Panics
    ///
    /// Panics if the target is out of range.
    pub fn apply_controlled_1q(&mut self, m: &Mat2, controls: &[usize], target: usize) {
        debug_assert!(!controls.contains(&target) && controls.iter().all(|&c| c < self.n));
        controlled_1q(&mut self.amps, 0, m, controls, target);
    }

    /// Applies a fused diagonal operator over the given support qubits:
    /// each amplitude is scaled by the table entry its support bits select
    /// (one sweep over all `2^n` amplitudes, no matter how many gates were
    /// fused into the table).
    ///
    /// # Panics
    ///
    /// Panics if the support spans more than 16 qubits or the table does
    /// not have `2^qubits.len()` entries.
    pub fn apply_fused_diag(&mut self, diag: &FusedDiagonal, qubits: &[usize]) {
        fused_diag(&mut self.amps, 0, &diag.entries, qubits);
    }

    /// Applies a fused dense block over `k <= 3` support qubits in one
    /// cache-blocked orbit pass: each of the `2^(n-k)` orbits gathers its
    /// `2^k` amplitudes, multiplies by the block matrix, and scatters back.
    /// The block's index convention is LSB-first over `qubits` (bit `j` of
    /// a row/column index = the state of `qubits[j]`).
    ///
    /// # Panics
    ///
    /// Panics if `block.k != qubits.len()`, `block.k > 3`, or an operand
    /// is out of range.
    pub fn apply_block(&mut self, block: &BlockUnitary, qubits: &[usize]) {
        assert_eq!(block.k, qubits.len(), "block operand count mismatch");
        assert!(block.k <= 3, "fused blocks are limited to 3 qubits");
        fused_block(&mut self.amps, block, qubits);
    }

    /// Applies a layer of independent single-qubit unitaries — factor `j`
    /// acts on `qubits[j]`, on pairwise distinct qubits — in one tiled
    /// memory sweep: each group of tiles is rotated by every factor while
    /// it sits in cache. Same arithmetic as applying the gates separately
    /// in ascending qubit order, but one memory sweep instead of one per
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if `mats.len() != qubits.len()`, the layer spans more than
    /// [`MAX_1Q_LAYER_QUBITS`] qubits, or an operand is out of range.
    pub fn apply_1q_layer(&mut self, mats: &[Mat2], qubits: &[usize]) {
        assert_eq!(mats.len(), qubits.len(), "layer factor count mismatch");
        assert!(
            !qubits.is_empty() && qubits.len() <= MAX_1Q_LAYER_QUBITS,
            "fused 1q layers are limited to {MAX_1Q_LAYER_QUBITS} qubits"
        );
        layer(&mut self.amps, mats, qubits);
    }

    /// Applies the diagonal unitary `diag(c0, c1)` to qubit `q` (Z, S, T,
    /// Rz, ...): every amplitude is scaled, none move.
    pub fn apply_diagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        debug_assert!(q < self.n);
        diagonal_1q(&mut self.amps, 0, c0, c1, q);
    }

    /// Applies the anti-diagonal unitary `[[0, c0], [c1, 0]]` to qubit `q`:
    /// each amplitude pair swaps, scaled by `c0` (new `|0>` row) and `c1`
    /// (new `|1>` row). X is `c0 = c1 = 1`; Y is `c0 = -i`, `c1 = i`.
    pub fn apply_antidiagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        debug_assert!(q < self.n);
        for_pairs(&mut self.amps, 1 << q, |a0, a1| (c0 * a1, c1 * a0));
    }

    /// Applies CNOT as a pure index permutation: swaps each amplitude pair
    /// whose control bit is set.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        debug_assert!(control != target && control < self.n && target < self.n);
        cnot(&mut self.amps, 0, control, target);
    }

    /// Applies CZ: negates the amplitudes with both qubit bits set.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        self.apply_controlled_phase(-C64::ONE, a, b);
    }

    /// Applies a controlled phase (CZ, `cr`, `crk`): multiplies the
    /// amplitudes with both qubit bits set by `phase`.
    pub fn apply_controlled_phase(&mut self, phase: C64, a: usize, b: usize) {
        debug_assert!(a != b && a < self.n && b < self.n);
        controlled_phase(&mut self.amps, 0, phase, a, b);
    }

    /// Applies SWAP as a pure index permutation: exchanges the `|01>` and
    /// `|10>` amplitudes of each orbit.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        debug_assert!(a != b && a < self.n && b < self.n);
        swap(&mut self.amps, a, b);
    }

    /// Applies a pre-classified kernel (see [`cqasm::GateKind::kernel`]) to
    /// the given operands on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if an operand of an orbit kernel is out of range, and in
    /// debug builds if any operand is out of range or the operand count
    /// does not match the kernel's arity.
    pub fn apply_kernel(&mut self, kernel: &KernelClass, qubits: &[usize]) {
        debug_assert!(qubits.iter().all(|&q| q < self.n));
        apply_chunk(&mut self.amps, 0, kernel, qubits);
    }

    /// Applies `kernels` in order on up to `threads` threads — the
    /// dispatch point of compiled plans.
    ///
    /// The state splits into `chunks` contiguous chunks, one per thread:
    /// the largest power of two no larger than `threads` or the state. A
    /// kernel is *chunk-local* when it moves no amplitude across the top
    /// `log2(chunks)` qubits: a diagonal at any support, a
    /// controlled kernel whose target lies below them (controls may sit
    /// above), or any other kernel whose operands all lie below them.
    /// Each maximal run of chunk-local kernels is one *segment*: a single
    /// fork-join in which every thread drives its own chunk through the
    /// whole run, reading the bits above the split from the chunk's base
    /// index. Every other kernel runs on the whole state on the calling
    /// thread between segments. With one chunk this is the serial kernel
    /// loop.
    ///
    /// The result equals applying the kernels one by one with
    /// [`StateVector::apply_kernel`], amplitude for amplitude, for any
    /// thread count: a chunk-local kernel computes each amplitude of a
    /// chunk from the same chunk by the same expression, so only the
    /// executing thread changes.
    ///
    /// # Panics
    ///
    /// Panics as [`StateVector::apply_kernel`] does, or if a thread cannot
    /// be spawned.
    pub fn evolve<'k, I>(&mut self, kernels: I, threads: usize) -> EvolveCounts
    where
        I: Iterator<Item = KernelRef<'k>> + Clone + Send,
    {
        let split = chunk_bits(threads, self.n);
        let width = self.n - split;
        let mut counts = EvolveCounts::default();
        let mut rest = kernels;
        while let Some((kernel, qubits)) = rest.clone().next() {
            counts.passes += 1;
            let run = if split == 0 {
                0
            } else {
                rest.clone()
                    .take_while(|&(k, q)| chunk_local(k, q, width))
                    .count()
            };
            if run == 0 {
                apply_chunk(&mut self.amps, 0, kernel, qubits);
                rest.next();
                continue;
            }
            counts.segments += 1;
            let segment = rest.clone().take(run);
            std::thread::scope(|scope| {
                let mut chunks = self.amps.chunks_mut(1 << width).enumerate();
                let own = chunks.next();
                for (c, chunk) in chunks {
                    let segment = segment.clone();
                    scope.spawn(move || {
                        for (k, q) in segment {
                            apply_chunk(chunk, c << width, k, q);
                        }
                    });
                }
                if let Some((_, chunk)) = own {
                    for (k, q) in segment {
                        apply_chunk(chunk, 0, k, q);
                    }
                }
            });
            rest.nth(run - 1);
        }
        counts
    }

    /// Multiplies the amplitude of every basis state selected by `pred` by
    /// `phase`. This is the diagonal-oracle primitive (e.g. Grover's
    /// phase-flip oracle with `phase = -1`).
    pub fn apply_phase_if<F: Fn(u64) -> bool>(&mut self, phase: C64, pred: F) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            if pred(i as u64) {
                *a *= phase;
            }
        }
    }

    /// Applies the diagonal unitary `e^{-i f(b)}` basis state by basis
    /// state. This implements `exp(-i gamma H_C)` for a diagonal cost
    /// Hamiltonian — the QAOA phase-separation layer.
    pub fn apply_diagonal_phase<F: Fn(u64) -> f64>(&mut self, f: F) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a *= C64::cis(-f(i as u64));
        }
    }

    /// Applies a classical permutation unitary: `|b> -> |f(b)>`.
    ///
    /// This is how reversible classical arithmetic (e.g. the modular
    /// multiplication inside Shor's order finding) is executed without
    /// synthesising its full gate network.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a bijection on the basis set.
    pub fn apply_permutation<F: Fn(u64) -> u64>(&mut self, f: F) {
        let len = self.amps.len();
        let mut new = vec![C64::ZERO; len];
        let mut hit = vec![false; len];
        for (b, a) in self.amps.iter().enumerate() {
            let t = f(b as u64) as usize;
            assert!(t < len, "permutation target out of range");
            assert!(!hit[t], "permutation is not a bijection (collision at {t})");
            hit[t] = true;
            new[t] = *a;
        }
        self.amps = new;
    }

    /// Applies a gate from the cQASM library to the given operands.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the gate arity or indices
    /// are out of range.
    pub fn apply_gate(&mut self, kind: &cqasm::GateKind, qubits: &[usize]) {
        assert_eq!(qubits.len(), kind.arity(), "operand count mismatch");
        for &q in qubits {
            assert!(q < self.n, "qubit index {q} out of range");
        }
        self.apply_kernel(&kind.kernel(), qubits);
    }

    /// Projectively measures qubit `q` in the Z basis, collapsing the state.
    /// Returns the outcome bit.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.probability_one(q);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.collapse(q, outcome);
        outcome
    }

    /// Forces qubit `q` into the given classical value, renormalising.
    /// (Projective collapse without randomness; used by `prep_z` and by
    /// deterministic replay in tests.)
    pub fn collapse(&mut self, q: usize, value: bool) {
        let mask = 1usize << q;
        let mut kept = 0.0f64;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & mask) != 0) != value {
                *a = C64::ZERO;
            } else {
                kept += a.norm_sqr();
            }
        }
        if kept > EPSILON {
            let inv = 1.0 / kept.sqrt();
            for a in &mut self.amps {
                *a = *a * inv;
            }
        }
    }

    /// Resets qubit `q` to `|0>`: measures it and applies X if the outcome
    /// was 1. This is the semantics of `prep_z` on a running register.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            let x = match cqasm::GateKind::X.unitary() {
                cqasm::GateUnitary::One(m) => m,
                _ => unreachable!(),
            };
            self.apply_1q(&x, q);
        }
    }

    /// The running sum of basis-state probabilities: entry `i` is
    /// `sum_{j <= i} |amp(j)|^2` (the last entry is ~1). Build this once on
    /// a frozen state and draw any number of samples from it with
    /// [`StateVector::sample_from_cumulative`] in `O(log 2^n)` each — the
    /// noise-free multi-shot fast path of the executor.
    pub fn cumulative_probabilities(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr();
            cum.push(acc);
        }
        cum
    }

    /// Maps a uniform draw `r` in `[0, 1)` to a basis index by binary search
    /// on a cumulative table from
    /// [`StateVector::cumulative_probabilities`]: the first index `i` with
    /// `r < cum[i]`. Equivalent to (and bit-compatible with) a linear scan
    /// accumulating left to right.
    pub fn sample_from_cumulative(cum: &[f64], r: f64) -> u64 {
        cum.partition_point(|&c| c <= r).min(cum.len() - 1) as u64
    }

    /// Samples a full measurement of all qubits *without* collapsing the
    /// state (used for multi-shot histogram estimation on a frozen state).
    pub fn sample_all<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        Self::sample_from_cumulative(&self.cumulative_probabilities(), r)
    }

    /// Measures all qubits, collapsing to a single basis state. Returns the
    /// observed basis index.
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let outcome = self.sample_all(rng);
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i as u64 == outcome {
                C64::ONE
            } else {
                C64::ZERO
            };
        }
        outcome
    }
}

/// The widest fused 1q layer the plan builds. The tiled layer pass
/// ([`layer`]) handles any width and does the same arithmetic as separate
/// passes, so width only trades the passes saved against the tiles a
/// group keeps in cache.
pub const MAX_1Q_LAYER_QUBITS: usize = 4;

/// Amplitudes per tile of the 1q-layer pass, as a power of two (8 KiB of
/// state): with up to two factors above the tile a group of tiles fits in
/// L1, with four in L2. Measured against 8 and 10 at 20 qubits: no better.
const LAYER_TILE_BITS: usize = 9;

/// Whether `kernel` on `qubits` moves no amplitude across qubit `width`
/// or above, so that it can run on each `2^width`-amplitude chunk of the
/// state separately (see [`StateVector::evolve`]).
fn chunk_local(kernel: &KernelClass, qubits: &[usize], width: usize) -> bool {
    match kernel {
        KernelClass::Identity
        | KernelClass::Diagonal1q(..)
        | KernelClass::Cz
        | KernelClass::ControlledPhase(_)
        | KernelClass::FusedDiag(_) => true,
        KernelClass::Cnot => qubits[1] < width,
        KernelClass::ControlledControlled(_) => qubits[2] < width,
        _ => qubits.iter().all(|&q| q < width),
    }
}

/// Applies `kernel` on `qubits` to `amps`: the whole state (`base == 0`)
/// or one chunk of it, whose first amplitude has basis index `base`, a
/// multiple of `amps.len()` (a power of two). The kernel must be
/// chunk-local for the chunk (see [`chunk_local`]); a diagonal operand or
/// control at or above the chunk's width takes its bit from `base`.
fn apply_chunk(amps: &mut [C64], base: usize, kernel: &KernelClass, qubits: &[usize]) {
    match kernel {
        KernelClass::Identity => {}
        KernelClass::Diagonal1q(c0, c1) => diagonal_1q(amps, base, *c0, *c1, qubits[0]),
        KernelClass::AntiDiagonal1q(c0, c1) => {
            let (c0, c1) = (*c0, *c1);
            for_pairs(amps, 1 << qubits[0], |a0, a1| (c0 * a1, c1 * a0));
        }
        KernelClass::General1q(m) | KernelClass::Fused1q(m) => one_q(amps, m, qubits[0]),
        KernelClass::Cnot => cnot(amps, base, qubits[0], qubits[1]),
        KernelClass::Cz => controlled_phase(amps, base, -C64::ONE, qubits[0], qubits[1]),
        KernelClass::ControlledPhase(p) => controlled_phase(amps, base, *p, qubits[0], qubits[1]),
        KernelClass::Swap => swap(amps, qubits[0], qubits[1]),
        KernelClass::General2q(m) => two_q(amps, m, qubits[0], qubits[1]),
        KernelClass::ControlledControlled(m) => {
            controlled_1q(amps, base, m, &qubits[..2], qubits[2])
        }
        KernelClass::FusedDiag(d) => fused_diag(amps, base, &d.entries, qubits),
        KernelClass::FusedBlock(b) => fused_block(amps, b, qubits),
        KernelClass::Fused1qLayer(mats) => layer(amps, mats, qubits),
    }
}

/// Replaces every amplitude pair `(i, i | bit)` with `f` of it, walking
/// the slice in `2 * bit` blocks with no index arithmetic.
#[inline(always)]
fn for_pairs(amps: &mut [C64], bit: usize, f: impl Fn(C64, C64) -> (C64, C64)) {
    match bit {
        1 => {
            for p in amps.chunks_exact_mut(2) {
                if let [a0, a1] = p {
                    (*a0, *a1) = f(*a0, *a1);
                }
            }
        }
        2 => {
            for p in amps.chunks_exact_mut(4) {
                if let [a0, b0, a1, b1] = p {
                    (*a0, *a1) = f(*a0, *a1);
                    (*b0, *b1) = f(*b0, *b1);
                }
            }
        }
        _ => {
            for block in amps.chunks_exact_mut(bit << 1) {
                let (lo, hi) = block.split_at_mut(bit);
                zip_pairs(lo, hi, &f);
            }
        }
    }
}

/// The pair loop of [`for_pairs`] over one block (and of a layer's
/// factor across two tiles), kept out of line: as the parameters of a
/// call, the compiler knows `lo` and `hi` do not overlap and vectorizes
/// scalar pair code (the real rotation) without runtime overlap checks;
/// for pairs 1 or 2 apart [`for_pairs`] walks small fixed blocks instead,
/// where the call would cost more than it saves.
#[inline(never)]
fn zip_pairs(lo: &mut [C64], hi: &mut [C64], f: &impl Fn(C64, C64) -> (C64, C64)) {
    for (a0, a1) in lo.iter_mut().zip(hi) {
        (*a0, *a1) = f(*a0, *a1);
    }
}

/// `m` on qubit `q`.
fn one_q(amps: &mut [C64], m: &Mat2, q: usize) {
    Rotation::of(m).in_place(amps, 1 << q);
}

/// A 2x2 unitary on amplitude pairs, classified once by the arithmetic it
/// needs. Real entries (H, Ry, X) and a real diagonal with an imaginary
/// off-diagonal (Rx) skip the products with their zero parts, which
/// changes at most the sign of a zero amplitude component.
#[derive(Clone, Copy)]
enum Rotation {
    /// `[[r00, r01], [r10, r11]]`, as `[r00, r01, r10, r11]`.
    Real([f64; 4]),
    /// `[[r00, i*x01], [i*x10, r11]]`, as `[r00, x01, x10, r11]`.
    RealImag([f64; 4]),
    Complex(Mat2),
}

impl Rotation {
    fn of(m: &Mat2) -> Self {
        let [[m00, m01], [m10, m11]] = m.0;
        if [m00, m01, m10, m11].iter().all(|c| c.im == 0.0) {
            Rotation::Real([m00.re, m01.re, m10.re, m11.re])
        } else if m00.im == 0.0 && m11.im == 0.0 && m01.re == 0.0 && m10.re == 0.0 {
            Rotation::RealImag([m00.re, m01.im, m10.im, m11.re])
        } else {
            Rotation::Complex(*m)
        }
    }

    /// Rotates every pair `(i, i | bit)` of `amps`.
    fn in_place(self, amps: &mut [C64], bit: usize) {
        match self {
            Rotation::Real(r) => for_pairs(amps, bit, real_pair(r)),
            Rotation::RealImag(r) => for_pairs(amps, bit, real_imag_pair(r)),
            Rotation::Complex(m) => for_pairs(amps, bit, complex_pair(m)),
        }
    }

    /// Rotates every pair `(lo[i], hi[i])`.
    fn across(self, lo: &mut [C64], hi: &mut [C64]) {
        match self {
            Rotation::Real(r) => zip_pairs(lo, hi, &real_pair(r)),
            Rotation::RealImag(r) => zip_pairs(lo, hi, &real_imag_pair(r)),
            Rotation::Complex(m) => zip_pairs(lo, hi, &complex_pair(m)),
        }
    }
}

#[inline(always)]
fn real_pair([r00, r01, r10, r11]: [f64; 4]) -> impl Fn(C64, C64) -> (C64, C64) {
    move |a0, a1| {
        (
            C64::new(r00 * a0.re + r01 * a1.re, r00 * a0.im + r01 * a1.im),
            C64::new(r10 * a0.re + r11 * a1.re, r10 * a0.im + r11 * a1.im),
        )
    }
}

/// `i * x * b = (-x * b.im, x * b.re)`, so each output is
/// `[r, r] * a + [-x, x] * swap(b)` (see [`dot`]).
#[inline(always)]
fn real_imag_pair([r00, x01, x10, r11]: [f64; 4]) -> impl Fn(C64, C64) -> (C64, C64) {
    let (d0, s0) = (C64::new(r00, r00), C64::new(-x01, x01));
    let (d1, s1) = (C64::new(r11, r11), C64::new(-x10, x10));
    move |a0, a1| (dot(d0, a0, s0, a1), dot(d1, a1, s1, a0))
}

#[inline(always)]
fn complex_pair(m: Mat2) -> impl Fn(C64, C64) -> (C64, C64) {
    let [[m00, m01], [m10, m11]] = m.0.map(|row| row.map(factor));
    move |a0, a1| {
        (
            times(m00, a0) + times(m01, a1),
            times(m10, a0) + times(m11, a1),
        )
    }
}

/// `c` as the two operands of [`times`]: `[c.re, c.re]` and `[-c.im, c.im]`.
fn factor(c: C64) -> [C64; 2] {
    [C64::new(c.re, c.re), C64::new(-c.im, c.im)]
}

/// `c * a` for `f = factor(c)`, component for component the same
/// expression as `C64`'s product.
#[inline(always)]
fn times([d, s]: [C64; 2], a: C64) -> C64 {
    dot(d, a, s, a)
}

/// Multiplies each amplitude by its factor (see [`factor`]).
fn scale(amps: &mut [C64], factors: &[[C64; 2]]) {
    for (a, &f) in amps.iter_mut().zip(factors) {
        *a = times(f, *a);
    }
}

/// `d * a + s * swap(b)`, lane by lane (`swap` exchanges the real and
/// imaginary parts), the one product of the Rx-type and complex rotations
/// and the fused diagonal. On x86_64 it is SSE2 (the baseline there), with
/// each amplitude one `[re, im]` register: the compiler's vectorization of
/// the scalar loops splits and re-joins real and imaginary parts instead,
/// two shuffles per amplitude against one swap. In cache those loops
/// measured 0.46–0.70 against 0.67–0.86 ns per amplitude (Rx type),
/// 0.90–1.05 against 1.10–1.46 (complex) and 0.60–0.67 against 0.95–1.15
/// (diagonal). The lanes compute the scalar expression, so results are
/// identical.
#[inline(always)]
fn dot(d: C64, a: C64, s: C64, b: C64) -> C64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline.
    return unsafe { sse2_dot(d, a, s, b) };
    #[cfg(not(target_arch = "x86_64"))]
    return C64::new(d.re * a.re + s.re * b.im, d.im * a.im + s.im * b.re);
}

/// [`dot`] in SSE2.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "sse2")]
fn sse2_dot(d: C64, a: C64, s: C64, b: C64) -> C64 {
    use std::arch::x86_64::{_mm_add_pd, _mm_cvtsd_f64, _mm_mul_pd, _mm_set_pd, _mm_unpackhi_pd};
    let v = |c: C64| _mm_set_pd(c.im, c.re);
    let r = _mm_add_pd(
        _mm_mul_pd(v(d), v(a)),
        _mm_mul_pd(v(s), _mm_set_pd(b.re, b.im)),
    );
    C64::new(_mm_cvtsd_f64(r), _mm_cvtsd_f64(_mm_unpackhi_pd(r, r)))
}

/// Every submask of `mask`, in increasing order from `0`.
fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(0usize), move |&s| {
        let next = s.wrapping_sub(mask) & mask;
        (next != 0).then_some(next)
    })
}

/// `diag(c0, c1)` on qubit `q`; at or above the chunk's width the whole
/// chunk takes the one factor its base selects.
fn diagonal_1q(amps: &mut [C64], base: usize, c0: C64, c1: C64, q: usize) {
    let bit = 1usize << q;
    if bit >= amps.len() {
        let c = if base & bit == 0 { c0 } else { c1 };
        amps.iter_mut().for_each(|a| *a *= c);
        return;
    }
    for block in amps.chunks_exact_mut(bit << 1) {
        let (lo, hi) = block.split_at_mut(bit);
        lo.iter_mut().for_each(|a| *a *= c0);
        hi.iter_mut().for_each(|a| *a *= c1);
    }
}

/// Multiplies the amplitudes with both qubit bits `a` and `b` set by `p`.
/// An operand at or above the chunk's width is fixed by `base`: clear, it
/// leaves the chunk untouched; set, it drops out.
fn controlled_phase(amps: &mut [C64], base: usize, p: C64, a: usize, b: usize) {
    let len = amps.len();
    let (lo, hi) = if a < b {
        (1usize << a, 1usize << b)
    } else {
        (1usize << b, 1usize << a)
    };
    let scale_upper = |amps: &mut [C64], bit: usize| {
        for block in amps.chunks_exact_mut(bit << 1) {
            block[bit..].iter_mut().for_each(|x| *x *= p);
        }
    };
    if hi < len {
        for block in amps.chunks_exact_mut(hi << 1) {
            scale_upper(&mut block[hi..], lo);
        }
    } else if base & hi != 0 {
        if lo < len {
            scale_upper(amps, lo);
        } else if base & lo != 0 {
            amps.iter_mut().for_each(|x| *x *= p);
        }
    }
}

/// Swaps the `bit`-clear and `bit`-set halves of every `2 * bit` block:
/// an X permutation on that qubit.
fn swap_halves(amps: &mut [C64], bit: usize) {
    for block in amps.chunks_exact_mut(bit << 1) {
        let (lo, hi) = block.split_at_mut(bit);
        lo.swap_with_slice(hi);
    }
}

/// CNOT as a permutation: swaps each target pair whose control bit is
/// set. A control at or above the chunk's width is fixed by `base`.
fn cnot(amps: &mut [C64], base: usize, control: usize, target: usize) {
    let (c, t) = (1usize << control, 1usize << target);
    if c >= amps.len() {
        if base & c != 0 {
            swap_halves(amps, t);
        }
    } else if c > t {
        for block in amps.chunks_exact_mut(c << 1) {
            swap_halves(&mut block[c..], t);
        }
    } else {
        for block in amps.chunks_exact_mut(t << 1) {
            let (lo, hi) = block.split_at_mut(t);
            for (x, y) in lo.chunks_exact_mut(c << 1).zip(hi.chunks_exact_mut(c << 1)) {
                x[c..].swap_with_slice(&mut y[c..]);
            }
        }
    }
}

/// SWAP as a permutation: exchanges the `|01>` and `|10>` amplitudes of
/// each orbit.
fn swap(amps: &mut [C64], a: usize, b: usize) {
    let (lo, hi) = if a < b {
        (1usize << a, 1usize << b)
    } else {
        (1usize << b, 1usize << a)
    };
    for block in amps.chunks_exact_mut(hi << 1) {
        let (h0, h1) = block.split_at_mut(hi);
        for (x, y) in h0
            .chunks_exact_mut(lo << 1)
            .zip(h1.chunks_exact_mut(lo << 1))
        {
            x[lo..].swap_with_slice(&mut y[..lo]);
        }
    }
}

/// A general two-qubit unitary ([`Mat4`] puts the first operand in the
/// high bit), enumerating the four-element orbits directly.
fn two_q(amps: &mut [C64], m: &Mat4, q_hi: usize, q_lo: usize) {
    let (bh, bl) = (1usize << q_hi, 1usize << q_lo);
    let (p0, p1) = (q_hi.min(q_lo), q_hi.max(q_lo));
    for k in 0..amps.len() >> 2 {
        let i00 = insert_bit(insert_bit(k, p0), p1);
        let orbit = [i00, i00 | bl, i00 | bh, i00 | bh | bl];
        let a = orbit.map(|i| amps[i]);
        for (row, i) in m.0.iter().zip(orbit) {
            amps[i] = row[0] * a[0] + row[1] * a[1] + row[2] * a[2] + row[3] * a[3];
        }
    }
}

/// Panics unless every operand lies below the width of `amps`: the orbit
/// bodies index without bounds checks, and this once-per-call check is
/// what keeps every orbit index inside the slice.
fn assert_operands_in_range(amps: &[C64], qubits: &[usize]) {
    assert!(
        qubits.iter().all(|&q| q < 64 && (1usize << q) < amps.len()),
        "kernel operands {qubits:?} out of range for {} amplitudes",
        amps.len()
    );
}

/// `m` on `target` where every control is set: the pairs are enumerated
/// by inserting the fixed control and target bits into a compressed
/// counter. A control at or above the chunk's width is fixed by `base`.
fn controlled_1q(amps: &mut [C64], base: usize, m: &Mat2, controls: &[usize], target: usize) {
    assert_operands_in_range(amps, &[target]);
    let tbit = 1usize << target;
    let mut ones = 0usize;
    for &c in controls {
        let bit = 1usize << c;
        if bit < amps.len() {
            ones |= bit;
        } else if base & bit == 0 {
            return;
        }
    }
    debug_assert_eq!(ones & tbit, 0, "control aliases the target");
    let fixed = ones | tbit;
    let [[m00, m01], [m10, m11]] = m.0;
    for k in 0..amps.len() >> fixed.count_ones() {
        let mut i0 = k;
        let mut rest = fixed;
        while rest != 0 {
            i0 = insert_bit(i0, rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
        i0 |= ones;
        let i1 = i0 | tbit;
        // SAFETY: every fixed bit lies below the slice width, so
        // depositing `k < len >> fixed.count_ones()` around them and
        // setting them keeps `i0` and `i1` below `amps.len()`.
        unsafe {
            let a0 = *amps.get_unchecked(i0);
            let a1 = *amps.get_unchecked(i1);
            *amps.get_unchecked_mut(i0) = m00 * a0 + m01 * a1;
            *amps.get_unchecked_mut(i1) = m10 * a0 + m11 * a1;
        }
    }
}

/// Scales each amplitude by its fused-diagonal entry (bit `j` of the
/// table index = the state of `qubits[j]`; a qubit at or above the chunk's
/// width reads its bit from `base`). The slice is walked in runs of `2^l`
/// amplitudes, `l` the largest value up to 10 whose rows hold at most a
/// sixteenth as many entries as the slice: every run whose support bits
/// at or above `l` agree takes the same row of `2^l` entries, so each row
/// is gathered once and then multiplied into its runs as a plain
/// contiguous product. A batch of controlled phases is the identity
/// wherever a control is clear, so a row of exact ones leaves its runs
/// untouched, and a row that is one wherever its lowest support qubit
/// from 2 up is clear multiplies only the other half of each run (below
/// qubit 2 both halves share cache lines, so skipping one saves no
/// memory traffic).
fn fused_diag(amps: &mut [C64], base: usize, entries: &[C64], qubits: &[usize]) {
    const ROW_BITS_MAX: usize = 10;
    // Plans cap the support at MAX_FUSED_DIAG_QUBITS = 12; checking the
    // count first also keeps the shift from wrapping.
    assert!(
        qubits.len() <= 16 && entries.len() == 1usize << qubits.len(),
        "diagonal table size mismatch"
    );
    let width = amps.len().trailing_zeros() as usize;
    let inside = |l: usize| qubits.iter().filter(move |&&q| l <= q && q < width);
    let cap = ROW_BITS_MAX.min(width);
    let l = (0..=cap)
        .rev()
        .find(|&l| l + inside(l).count() + 4 <= width)
        .unwrap_or(cap);
    let pattern = |index: usize| {
        qubits
            .iter()
            .enumerate()
            .fold(0usize, |pat, (j, &q)| pat | (((index >> q) & 1) << j))
    };
    // Sized to the row: zeroing fixed 2^ROW_BITS_MAX buffers on every
    // call cost more than the whole sweep of a small state.
    let low: Vec<usize> = (0..1 << l).map(pattern).collect();
    let mut row = vec![C64::ZERO; 1 << l];
    let mut factors = vec![[C64::ZERO; 2]; 1 << l];
    let lowest = qubits
        .iter()
        .copied()
        .filter(|&q| (2..l).contains(&q))
        .min();
    let keyed = inside(l).fold(0usize, |mask, &q| mask | (1 << (q - l)));
    let free = ((amps.len() >> l) - 1) & !keyed;
    for key in submasks(keyed) {
        let high = pattern(base | (key << l));
        for (e, &pat) in row.iter_mut().zip(low.iter()) {
            *e = entries[high | pat];
        }
        if row.iter().all(|&e| e == C64::ONE) {
            continue;
        }
        // The half block of each run the row can change: the upper half
        // of every `2^(q+1)` block when the row is one on the lower half.
        let half = lowest.filter(|&q| {
            row.chunks_exact(2 << q)
                .all(|b| b[..1 << q].iter().all(|&e| e == C64::ONE))
        });
        for (f, &e) in factors.iter_mut().zip(&row) {
            *f = factor(e);
        }
        for rest in submasks(free) {
            let run = &mut amps[(key | rest) << l..][..1 << l];
            match half {
                Some(q) => {
                    for (b, f) in run
                        .chunks_exact_mut(2 << q)
                        .zip(factors.chunks_exact(2 << q))
                    {
                        scale(&mut b[1 << q..], &f[1 << q..]);
                    }
                }
                None => scale(run, &factors),
            }
        }
    }
}

/// A fused block, monomorphised over its width so the matvec unrolls.
fn fused_block(amps: &mut [C64], block: &BlockUnitary, qubits: &[usize]) {
    match block.k {
        1 => block_orbits::<1, 2>(amps, &block.m, qubits),
        2 => block_orbits::<2, 4>(amps, &block.m, qubits),
        _ => block_orbits::<3, 8>(amps, &block.m, qubits),
    }
}

/// The orbit-local offset table of a `DIM`-amplitude orbit (`DIM = 2^K`):
/// `offsets[l]` is the basis offset of local index `l` from the orbit
/// base (the OR of operand bit `j` for every set bit `j` of `l`), and
/// the sorted operands the orbit index expands around.
fn orbit_tables<const K: usize, const DIM: usize>(
    amps: &[C64],
    qubits: &[usize],
) -> ([usize; K], [usize; DIM]) {
    assert_operands_in_range(amps, qubits);
    let mut sorted = [0usize; K];
    sorted.copy_from_slice(qubits);
    sorted.sort_unstable();
    let mut offsets = [0usize; DIM];
    for (l, off) in offsets.iter_mut().enumerate() {
        for (j, &q) in qubits.iter().enumerate() {
            if (l >> j) & 1 == 1 {
                *off |= 1usize << q;
            }
        }
    }
    (sorted, offsets)
}

/// The dense `DIM x DIM` orbit pass (`DIM = 2^K`, `m` row-major and
/// LSB-first over `qubits`): gather, matvec, scatter.
fn block_orbits<const K: usize, const DIM: usize>(amps: &mut [C64], m: &[C64], qubits: &[usize]) {
    let (sorted, offsets) = orbit_tables::<K, DIM>(amps, qubits);
    let mut mm = [C64::ZERO; 64];
    mm[..DIM * DIM].copy_from_slice(m);
    let mut a = [C64::ZERO; DIM];
    for k in 0..amps.len() >> K {
        let mut base = k;
        for &p in &sorted {
            base = insert_bit(base, p);
        }
        // SAFETY: `base` has zeros at every operand position and the
        // operands lie below the slice width (asserted by
        // `orbit_tables`), so `base | offsets[l] < amps.len()` for every
        // orbit index `k < amps.len() >> K`.
        unsafe {
            for (l, slot) in a.iter_mut().enumerate() {
                *slot = *amps.get_unchecked(base | offsets[l]);
            }
            for r in 0..DIM {
                let mut acc = C64::ZERO;
                for (c, amp) in a.iter().enumerate() {
                    acc += mm[r * DIM + c] * *amp;
                }
                *amps.get_unchecked_mut(base | offsets[r]) = acc;
            }
        }
    }
}

/// A layer of 1q factors on distinct qubits in one memory sweep. The
/// slice is walked in groups of `2^h` tiles of `2^LAYER_TILE_BITS`
/// amplitudes, `h` the number of factors at or above the tile: the tiles
/// of a group differ only in those factors' bits, so the group stays in
/// cache while each factor rotates its pairs, within each tile or across
/// two. The factors apply in ascending qubit order, so the result equals
/// separate [`one_q`] passes in that order for every tile size.
fn layer(amps: &mut [C64], mats: &[Mat2], qubits: &[usize]) {
    assert_operands_in_range(amps, qubits);
    let mut factors: Vec<(usize, Rotation)> = qubits
        .iter()
        .map(|&q| 1usize << q)
        .zip(mats.iter().map(Rotation::of))
        .collect();
    factors.sort_unstable_by_key(|&(bit, _)| bit);
    let tile = amps.len().min(1 << LAYER_TILE_BITS);
    let (low, high) = factors.split_at(factors.partition_point(|&(bit, _)| bit < tile));
    let spread = high.iter().fold(0usize, |mask, &(bit, _)| mask | bit);
    for group in (0..amps.len()).step_by(tile).filter(|g| g & spread == 0) {
        for sub in submasks(spread) {
            let t = &mut amps[group | sub..][..tile];
            for &(bit, r) in low {
                r.in_place(t, bit);
            }
        }
        for &(bit, r) in high {
            for sub in submasks(spread & !bit) {
                let lo = group | sub;
                let (a, b) = amps.split_at_mut(lo | bit);
                r.across(&mut a[lo..][..tile], &mut b[..tile]);
            }
        }
    }
}

/// The original scan-and-skip kernels, kept verbatim as executable ground
/// truth: the property tests check every specialised kernel against these,
/// and the benchmark suite reports speedups relative to them.
pub mod reference {
    use super::StateVector;
    use cqasm::math::{Mat2, Mat4, C64};
    use rand::Rng;

    /// Baseline strided single-qubit kernel.
    pub fn apply_1q(state: &mut StateVector, m: &Mat2, q: usize) {
        let stride = 1usize << q;
        let [[m00, m01], [m10, m11]] = m.0;
        let mut base = 0usize;
        while base < state.amps.len() {
            for off in base..base + stride {
                let i0 = off;
                let i1 = off + stride;
                let a0 = state.amps[i0];
                let a1 = state.amps[i1];
                state.amps[i0] = m00 * a0 + m01 * a1;
                state.amps[i1] = m10 * a0 + m11 * a1;
            }
            base += stride << 1;
        }
    }

    /// Baseline two-qubit kernel: scans all `2^n` indices, skipping the
    /// three quarters that are not an orbit base.
    pub fn apply_2q(state: &mut StateVector, m: &Mat4, q_hi: usize, q_lo: usize) {
        let bh = 1usize << q_hi;
        let bl = 1usize << q_lo;
        for i in 0..state.amps.len() {
            if i & bh != 0 || i & bl != 0 {
                continue;
            }
            let i00 = i;
            let i01 = i | bl;
            let i10 = i | bh;
            let i11 = i | bh | bl;
            let a = [
                state.amps[i00],
                state.amps[i01],
                state.amps[i10],
                state.amps[i11],
            ];
            for (row, idx) in [(0, i00), (1, i01), (2, i10), (3, i11)] {
                let mut acc = C64::ZERO;
                for (col, amp) in a.iter().enumerate() {
                    acc += m.0[row][col] * *amp;
                }
                state.amps[idx] = acc;
            }
        }
    }

    /// Baseline multi-controlled kernel: scans all `2^n` indices, skipping
    /// those whose control bits are not all set.
    pub fn apply_controlled_1q(
        state: &mut StateVector,
        m: &Mat2,
        controls: &[usize],
        target: usize,
    ) {
        let ctrl_mask: usize = controls.iter().map(|c| 1usize << c).sum();
        let tbit = 1usize << target;
        let [[m00, m01], [m10, m11]] = m.0;
        for i in 0..state.amps.len() {
            if i & tbit != 0 {
                continue;
            }
            if i & ctrl_mask != ctrl_mask {
                continue;
            }
            let i0 = i;
            let i1 = i | tbit;
            let a0 = state.amps[i0];
            let a1 = state.amps[i1];
            state.amps[i0] = m00 * a0 + m01 * a1;
            state.amps[i1] = m10 * a0 + m11 * a1;
        }
    }

    /// Baseline gate dispatch straight through the dense unitary, with no
    /// kernel specialisation.
    pub fn apply_gate(state: &mut StateVector, kind: &cqasm::GateKind, qubits: &[usize]) {
        assert_eq!(qubits.len(), kind.arity(), "operand count mismatch");
        match kind.unitary() {
            cqasm::GateUnitary::One(m) => apply_1q(state, &m, qubits[0]),
            cqasm::GateUnitary::Two(m) => apply_2q(state, &m, qubits[0], qubits[1]),
            cqasm::GateUnitary::ControlledControlled(m) => {
                apply_controlled_1q(state, &m, &qubits[..2], qubits[2])
            }
        }
    }

    /// Baseline marginal probability: filters all `2^n` indices.
    pub fn probability_one(state: &StateVector, q: usize) -> f64 {
        let mask = 1usize << q;
        state
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Baseline sampling: linear scan of the running probability sum.
    pub fn sample_all<R: Rng + ?Sized>(state: &StateVector, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in state.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i as u64;
            }
        }
        (state.amps.len() - 1) as u64
    }
}

#[cfg(test)]
mod par_min_qubits_tests {
    use super::*;

    #[test]
    fn valid_overrides_are_honoured() {
        assert_eq!(parse_par_min_qubits(Some("12")), 12);
        assert_eq!(parse_par_min_qubits(Some(" 0 ")), 0);
        assert_eq!(parse_par_min_qubits(Some("63")), 63);
    }

    #[test]
    fn invalid_values_fall_back_to_the_analytic_default() {
        assert_eq!(parse_par_min_qubits(None), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("lots")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("-3")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("64")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("18.5")), PAR_MIN_QUBITS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqasm::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero_state(3);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert_eq!(s.qubit_count(), 3);
    }

    #[test]
    fn basis_state_construction() {
        let s = StateVector::basis_state(3, 0b101);
        assert!((s.probability_of(0b101) - 1.0).abs() < 1e-12);
        assert!((s.probability_one(0) - 1.0).abs() < 1e-12);
        assert!(s.probability_one(1) < 1e-12);
        assert!((s.probability_one(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(&GateKind::H, &[0]);
        assert!((s.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ghz_state() {
        let mut s = StateVector::zero_state(4);
        s.apply_gate(&GateKind::H, &[0]);
        for q in 0..3 {
            s.apply_gate(&GateKind::Cnot, &[q, q + 1]);
        }
        assert!((s.probability_of(0b0000) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(0b1111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_operand_order() {
        // control = q1 (value 1), target = q0.
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&GateKind::Cnot, &[1, 0]);
        assert!((s.probability_of(0b11) - 1.0).abs() < 1e-12);
        // control = q0 (value 0): nothing happens.
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&GateKind::Cnot, &[0, 1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for c1 in 0..2u64 {
            for c2 in 0..2u64 {
                for t in 0..2u64 {
                    let basis = c1 | (c2 << 1) | (t << 2);
                    let mut s = StateVector::basis_state(3, basis);
                    s.apply_gate(&GateKind::Toffoli, &[0, 1, 2]);
                    let expect_t = if c1 == 1 && c2 == 1 { t ^ 1 } else { t };
                    let expect = c1 | (c2 << 1) | (expect_t << 2);
                    assert!(
                        (s.probability_of(expect) - 1.0).abs() < 1e-12,
                        "toffoli failed for basis {basis:03b}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = StateVector::basis_state(2, 0b01);
        s.apply_gate(&GateKind::Swap, &[0, 1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gates_preserve_norm() {
        let mut s = StateVector::zero_state(3);
        let seq: &[(GateKind, &[usize])] = &[
            (GateKind::H, &[0]),
            (GateKind::T, &[0]),
            (GateKind::Cnot, &[0, 1]),
            (GateKind::Rz(0.7), &[1]),
            (GateKind::Ry(1.1), &[2]),
            (GateKind::Toffoli, &[0, 1, 2]),
            (GateKind::Swap, &[0, 2]),
        ];
        for (g, qs) in seq {
            s.apply_gate(g, qs);
            assert!((s.norm() - 1.0).abs() < 1e-10, "norm drifted after {g}");
        }
    }

    #[test]
    fn measure_collapses() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::Cnot, &[0, 1]);
        let mut r = rng();
        let m0 = s.measure(0, &mut r);
        // After measuring one half of a Bell pair, the other is determined.
        let p1 = s.probability_one(1);
        if m0 {
            assert!((p1 - 1.0).abs() < 1e-12);
        } else {
            assert!(p1 < 1e-12);
        }
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measure_all_statistics() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..1000 {
            let mut s = StateVector::zero_state(1);
            s.apply_gate(&GateKind::H, &[0]);
            if s.measure_all(&mut r) == 1 {
                ones += 1;
            }
        }
        assert!((400..600).contains(&ones), "got {ones} ones out of 1000");
    }

    #[test]
    fn reset_always_gives_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let mut s = StateVector::zero_state(1);
            s.apply_gate(&GateKind::H, &[0]);
            s.reset(0, &mut r);
            assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fidelity_of_identical_and_orthogonal() {
        let a = StateVector::basis_state(2, 0);
        let b = StateVector::basis_state(2, 3);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    fn expectation_z_values() {
        let s = StateVector::basis_state(1, 0);
        assert!((s.expectation_z(0) - 1.0).abs() < 1e-12);
        let s = StateVector::basis_state(1, 1);
        assert!((s.expectation_z(0) + 1.0).abs() < 1e-12);
        let mut s = StateVector::zero_state(1);
        s.apply_gate(&GateKind::H, &[0]);
        assert!(s.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn expectation_diagonal_counts_ones() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::H, &[1]);
        let avg_ones = s.expectation_diagonal(|b| b.count_ones() as f64);
        assert!((avg_ones - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_oracle_flips_marked_state() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::H, &[1]);
        s.apply_phase_if(C64::real(-1.0), |b| b == 0b11);
        assert!(s.amplitudes()[3].re < 0.0);
        assert!(s.amplitudes()[0].re > 0.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_1q_matches_cnot() {
        let x = match GateKind::X.unitary() {
            cqasm::GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        for basis in 0..4u64 {
            let mut a = StateVector::basis_state(2, basis);
            let mut b = a.clone();
            a.apply_gate(&GateKind::Cnot, &[0, 1]);
            b.apply_controlled_1q(&x, &[0], 1);
            assert!((a.fidelity(&b) - 1.0).abs() < 1e-12, "basis {basis}");
        }
    }

    #[test]
    fn from_amplitudes_normalises() {
        let s = StateVector::from_amplitudes(vec![C64::real(3.0), C64::real(4.0)]);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert!((s.probability_of(0) - 0.36).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE; 3]);
    }

    /// A dense random state for kernel-equivalence checks.
    fn random_state(n: usize, seed: u64) -> StateVector {
        let mut r = StdRng::seed_from_u64(seed);
        let amps: Vec<C64> = (0..1usize << n)
            .map(|_| C64::new(r.gen::<f64>() - 0.5, r.gen::<f64>() - 0.5))
            .collect();
        StateVector::from_amplitudes(amps)
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, what: &str) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!(
                (*x - *y).norm_sqr() < 1e-20,
                "{what}: amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn orbit_kernels_match_reference_on_random_states() {
        let n = 6;
        let gates: &[(GateKind, &[usize])] = &[
            (GateKind::H, &[3]),
            (GateKind::X, &[0]),
            (GateKind::Y, &[5]),
            (GateKind::Z, &[2]),
            (GateKind::T, &[4]),
            (GateKind::Rz(0.81), &[1]),
            (GateKind::Rx(-1.3), &[2]),
            (GateKind::Cnot, &[4, 1]),
            (GateKind::Cnot, &[1, 4]),
            (GateKind::Cz, &[0, 5]),
            (GateKind::Swap, &[3, 0]),
            (GateKind::Cr(0.4), &[5, 2]),
            (GateKind::CRk(3), &[2, 5]),
            (GateKind::Toffoli, &[5, 0, 3]),
        ];
        for (seed, (g, qs)) in gates.iter().enumerate() {
            let mut fast = random_state(n, seed as u64);
            let mut slow = fast.clone();
            fast.apply_gate(g, qs);
            reference::apply_gate(&mut slow, g, qs);
            assert_states_close(&fast, &slow, &format!("{g} on {qs:?}"));
        }
    }

    /// Evolves `state` through the single kernel `kernel` on `qubits`
    /// with `threads` threads.
    fn evolve_one(state: &mut StateVector, kernel: KernelClass, qubits: &[usize], threads: usize) {
        state.evolve(std::iter::once((&kernel, qubits)), threads);
    }

    #[test]
    fn threaded_kernels_are_bit_identical_to_serial() {
        // Force the thread count on a small register (the simulator would
        // stay serial below PAR_MIN_QUBITS) and require exact equality:
        // the per-amplitude arithmetic is identical. Operands below the
        // split run chunk by chunk, operands at the top run whole.
        let h = match GateKind::H.unitary() {
            cqasm::GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        let cnot = match GateKind::Cnot.unitary() {
            cqasm::GateUnitary::Two(m) => m,
            _ => unreachable!(),
        };
        for threads in [2, 3, 8] {
            for q in [1, 4, 6] {
                let mut a = random_state(7, 99);
                let mut b = a.clone();
                a.apply_1q(&h, q);
                evolve_one(&mut b, KernelClass::General1q(h), &[q], threads);
                assert_eq!(a, b, "1q on {q}, {threads} threads");
            }
            for (hi, lo) in [(6, 2), (2, 0)] {
                let mut a = random_state(7, 100);
                let mut b = a.clone();
                a.apply_2q(&cnot, hi, lo);
                evolve_one(&mut b, KernelClass::General2q(cnot), &[hi, lo], threads);
                assert_eq!(a, b, "2q on ({hi}, {lo}), {threads} threads");
            }
        }
    }

    #[test]
    fn fused_diag_matches_sequential_diagonal_gates() {
        // t q2; rz q0; cz q0,q2; crk q2,q0 fused into one diagonal table
        // must match the sequential gates exactly in structure (entrywise
        // products commute with the sweep order).
        let mut seq = random_state(5, 7);
        let mut fused = seq.clone();
        seq.apply_gate(&GateKind::T, &[2]);
        seq.apply_gate(&GateKind::Rz(0.43), &[0]);
        seq.apply_gate(&GateKind::Cz, &[0, 2]);
        seq.apply_gate(&GateKind::CRk(2), &[2, 0]);

        // Build the table by hand over support [0, 2] (bit 0 = q0).
        let (t0, t1) = match GateKind::T.kernel() {
            KernelClass::Diagonal1q(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        let (r0, r1) = match GateKind::Rz(0.43).kernel() {
            KernelClass::Diagonal1q(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        let crk = match GateKind::CRk(2).kernel() {
            KernelClass::ControlledPhase(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        let mut entries = vec![C64::ONE; 4];
        for (p, e) in entries.iter_mut().enumerate() {
            *e *= if p >> 1 & 1 == 1 { t1 } else { t0 };
            *e *= if p & 1 == 1 { r1 } else { r0 };
            if p == 3 {
                *e *= -C64::ONE * crk;
            }
        }
        fused.apply_fused_diag(&FusedDiagonal { entries }, &[0, 2]);
        assert_states_close(&seq, &fused, "fused diagonal");
    }

    #[test]
    #[should_panic(expected = "diagonal table size mismatch")]
    fn fused_diag_refuses_a_wrapping_operand_count() {
        // 64 operands: `1 << 64` would wrap to a 1-entry table in release.
        let entries = vec![C64::ONE];
        StateVector::zero_state(2).apply_fused_diag(&FusedDiagonal { entries }, &[0; 64]);
    }

    #[test]
    #[should_panic(expected = "diagonal table size mismatch")]
    fn fused_diag_refuses_more_than_sixteen_operands() {
        // A consistent 17-qubit table is refused too: the bound is on the
        // operand count, as documented on `apply_fused_diag`.
        let qubits: Vec<usize> = (0..17).collect();
        let entries = vec![C64::ONE; 1 << 17];
        StateVector::zero_state(17).apply_fused_diag(&FusedDiagonal { entries }, &qubits);
    }

    /// A fused diagonal scales every amplitude by the entry its support
    /// bits select, however the row walk splits the slice: random tables,
    /// and controlled-phase tables (one wherever a control is clear) whose
    /// control lies inside a row (half runs) or above it (skipped runs).
    #[test]
    fn fused_diag_equals_a_per_amplitude_lookup() {
        let n = 12;
        let mut rng = rng();
        let supports: [&[usize]; 6] = [
            &[0, 1, 2],
            &[3, 11],
            &[11, 4, 9],
            &[1, 5, 6, 7, 8, 9, 10, 11],
            &[10],
            &[0, 10, 11],
        ];
        for (s, qubits) in supports.into_iter().enumerate() {
            let k = qubits.len();
            let control = s % k;
            let random: Vec<C64> = (0..1 << k)
                .map(|_| C64::cis(rng.gen_range(0.0..6.0)))
                .collect();
            let controlled: Vec<C64> = (0..1usize << k)
                .map(|p| match (p >> control) & 1 {
                    1 => C64::cis(p as f64),
                    _ => C64::ONE,
                })
                .collect();
            for entries in [random, controlled] {
                let start = random_state(n, s as u64);
                let mut fused = start.clone();
                fused.apply_fused_diag(
                    &FusedDiagonal {
                        entries: entries.clone(),
                    },
                    qubits,
                );
                for (i, (a, b)) in fused
                    .amplitudes()
                    .iter()
                    .zip(start.amplitudes())
                    .enumerate()
                {
                    let pat = qubits
                        .iter()
                        .enumerate()
                        .fold(0, |p, (j, &q)| p | (((i >> q) & 1) << j));
                    assert!(*a == *b * entries[pat], "{qubits:?}, amplitude {i}");
                }
            }
        }
    }

    /// The rotation and diagonal bodies compute every component by the
    /// same expression as `C64`'s product and the scalar pair formulas,
    /// bit for bit, zeros' signs included.
    #[test]
    fn pair_and_scale_bodies_match_scalar_products_bit_for_bit() {
        let mut r = rng();
        let mut c = || {
            let v = [0.0, -0.0, 1.0, r.gen::<f64>() - 0.5];
            C64::new(v[r.gen_range(0..4usize)], v[r.gen_range(0..4usize)])
        };
        let bits = |a: C64| (a.re.to_bits(), a.im.to_bits());
        for _ in 0..2000 {
            let (a0, a1, e) = (c(), c(), c());
            let m = [[c(), c()], [c(), c()]];
            let (b0, b1) = complex_pair(Mat2(m))(a0, a1);
            let [[m00, m01], [m10, m11]] = m;
            assert_eq!(bits(b0), bits(m00 * a0 + m01 * a1));
            assert_eq!(bits(b1), bits(m10 * a0 + m11 * a1));
            let [r00, x01, x10, r11] = [e.re, e.im, m00.re, m00.im];
            let (b0, b1) = real_imag_pair([r00, x01, x10, r11])(a0, a1);
            assert_eq!(
                bits(b0),
                bits(C64::new(
                    r00 * a0.re - x01 * a1.im,
                    r00 * a0.im + x01 * a1.re
                ))
            );
            assert_eq!(
                bits(b1),
                bits(C64::new(
                    r11 * a1.re - x10 * a0.im,
                    r11 * a1.im + x10 * a0.re
                ))
            );
            let mut scaled = [a0];
            scale(&mut scaled, &[factor(e)]);
            assert_eq!(bits(scaled[0]), bits(a0 * e));
        }
    }

    /// A 1q layer equals separate passes of its factors in ascending
    /// qubit order, amplitude for amplitude: factors inside a tile, across
    /// tiles and both, listed in any order, with real, Rx-type and complex
    /// matrices.
    #[test]
    fn layer_equals_separate_passes_in_ascending_order() {
        let n = 13;
        let one = |g: GateKind| match g.kernel() {
            KernelClass::General1q(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        let complex = Mat2([
            [C64::new(0.6, 0.1), C64::new(-0.3, 0.7)],
            [C64::new(0.2, -0.5), C64::new(0.8, 0.3)],
        ]);
        let mats = [
            one(GateKind::H),
            one(GateKind::Rx(0.7)),
            complex,
            one(GateKind::Ry(-0.4)),
        ];
        let layouts = [[12, 0, 9, 3], [1, 2, 10, 11], [3, 2, 1, 0], [9, 12, 10, 11]];
        for (s, qubits) in layouts.into_iter().enumerate() {
            let start = random_state(n, s as u64);
            let mut layered = start.clone();
            layered.apply_1q_layer(&mats, &qubits);
            let mut separate = start;
            let mut order: Vec<usize> = (0..qubits.len()).collect();
            order.sort_by_key(|&j| qubits[j]);
            for j in order {
                separate.apply_1q(&mats[j], qubits[j]);
            }
            assert!(layered.amplitudes() == separate.amplitudes(), "{qubits:?}");
        }
    }

    #[test]
    fn fused_block_applies_lsb_first_convention() {
        // A block that is CNOT with control = local bit 0 = qubits[0].
        let mut m = vec![C64::ZERO; 16];
        // |c t> with c = bit 0: 00->00, 01(c=1)->11, 10->10, 11->01.
        m[0] = C64::ONE; // col 0 -> row 0
        m[3 * 4 + 1] = C64::ONE; // col 1 -> row 3
        m[2 * 4 + 2] = C64::ONE; // col 2 -> row 2
        m[4 + 3] = C64::ONE; // col 3 -> row 1
        let block = BlockUnitary { k: 2, m };
        for basis in 0..8u64 {
            let mut a = StateVector::basis_state(3, basis);
            let mut b = a.clone();
            a.apply_gate(&GateKind::Cnot, &[2, 1]);
            b.apply_block(&block, &[2, 1]);
            assert_states_close(&a, &b, &format!("block cnot, basis {basis}"));
        }
    }

    #[test]
    fn threaded_fused_kernels_are_bit_identical_to_serial() {
        let tof = match GateKind::Toffoli.kernel() {
            KernelClass::ControlledControlled(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        let diag = FusedDiagonal {
            entries: vec![
                C64::ONE,
                C64::I,
                C64::cis(0.3),
                -C64::ONE,
                C64::cis(-1.1),
                C64::ONE,
                C64::I,
                C64::cis(2.0),
            ],
        };
        let block = {
            // Any unitary works for the identity-of-arithmetic check; build
            // one from columns of gate applications on basis states.
            let mut m = vec![C64::ZERO; 64];
            for c in 0..8 {
                let mut col = StateVector::basis_state(3, c as u64);
                col.apply_gate(&GateKind::H, &[0]);
                col.apply_gate(&GateKind::Cnot, &[0, 1]);
                col.apply_gate(&GateKind::T, &[2]);
                for (r, a) in col.amplitudes().iter().enumerate() {
                    m[r * 8 + c] = *a;
                }
            }
            BlockUnitary { k: 3, m }
        };
        for threads in [2, 3, 8] {
            let mut a = random_state(7, 101);
            let mut b = a.clone();
            a.apply_controlled_1q(&tof, &[1, 5], 3);
            evolve_one(
                &mut b,
                KernelClass::ControlledControlled(tof),
                &[1, 5, 3],
                threads,
            );
            assert_eq!(a, b, "controlled 1q, {threads} threads");

            let mut a = random_state(7, 102);
            let mut b = a.clone();
            a.apply_fused_diag(&diag, &[2, 4, 6]);
            evolve_one(
                &mut b,
                KernelClass::FusedDiag(diag.clone()),
                &[2, 4, 6],
                threads,
            );
            assert_eq!(a, b, "fused diag, {threads} threads");

            let mut a = random_state(7, 103);
            let mut b = a.clone();
            a.apply_block(&block, &[5, 0, 3]);
            evolve_one(
                &mut b,
                KernelClass::FusedBlock(block.clone()),
                &[5, 0, 3],
                threads,
            );
            assert_eq!(a, b, "fused block, {threads} threads");
        }
    }

    #[test]
    fn probability_one_matches_reference() {
        let s = random_state(6, 17);
        for q in 0..6 {
            let fast = s.probability_one(q);
            let slow = reference::probability_one(&s, q);
            assert!((fast - slow).abs() < 1e-12, "qubit {q}: {fast} vs {slow}");
        }
    }

    #[test]
    fn binary_search_sampling_matches_linear_scan() {
        let mut s = StateVector::zero_state(5);
        for q in 0..5 {
            s.apply_gate(&GateKind::H, &[q]);
            s.apply_gate(&GateKind::T, &[q]);
        }
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..200 {
            assert_eq!(s.sample_all(&mut r1), reference::sample_all(&s, &mut r2));
        }
    }

    #[test]
    fn cumulative_table_handles_edge_draws() {
        let s = StateVector::basis_state(2, 0b10);
        let cum = s.cumulative_probabilities();
        assert_eq!(StateVector::sample_from_cumulative(&cum, 0.0), 0b10);
        // Draws at or beyond the total mass clamp to the last basis state
        // with any probability (here exactly the last nonzero entry works
        // out to the final index by the partition rule).
        assert_eq!(StateVector::sample_from_cumulative(&cum, 0.999999), 0b10);
    }

    #[test]
    fn bit_insertion_expands_correctly() {
        assert_eq!(insert_bit(0b101, 1), 0b1001);
        assert_eq!(insert_bit(0b101, 0), 0b1010);
        assert_eq!(insert_bit(insert_bit(0b11, 0), 2), 0b1010);
        // Every expanded index has the inserted bits clear and the mapping
        // is injective.
        let mut seen = std::collections::HashSet::new();
        for k in 0..16usize {
            let i = insert_bit(insert_bit(k, 1), 3);
            assert_eq!(i & 0b1010, 0, "k={k} -> {i:b}");
            assert!(seen.insert(i));
        }
    }
}
