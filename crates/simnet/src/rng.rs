//! Deterministic, forkable randomness.
//!
//! Every stochastic decision in the workspace — crawler inter-request
//! delays, classifier noise, domain-name keyword draws — flows from a
//! single root seed through [`DetRng`]. A `DetRng` can be *forked* by
//! label, producing an independent stream whose seed is derived from the
//! parent seed and the label. Forking means subsystems can be added or
//! reordered without perturbing each other's streams, which keeps
//! experiment outputs stable across refactors.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Opt-in audit of fork labels, for collision detection.
///
/// Two *different* call sites forking the same `(parent seed, label)`
/// pair silently share one stream — every draw correlates, and a
/// replay-divergence bisection would blame the wrong layer. The audit
/// records every fork made on the current thread between
/// [`fork_audit::begin`] and [`fork_audit::finish`]; callers then
/// assert that the labels they care about (retry sites, fault sites)
/// were forked at most once. The registry is thread-local and
/// disabled by default, so production runs pay one thread-local read
/// per fork and no allocation.
pub mod fork_audit {
    use std::cell::RefCell;
    use std::collections::HashMap;

    thread_local! {
        static REGISTRY: RefCell<Option<HashMap<(u64, String), u64>>> =
            const { RefCell::new(None) };
    }

    /// Start auditing forks on this thread. Clears any previous audit.
    pub fn begin() {
        REGISTRY.with(|r| *r.borrow_mut() = Some(HashMap::new()));
    }

    /// Stop auditing and return every `(parent_seed, label)` pair that
    /// was forked more than once, with its count, in label order.
    pub fn finish() -> Vec<(u64, String, u64)> {
        let map = REGISTRY.with(|r| r.borrow_mut().take()).unwrap_or_default();
        let mut dups: Vec<(u64, String, u64)> = map
            .into_iter()
            .filter(|(_, n)| *n > 1)
            .map(|((seed, label), n)| (seed, label, n))
            .collect();
        dups.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        dups
    }

    /// Whether an audit is running on this thread.
    pub(super) fn recording() -> bool {
        REGISTRY.with(|r| r.borrow().is_some())
    }

    pub(super) fn note(seed: u64, label: &str) {
        REGISTRY.with(|r| {
            if let Some(map) = r.borrow_mut().as_mut() {
                *map.entry((seed, label.to_string())).or_insert(0) += 1;
            }
        });
    }
}

/// A deterministic random-number generator with labelled forking.
///
/// ```
/// use phishsim_simnet::DetRng;
///
/// let root = DetRng::new(42);
/// // Child streams depend only on (seed, label): forking after the
/// // parent has been used yields the same stream.
/// let mut a = root.fork("crawler");
/// let mut b = DetRng::new(42).fork("crawler");
/// assert_eq!(a.range(0..100u32), b.range(0..100u32));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: ChaCha12Rng,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`; used to mix fork labels
/// into seeds. Stable across platforms and Rust versions (unlike
/// `DefaultHasher`), and a byte stream, so a label hashed in pieces
/// equals the label hashed whole.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Decimal digits of `usize::MAX`, the longest index `fork_indexed`
/// spells.
const INDEX_DIGITS: usize = usize::MAX.ilog10() as usize + 1;

impl DetRng {
    /// Create a root generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fork an independent child stream identified by `label`.
    ///
    /// The child's seed depends only on the parent *seed* and the label,
    /// not on how much the parent has been consumed, so fork order and
    /// interleaved draws do not affect child streams.
    pub fn fork(&self, label: &str) -> DetRng {
        fork_audit::note(self.seed, label);
        self.child(fnv1a(FNV_OFFSET, label.as_bytes()))
    }

    /// Fork a child stream identified by a label and an index (e.g. one
    /// stream per registered domain): the stream of
    /// `fork(&format!("{label}#{index}"))`. The label is hashed in
    /// pieces, so no string is built unless [`fork_audit`] is recording.
    pub fn fork_indexed(&self, label: &str, index: usize) -> DetRng {
        if fork_audit::recording() {
            fork_audit::note(self.seed, &format!("{label}#{index}"));
        }
        // Spelled by hand: formatting with `write!` made a cohort-table
        // build, one fork per client, about 20 % slower (10M clients on
        // one thread of a 2-vCPU Xeon).
        let mut digits = [0u8; INDEX_DIGITS];
        let mut start = digits.len();
        let mut rest = index;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let hash = fnv1a(fnv1a(FNV_OFFSET, label.as_bytes()), b"#");
        self.child(fnv1a(hash, &digits[start..]))
    }

    /// The child whose label hashes to `label_hash`.
    fn child(&self, label_hash: u64) -> DetRng {
        let child_seed = self
            .seed
            .rotate_left(17)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ label_hash;
        DetRng::new(child_seed)
    }

    /// Sample uniformly from a range.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen_bool(p)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A sample from an exponential distribution with the given mean.
    /// Used for inter-arrival times of crawler requests.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// A sample from a truncated normal distribution via the Box–Muller
    /// transform, clamped to `[min, max]`.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64, max: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + std_dev * z).clamp(min, max)
    }

    /// Pick a uniformly random element of a slice. Panics on empty slices.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        let i = self.inner.gen_range(0..items.len());
        &items[i]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (k > n yields all of them),
    /// in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_independent_of_parent_consumption() {
        let mut a = DetRng::new(7);
        let b = DetRng::new(7);
        // Consume some of `a` before forking.
        for _ in 0..10 {
            a.next_u64();
        }
        let mut fa = a.fork("crawler");
        let mut fb = b.fork("crawler");
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn fork_labels_independent() {
        let root = DetRng::new(7);
        let mut x = root.fork("x");
        let mut y = root.fork("y");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn fork_indexed_distinct() {
        let root = DetRng::new(3);
        let mut s: Vec<u64> = (0..16)
            .map(|i| root.fork_indexed("domain", i).next_u64())
            .collect();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16, "indexed forks should be distinct streams");
    }

    /// `fork_indexed(label, i)` against its definition: the seed and
    /// first draws of `fork(&format!("{label}#{i}"))`.
    fn assert_fork_indexed_is_spelled_fork(root: &DetRng, label: &str, i: usize) {
        let mut indexed = root.fork_indexed(label, i);
        let mut spelled = root.fork(&format!("{label}#{i}"));
        assert_eq!(indexed.seed(), spelled.seed(), "seed of {label}#{i}");
        for _ in 0..4 {
            assert_eq!(
                indexed.next_u64(),
                spelled.next_u64(),
                "draw of {label}#{i}"
            );
        }
    }

    #[test]
    fn fork_indexed_equals_fork_of_the_spelled_label() {
        let root = DetRng::new(17);
        let edges = [0, 9, 10, 99, 100, u32::MAX as usize, usize::MAX];
        for label in ["feedserve-client", "", "site#3"] {
            for i in edges {
                assert_fork_indexed_is_spelled_fork(&root, label, i);
            }
        }
    }

    #[test]
    fn fork_indexed_is_audited_under_its_spelled_label() {
        fork_audit::begin();
        let root = DetRng::new(5);
        let mut audited = root.fork_indexed("site", 12);
        let _ = root.fork_indexed("site", 12);
        let _ = root.fork_indexed("site", 13);
        let dups = fork_audit::finish();
        assert_eq!(dups, vec![(5, "site#12".to_string(), 2)]);
        // Recording changes what is noted, never the stream.
        assert_eq!(audited.next_u64(), root.fork_indexed("site", 12).next_u64());
    }

    mod fork_indexed_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fork_indexed_is_fork_of_label_hash_index(
                seed in any::<u64>(),
                label in ".{0,16}",
                wide in any::<usize>(),
                narrow in 0usize..1_000,
            ) {
                let root = DetRng::new(seed);
                assert_fork_indexed_is_spelled_fork(&root, &label, wide);
                assert_fork_indexed_is_spelled_fork(&root, &label, narrow);
            }
        }
    }

    #[test]
    fn fork_audit_reports_only_duplicates() {
        fork_audit::begin();
        let root = DetRng::new(42);
        let _ = root.fork("unique-a");
        let _ = root.fork("unique-b");
        let _ = root.fork("retry:visit:1");
        let _ = root.fork("retry:visit:1"); // deliberate collision
        let other = DetRng::new(43);
        let _ = other.fork("retry:visit:1"); // different parent seed: fine
        let dups = fork_audit::finish();
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].0, 42);
        assert_eq!(dups[0].1, "retry:visit:1");
        assert_eq!(dups[0].2, 2);
        // The audit is one-shot: a second finish has nothing.
        assert!(fork_audit::finish().is_empty());
    }

    #[test]
    fn fork_audit_disabled_is_inert() {
        let root = DetRng::new(1);
        let _ = root.fork("x");
        let _ = root.fork("x");
        assert!(fork_audit::finish().is_empty(), "no begin => no records");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(5.0));
    }

    #[test]
    fn exponential_mean_roughly_right() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean = 30.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..1_000 {
            let v = r.normal_clamped(10.0, 100.0, 0.0, 20.0);
            assert!((0.0..=20.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = DetRng::new(5);
        let s = r.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert!(s.iter().all(|&i| i < 10));
        // Oversampling yields everything.
        assert_eq!(r.sample_indices(3, 10).len(), 3);
    }
}
