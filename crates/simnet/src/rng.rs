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
        self.indexed_forks(label).fork(index)
    }

    /// The streams `fork_indexed(label, i)` for every `i`, with
    /// `label#` hashed once instead of once per fork: a walk over a
    /// range of clients forks one stream per client.
    pub fn indexed_forks<'a>(&'a self, label: &'a str) -> IndexedForks<'a> {
        self.forks_after(label, "#")
    }

    /// The streams `fork(&format!("{prefix}{i}"))` for every `i`: the
    /// prefix is hashed once and each fork hashes only the digits of
    /// its index, so no label string is built.
    pub fn numbered_forks<'a>(&'a self, prefix: &'a str) -> IndexedForks<'a> {
        self.forks_after(prefix, "")
    }

    fn forks_after<'a>(&'a self, label: &'a str, sep: &'static str) -> IndexedForks<'a> {
        IndexedForks {
            parent: self,
            label,
            sep,
            prefix_hash: fnv1a(fnv1a(FNV_OFFSET, label.as_bytes()), sep.as_bytes()),
        }
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

/// One parent's child streams whose labels are one prefix followed by
/// an index's decimal digits ([`DetRng::indexed_forks`],
/// [`DetRng::numbered_forks`]).
#[derive(Debug, Clone, Copy)]
pub struct IndexedForks<'a> {
    parent: &'a DetRng,
    label: &'a str,
    /// `"#"` for [`DetRng::indexed_forks`], empty for
    /// [`DetRng::numbered_forks`].
    sep: &'static str,
    /// FNV-1a of the prefix, `label` then `sep`.
    prefix_hash: u64,
}

impl IndexedForks<'_> {
    /// The parent's stream labelled by the prefix and `index`, e.g.
    /// `fork_indexed(label, index)` for [`DetRng::indexed_forks`].
    pub fn fork(&self, index: usize) -> DetRng {
        if fork_audit::recording() {
            let spelled = format!("{}{}{index}", self.label, self.sep);
            fork_audit::note(self.parent.seed, &spelled);
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
        self.parent.child(fnv1a(self.prefix_hash, &digits[start..]))
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

    /// The first 40 words (two and a half ChaCha12 blocks) of three
    /// root streams, recorded before the block function was rewritten
    /// to keep its state in locals: every stream in the workspace
    /// derives from these, so any change to the keystream, the counter
    /// or the seed expansion shows here first.
    #[test]
    fn root_streams_match_their_recorded_words() {
        let recorded: [(u64, [u32; 40]); 3] = [
            (
                0,
                [
                    0x82b67bca, 0xd18c9d7b, 0xdd8c2eb1, 0x73f1688a, 0x2bbe7197, 0x65b16a72,
                    0xab5ceb0a, 0x544515e3, 0x7cefd08f, 0xc348ae59, 0xadcb0258, 0x19169280,
                    0x0513251c, 0xbea27070, 0xf8fca523, 0xa4599b32, 0xe6e15f10, 0x90eb499a,
                    0xbedb63ec, 0xc07d704b, 0x8222e7fc, 0x0b80d6d7, 0xdf5b06ad, 0x53588c93,
                    0x4b087ecd, 0x0d560479, 0xd3d241f5, 0x41807d37, 0xc8b0bce9, 0x35ddb463,
                    0x687f20d9, 0xb280bf30, 0xe49d82c3, 0x8019cf4c, 0xd0da9f85, 0x5f07f260,
                    0xcafc7aa7, 0x248a5a8f, 0x1c655b08, 0x25ac2b6a,
                ],
            ),
            (
                17,
                [
                    0xed8e84d7, 0xc92a847f, 0xdecd918c, 0x023ce2a0, 0xca684963, 0x16c78bc4,
                    0xb467665d, 0x2fe22af6, 0xe0795a71, 0x70cb224c, 0x26516609, 0x437b0cae,
                    0xa398dddc, 0xa8a3c307, 0x0f105a35, 0x886237a9, 0x3c9fcbc2, 0xc50b6e50,
                    0xb44cc40b, 0x05fcaa1f, 0xe4b8d905, 0x7644b935, 0xb8d3acf4, 0xacf4afb1,
                    0xf1bc25bc, 0x337ade44, 0xd8f7a57d, 0x45ac6e8e, 0x97aaded6, 0x34c00258,
                    0x7f9d9dcf, 0x306f66ba, 0x9c2f16a7, 0xb43f62e2, 0x91d9445c, 0xd23f4c94,
                    0x8a601675, 0xef46a2ab, 0xc10d88d1, 0x25a5939a,
                ],
            ),
            (
                u64::MAX,
                [
                    0x10198c2a, 0xfaad820e, 0xa3a93d15, 0xcbe4ff9d, 0x9978ada3, 0x17872c99,
                    0xcfc766f4, 0xb06dcc25, 0x47f0c52d, 0x1df25c29, 0x1c828f1f, 0x0ee83609,
                    0x1229eb29, 0x8fc7a92d, 0x1eca2617, 0xc8a8773a, 0x989bfad9, 0x401a5821,
                    0x7912e93f, 0x7755e837, 0xedba0b44, 0xb2b14bb8, 0x84a6ec0d, 0x28d2cb2d,
                    0x628dd148, 0xe24334ad, 0x5c67e3fe, 0xc7d9e171, 0x580aa550, 0xb8e577b5,
                    0xc93e9d41, 0xd00ea7ed, 0xb7991c7e, 0xeccaa12d, 0x90f356fd, 0x623181df,
                    0x925734fc, 0x75cf9a60, 0xaed14710, 0xbf705009,
                ],
            ),
        ];
        for (seed, words) in recorded {
            let mut rng = DetRng::new(seed);
            let drawn: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            assert_eq!(drawn, words, "root stream of seed {seed}");
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

    /// `fork_indexed(label, i)`, `indexed_forks(label).fork(i)` and
    /// `numbered_forks(label).fork(i)` against their definitions: the
    /// seeds and first draws of `fork(&format!("{label}#{i}"))` and
    /// `fork(&format!("{label}{i}"))`.
    fn assert_fork_indexed_is_spelled_fork(root: &DetRng, label: &str, i: usize) {
        let mut spelled = root.fork(&format!("{label}#{i}"));
        let mut indexed = root.fork_indexed(label, i);
        let mut ranged = root.indexed_forks(label).fork(i);
        assert_eq!(indexed.seed(), spelled.seed(), "seed of {label}#{i}");
        assert_eq!(ranged.seed(), spelled.seed(), "ranged seed of {label}#{i}");
        for _ in 0..4 {
            let want = spelled.next_u64();
            assert_eq!(indexed.next_u64(), want, "draw of {label}#{i}");
            assert_eq!(ranged.next_u64(), want, "ranged draw of {label}#{i}");
        }
        let mut spelled = root.fork(&format!("{label}{i}"));
        let mut numbered = root.numbered_forks(label).fork(i);
        assert_eq!(numbered.seed(), spelled.seed(), "seed of {label}{i}");
        for _ in 0..4 {
            assert_eq!(
                numbered.next_u64(),
                spelled.next_u64(),
                "draw of {label}{i}"
            );
        }
    }

    #[test]
    fn fork_indexed_equals_fork_of_the_spelled_label() {
        let root = DetRng::new(17);
        let edges = [0, 9, 10, 99, 100, u32::MAX as usize, usize::MAX];
        for label in ["feedserve-client", "", "site#3", "report-key:r"] {
            for i in edges {
                assert_fork_indexed_is_spelled_fork(&root, label, i);
            }
            // One family serves every index, in any order.
            let forks = root.indexed_forks(label);
            for i in edges.into_iter().rev() {
                assert_eq!(
                    forks.fork(i).seed(),
                    root.fork(&format!("{label}#{i}")).seed()
                );
            }
            let numbered = root.numbered_forks(label);
            for i in edges.into_iter().rev() {
                assert_eq!(
                    numbered.fork(i).seed(),
                    root.fork(&format!("{label}{i}")).seed()
                );
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
        let _ = root.indexed_forks("site").fork(13);
        let _ = root.numbered_forks("report-key:r").fork(7);
        let _ = root.fork("report-key:r7");
        let dups = fork_audit::finish();
        assert_eq!(
            dups,
            vec![
                (5, "report-key:r7".to_string(), 2),
                (5, "site#12".to_string(), 2),
                (5, "site#13".to_string(), 2)
            ]
        );
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
                assert_fork_indexed_is_spelled_fork(&root, "report-key:r", narrow);
            }
        }
    }

    mod seeding_properties {
        use super::*;
        use proptest::prelude::*;

        /// A generator that keeps its seed and takes the trait's
        /// default `seed_from_u64`: the SplitMix64 bytes.
        struct SeedBytes([u8; 32]);

        impl SeedableRng for SeedBytes {
            type Seed = [u8; 32];
            fn from_seed(seed: [u8; 32]) -> Self {
                SeedBytes(seed)
            }
        }

        proptest! {
            #[test]
            fn seed_from_u64_is_from_seed_of_the_splitmix_bytes(seed in any::<u64>()) {
                let mut direct = ChaCha12Rng::seed_from_u64(seed);
                let mut via_bytes = ChaCha12Rng::from_seed(SeedBytes::seed_from_u64(seed).0);
                // Past the first block, so the counter words count too.
                for _ in 0..20 {
                    prop_assert_eq!(direct.next_u64(), via_bytes.next_u64());
                }
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
