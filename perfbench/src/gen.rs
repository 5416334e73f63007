//! Seeded input generation: every operation and every initial value a
//! workload uses is drawn here from `--seed`, so one seed always yields
//! the same inputs and the program under test sees only generated data.

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` (streams are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform index in `0..bound` (`bound > 0`).
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// True with probability `pct`%.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Stream ids: population streams and one op stream per client thread.
pub const POPULATION_STREAM: u64 = 0xB0B;
/// Stream of the churn control-plane schedule.
pub const SCHEDULE_STREAM: u64 = 0xC0DE;

/// Op stream of client `thread`.
pub fn client_rng(seed: u64, thread: usize) -> Rng {
    Rng::new(seed, 1 + thread as u64)
}

/// FNV-1a digest over a sequence of words: the fingerprint the tests use
/// to show that a seed fixes the inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds several words in.
    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}
