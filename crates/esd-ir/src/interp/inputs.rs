//! Sources of concrete program input for the interpreter.
//!
//! At the end-user site the program runs with whatever inputs the user
//! provides; during playback the inputs are exactly the concrete values the
//! synthesizer solved for. Both are modeled by the [`InputProvider`] trait.
//! Inputs are keyed by `(thread, per-thread sequence number)`: given the same
//! schedule, each thread reads its inputs in a deterministic order, so this
//! key uniquely identifies each read during replay.

use crate::inst::InputSource;
use crate::types::ThreadId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Serves the words returned by `Input` instructions.
pub trait InputProvider {
    /// Returns the word for the `seq`-th input read performed by `thread`,
    /// reading from `source`.
    fn read(&mut self, thread: ThreadId, seq: u32, source: &InputSource) -> i64;
}

/// Returns zero for every input (a bland default for smoke runs).
#[derive(Debug, Default, Clone)]
pub struct ZeroInputs;

impl InputProvider for ZeroInputs {
    fn read(&mut self, _thread: ThreadId, _seq: u32, _source: &InputSource) -> i64 {
        0
    }
}

/// Returns uniformly random printable-ish bytes; used by the stress-testing
/// baseline (§7.2 "random input testing").
#[derive(Debug, Clone)]
pub struct RandomInputs {
    rng: StdRng,
    /// Inclusive range of generated values.
    pub lo: i64,
    /// Inclusive upper bound of generated values.
    pub hi: i64,
}

impl RandomInputs {
    /// Creates a provider generating values in `[lo, hi]` from `seed`.
    pub fn new(seed: u64, lo: i64, hi: i64) -> Self {
        RandomInputs { rng: StdRng::seed_from_u64(seed), lo, hi }
    }
}

impl InputProvider for RandomInputs {
    fn read(&mut self, _thread: ThreadId, _seq: u32, _source: &InputSource) -> i64 {
        self.rng.gen_range(self.lo..=self.hi)
    }
}

/// Serves inputs from an explicit map, falling back to a default; this is the
/// playback-side provider fed from a synthesized execution file.
#[derive(Debug, Clone, Default)]
pub struct MapInputs {
    map: HashMap<(ThreadId, u32), i64>,
    /// Value returned for reads not present in the map.
    pub default: i64,
}

impl MapInputs {
    /// Creates an empty map provider with default value 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a provider from `(thread, seq) -> value` entries.
    pub fn from_entries(entries: impl IntoIterator<Item = ((ThreadId, u32), i64)>) -> Self {
        MapInputs { map: entries.into_iter().collect(), default: 0 }
    }

    /// Inserts or overwrites one entry.
    pub fn set(&mut self, thread: ThreadId, seq: u32, value: i64) {
        self.map.insert((thread, seq), value);
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no explicit entries are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl InputProvider for MapInputs {
    fn read(&mut self, thread: ThreadId, seq: u32, _source: &InputSource) -> i64 {
        *self.map.get(&(thread, seq)).unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_inputs_always_zero() {
        let mut z = ZeroInputs;
        assert_eq!(z.read(ThreadId(0), 0, &InputSource::Stdin), 0);
        assert_eq!(z.read(ThreadId(3), 9, &InputSource::Env("x".into())), 0);
    }

    #[test]
    fn random_inputs_stay_in_range_and_are_seeded() {
        let mut a = RandomInputs::new(42, 5, 9);
        let mut b = RandomInputs::new(42, 5, 9);
        for i in 0..100 {
            let va = a.read(ThreadId(0), i, &InputSource::Stdin);
            let vb = b.read(ThreadId(0), i, &InputSource::Stdin);
            assert_eq!(va, vb, "same seed must give same stream");
            assert!((5..=9).contains(&va));
        }
    }

    #[test]
    fn map_inputs_use_entries_then_default() {
        let mut m = MapInputs::from_entries([((ThreadId(1), 0), 77)]);
        m.default = -1;
        m.set(ThreadId(1), 1, 88);
        assert_eq!(m.read(ThreadId(1), 0, &InputSource::Stdin), 77);
        assert_eq!(m.read(ThreadId(1), 1, &InputSource::Stdin), 88);
        assert_eq!(m.read(ThreadId(0), 0, &InputSource::Stdin), -1);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
