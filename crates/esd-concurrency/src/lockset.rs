//! Eraser-style lockset data-race detection.
//!
//! Each shared memory word carries a *candidate lockset*: the set of locks
//! that has protected every access to it so far. On each access the candidate
//! set is intersected with the locks held by the accessing thread; when the
//! set becomes empty and the word has been written by more than one thread
//! (or written by one and read by another), the accesses are flagged as a
//! potential data race. ESD inserts schedule preemption points before flagged
//! accesses (§4.2).
//!
//! # Fork semantics
//!
//! The detector's whole state (per-word candidate locksets and the
//! duplicate-report suppression set) lives in persistent [`PMap`]s, so
//! [`Clone`] is **O(1)** and the clone is fully independent: accesses
//! recorded in one copy are never observed by the other. The symbolic
//! execution engine relies on this — every forked execution state carries
//! its own detector, so sibling interleavings each discover (and get
//! preemption points for) the races on *their* path, instead of the first
//! interleaving's report suppressing everyone else's.

use crate::pmap::PMap;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::Arc;

/// The classic Eraser state machine for one memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum WordState {
    /// Only ever touched by one thread.
    Exclusive,
    /// Read by several threads, never written after becoming shared.
    SharedRead,
    /// Read and written by several threads — lockset violations are races.
    SharedWrite,
}

#[derive(Debug, Clone)]
struct WordInfo<T, L, A> {
    state: WordState,
    first_thread: T,
    lockset: Option<HashSet<L>>,
    last_write: Option<(T, A)>,
    accesses: Vec<(T, A, bool)>,
}

impl<T: PartialEq, L: Eq + Hash, A: PartialEq> PartialEq for WordInfo<T, L, A> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.first_thread == other.first_thread
            && self.lockset == other.lockset
            && self.last_write == other.last_write
            && self.accesses == other.accesses
    }
}

// Manual serde impls (the derives can't add the `Eq + Hash` bounds the
// `HashSet` lockset needs on `L`). The `HashSet` serializes in the shim's
// canonical sorted order, so output is deterministic.
impl<T: Serialize, L: Serialize, A: Serialize> Serialize for WordInfo<T, L, A> {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.key(true, "\"state\"");
        self.state.serialize(w);
        w.key(false, "\"first_thread\"");
        self.first_thread.serialize(w);
        w.key(false, "\"lockset\"");
        self.lockset.serialize(w);
        w.key(false, "\"last_write\"");
        self.last_write.serialize(w);
        w.key(false, "\"accesses\"");
        self.accesses.serialize(w);
        w.end_object(false);
    }
}

impl<T: Deserialize, L: Deserialize + Eq + Hash, A: Deserialize> Deserialize for WordInfo<T, L, A> {
    fn deserialize(v: serde::Node<'_, '_>) -> Result<Self, serde::DeError> {
        let mut fields = v.object().ok();
        let mut field = |k: &str| {
            fields
                .as_mut()
                .and_then(|f| f.get(k))
                .ok_or_else(|| serde::DeError(format!("missing WordInfo field `{k}`")))
        };
        Ok(WordInfo {
            state: Deserialize::deserialize(field("state")?)?,
            first_thread: Deserialize::deserialize(field("first_thread")?)?,
            lockset: Deserialize::deserialize(field("lockset")?)?,
            last_write: Deserialize::deserialize(field("last_write")?)?,
            accesses: Deserialize::deserialize(field("accesses")?)?,
        })
    }
}

/// A potential (harmful) data race between two accesses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport<T, A> {
    /// The earlier access (thread, location, is_write).
    pub first: (T, A, bool),
    /// The later access that completed the race.
    pub second: (T, A, bool),
}

/// A lockset-based race detector, generic over thread ids `T`, lock ids `L`
/// and access locations `A`.
///
/// Internally all state lives in persistent maps ([`PMap`]), so cloning the
/// detector is O(1) and clones never observe each other's accesses (see the
/// [module docs](self) for why the engine depends on this).
#[derive(Debug)]
pub struct LocksetDetector<V, T, L, A> {
    /// Per-word state, `Arc`-wrapped so the trie's path copies (and clones
    /// shared with forked detectors) duplicate pointers, not word state; the
    /// word being updated is cloned at most once per access via
    /// `Arc::make_mut`.
    words: PMap<V, Arc<WordInfo<T, L, A>>>,
    /// Location pairs already reported, to avoid duplicate reports *within
    /// one interleaving*.
    reported: PMap<(A, A), ()>,
}

impl<V, T, L, A> Clone for LocksetDetector<V, T, L, A> {
    fn clone(&self) -> Self {
        LocksetDetector { words: self.words.clone(), reported: self.reported.clone() }
    }
}

impl<V, T, L, A> Default for LocksetDetector<V, T, L, A> {
    fn default() -> Self {
        LocksetDetector { words: PMap::new(), reported: PMap::new() }
    }
}

impl<V, T, L, A> LocksetDetector<V, T, L, A>
where
    V: Eq + Hash + Copy,
    T: Eq + Copy,
    L: Eq + Hash + Copy,
    A: Eq + Hash + Copy,
{
    /// Creates an empty detector.
    pub fn new() -> Self {
        LocksetDetector::default()
    }

    /// Records an access and returns a race report if this access races with
    /// a previous one.
    pub fn access(
        &mut self,
        word: V,
        thread: T,
        at: A,
        is_write: bool,
        held: &[L],
    ) -> Option<RaceReport<T, A>> {
        let held_set: HashSet<L> = held.iter().copied().collect();
        if !self.words.contains_key(&word) {
            self.words.insert(
                word,
                Arc::new(WordInfo {
                    state: WordState::Exclusive,
                    first_thread: thread,
                    lockset: None,
                    last_write: None,
                    accesses: Vec::new(),
                }),
            );
        }
        // In-place when this detector uniquely owns the word's state; a copy
        // is made only if a forked sibling still shares it (`Arc::make_mut`).
        let slot = self.words.get_mut(&word).expect("just inserted");
        let info = Arc::make_mut(slot);

        // State transitions.
        if thread != info.first_thread {
            info.state = match (info.state, is_write) {
                (WordState::Exclusive, false) => WordState::SharedRead,
                (WordState::Exclusive, true) => WordState::SharedWrite,
                (WordState::SharedRead, true) => WordState::SharedWrite,
                (s, _) => s,
            };
        }

        // Lockset refinement starts once the word is shared.
        let mut race = None;
        if info.state != WordState::Exclusive {
            let lockset = match &mut info.lockset {
                Some(ls) => {
                    ls.retain(|l| held_set.contains(l));
                    ls.clone()
                }
                None => {
                    info.lockset = Some(held_set.clone());
                    held_set
                }
            };
            if lockset.is_empty() && info.state == WordState::SharedWrite {
                // Find a conflicting prior access from a different thread,
                // at least one of the pair being a write.
                if let Some(prev) =
                    info.accesses.iter().rev().find(|(t, _, w)| *t != thread && (*w || is_write))
                {
                    let key = (prev.1, at);
                    if !self.reported.contains_key(&key) {
                        self.reported.insert(key, ());
                        race = Some(RaceReport { first: *prev, second: (thread, at, is_write) });
                    }
                }
            }
        }

        if is_write {
            info.last_write = Some((thread, at));
        }
        info.accesses.push((thread, at, is_write));
        if info.accesses.len() > 64 {
            info.accesses.remove(0);
        }
        race
    }

    /// Number of distinct words the detector has seen.
    pub fn tracked_words(&self) -> usize {
        self.words.len()
    }

    /// Number of distinct racing location pairs reported so far.
    pub fn reported_pairs(&self) -> usize {
        self.reported.len()
    }
}

impl<V, T, L, A> PartialEq for LocksetDetector<V, T, L, A>
where
    V: Eq + Hash,
    T: Eq + Copy,
    L: Eq + Hash,
    A: Eq + Hash + Copy,
{
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && self.reported == other.reported
    }
}

/// Snapshot support: the detector serializes its two persistent maps in
/// canonical order, so content-equal detectors render byte-identically no
/// matter what fork history produced them.
impl<V: Serialize, T: Serialize, L: Serialize, A: Serialize> Serialize
    for LocksetDetector<V, T, L, A>
{
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.key(true, "\"words\"");
        self.words.serialize(w);
        w.key(false, "\"reported\"");
        self.reported.serialize(w);
        w.end_object(false);
    }
}

impl<V, T, L, A> Deserialize for LocksetDetector<V, T, L, A>
where
    V: Deserialize + Eq + Hash + Clone,
    T: Deserialize + Clone,
    L: Deserialize + Eq + Hash + Clone,
    A: Deserialize + Eq + Hash + Clone,
{
    fn deserialize(v: serde::Node<'_, '_>) -> Result<Self, serde::DeError> {
        let mut fields = v.object().ok();
        let mut field = |k: &str| {
            fields
                .as_mut()
                .and_then(|f| f.get(k))
                .ok_or_else(|| serde::DeError(format!("missing LocksetDetector field `{k}`")))
        };
        Ok(LocksetDetector {
            words: Deserialize::deserialize(field("words")?)?,
            reported: Deserialize::deserialize(field("reported")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Det = LocksetDetector<u64, u32, u64, u32>;

    #[test]
    fn properly_locked_accesses_do_not_race() {
        let mut d = Det::new();
        assert!(d.access(100, 1, 10, true, &[7]).is_none());
        assert!(d.access(100, 2, 20, true, &[7]).is_none());
        assert!(d.access(100, 1, 30, false, &[7]).is_none());
        assert_eq!(d.tracked_words(), 1);
    }

    #[test]
    fn unlocked_concurrent_writes_race() {
        let mut d = Det::new();
        assert!(d.access(100, 1, 10, true, &[]).is_none());
        let race = d.access(100, 2, 20, true, &[]).expect("race");
        assert_eq!(race.first.0, 1);
        assert_eq!(race.second.0, 2);
        assert!(race.first.2 || race.second.2);
    }

    #[test]
    fn read_only_sharing_is_not_a_race() {
        let mut d = Det::new();
        assert!(d.access(100, 1, 10, false, &[]).is_none());
        assert!(d.access(100, 2, 20, false, &[]).is_none());
        assert!(d.access(100, 3, 30, false, &[]).is_none());
    }

    #[test]
    fn disjoint_locksets_eventually_race() {
        let mut d = Det::new();
        assert!(d.access(100, 1, 10, true, &[7]).is_none());
        // Second thread holds a different lock: the candidate set becomes
        // {8} when the word turns shared-written (no report yet, exactly as
        // in Eraser)…
        assert!(d.access(100, 2, 20, true, &[8]).is_none());
        // …and the next access under the original lock empties it: race.
        let race = d.access(100, 1, 30, true, &[7]);
        assert!(race.is_some());
    }

    #[test]
    fn exclusive_phase_does_not_refine_lockset() {
        let mut d = Det::new();
        // Initialization by one thread without locks is fine (Eraser's
        // exclusive state), and the race only appears once another thread
        // writes.
        assert!(d.access(100, 1, 1, true, &[]).is_none());
        assert!(d.access(100, 1, 2, true, &[]).is_none());
        assert!(d.access(100, 1, 3, false, &[]).is_none());
        assert!(d.access(100, 2, 4, true, &[]).is_some());
    }

    #[test]
    fn duplicate_races_are_reported_once() {
        let mut d = Det::new();
        d.access(100, 1, 10, true, &[]);
        assert!(d.access(100, 2, 20, true, &[]).is_some());
        assert!(d.access(100, 2, 20, true, &[]).is_none(), "same pair not re-reported");
    }

    /// Replays a hand-built interleaving of the classic "lock dropped for
    /// the slow path" bug: both threads usually update the shared counter
    /// under lock `L`, but thread 2's second write happens after it released
    /// the lock. The detector must flag exactly that write, against thread
    /// 1's latest conflicting access, and stay quiet about the properly
    /// locked prefix.
    #[test]
    fn hand_built_interleaving_pinpoints_the_unlocked_write() {
        const COUNTER: u64 = 0xC0;
        const LOCK: u64 = 7;
        let mut d = Det::new();
        // t1: lock; read+write counter; unlock.
        assert!(d.access(COUNTER, 1, 100, false, &[LOCK]).is_none());
        assert!(d.access(COUNTER, 1, 101, true, &[LOCK]).is_none());
        // t2: lock; read+write counter; unlock.
        assert!(d.access(COUNTER, 2, 200, false, &[LOCK]).is_none());
        assert!(d.access(COUNTER, 2, 201, true, &[LOCK]).is_none());
        // t1: one more locked update.
        assert!(d.access(COUNTER, 1, 102, true, &[LOCK]).is_none());
        // t2: buggy slow path — updates the counter after unlock.
        let race = d.access(COUNTER, 2, 202, true, &[]).expect("unlocked write races");
        assert_eq!(race.second, (2, 202, true), "the unlocked write is the racing access");
        assert_eq!(race.first, (1, 102, true), "paired with t1's latest conflicting write");
        // The same pair is not reported twice on replay of the tail.
        assert!(d.access(COUNTER, 2, 202, true, &[]).is_none());
    }

    /// Snapshot support: a detector serializes canonically and the restored
    /// copy behaves identically (same dedup suppression, same pending state)
    /// and re-serializes to the same bytes.
    #[test]
    fn detector_roundtrips_through_json_preserving_behavior() {
        let mut d = Det::new();
        d.access(100, 1, 10, true, &[7]);
        d.access(100, 2, 20, true, &[8]);
        d.access(200, 1, 30, true, &[]);
        d.access(200, 2, 40, true, &[]).expect("race on word 200");
        let json = serde_json::to_string(&d).unwrap();
        let mut back: Det = serde_json::from_str(&json).unwrap();
        assert!(back == d, "restored detector is content-equal");
        assert_eq!(serde_json::to_string(&back).unwrap(), json, "round trip is byte-identical");
        // Already-reported pair stays suppressed; the pending lockset
        // refinement on word 100 still fires exactly as it would have.
        assert!(back.access(200, 2, 40, true, &[]).is_none());
        let mut live = d.clone();
        assert_eq!(back.access(100, 1, 50, true, &[7]), live.access(100, 1, 50, true, &[7]));
    }

    #[test]
    fn race_reports_roundtrip_through_json() {
        let mut d = Det::new();
        d.access(100, 1, 10, true, &[]);
        let race = d.access(100, 2, 20, true, &[]).expect("race");
        let json = serde_json::to_string(&race).unwrap();
        let back: RaceReport<u32, u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(race, back);
    }

    /// The fork semantics the symbolic-execution engine depends on: a cloned
    /// detector is an independent snapshot, so a race already reported in one
    /// sibling interleaving is still reported in the other.
    #[test]
    fn forked_detectors_report_the_same_race_independently() {
        let mut parent = Det::new();
        parent.access(100, 1, 10, true, &[]);
        // Fork before anything is reported: both siblings must flag the race.
        let mut sibling_a = parent.clone();
        let mut sibling_b = parent.clone();
        assert!(sibling_a.access(100, 2, 20, true, &[]).is_some());
        assert!(
            sibling_b.access(100, 2, 20, true, &[]).is_some(),
            "a sibling's report must not suppress this interleaving's race"
        );
        // The parent saw neither access nor report.
        assert_eq!(parent.reported_pairs(), 0);
        assert_eq!(parent.tracked_words(), 1);
        assert_eq!(sibling_a.reported_pairs(), 1);
        // Within one interleaving the dedup still applies.
        assert!(sibling_a.access(100, 2, 20, true, &[]).is_none());
    }

    #[test]
    fn clone_is_a_snapshot_in_both_directions() {
        let mut parent = Det::new();
        parent.access(1, 1, 10, true, &[7]);
        let snapshot = parent.clone();
        let frozen = parent.clone();
        // Advancing the parent does not change the snapshot…
        parent.access(1, 2, 20, true, &[]);
        parent.access(2, 1, 30, false, &[]);
        assert_eq!(snapshot, frozen);
        assert_eq!(snapshot.tracked_words(), 1);
        // …and the parent diverged as expected.
        assert_eq!(parent.tracked_words(), 2);
    }

    #[test]
    fn races_on_different_words_are_independent() {
        let mut d = Det::new();
        d.access(1, 1, 10, true, &[]);
        d.access(2, 1, 11, true, &[]);
        assert!(d.access(1, 2, 20, true, &[]).is_some());
        assert!(d.access(2, 2, 21, true, &[]).is_some());
        assert_eq!(d.tracked_words(), 2);
    }
}
