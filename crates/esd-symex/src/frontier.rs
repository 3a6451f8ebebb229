//! Pluggable search frontiers: the engine's worklist of execution states.
//!
//! The search engine repeatedly *pops* one state from the frontier, advances
//! it by a burst of up to 32 micro-steps (one under the KC baseline), and
//! *pushes* it back along with the states it forked. Which
//! state the frontier hands back next is the search strategy —
//! the only part of the dynamic phase that differs between ESD and the
//! baselines it is compared against — so it is factored out behind the
//! [`SearchFrontier`] trait and selected by a [`FrontierKind`] (the
//! `frontier` field of [`EsdOptions`](crate::EsdOptions)):
//!
//! * [`ProximityFrontier`] — ESD's strategy (§3.4, Algorithm 1): one virtual
//!   priority queue per goal (intermediate goals from the static phase plus
//!   the final goal), each ordered by the proximity estimate; selection picks
//!   a queue uniformly at random and takes its closest state.
//! * [`DfsFrontier`] — depth-first (Klee's DFS searcher, "equivalent to an
//!   exhaustive search").
//! * [`RandomFrontier`] — uniformly random among live states, the second
//!   KC baseline. That is KLEE's random-state search, not its RandomPath
//!   searcher, which walks the fork tree and weights a state at fork depth
//!   d by 2^-d; giving the frontier the fork tree is an open ROADMAP item
//!   ("A random frontier that is KLEE's RandomPath").
//!
//! # Contract
//!
//! The engine computes a [`StatePriority`] for a state when it enters the
//! frontier and calls [`SearchFrontier::push`]; a later `push` of the same id
//! *replaces* the previous position (used to promote states when the deadlock
//! heuristics change their priority). A [`SearchFrontier::pop`] removes the
//! returned state from the frontier. Implementations may keep
//! lazily-invalidated entries internally, but `pop` must only return ids that
//! are currently pushed, and `len` counts live states, not internal entries.
//!
//! The state the engine just advanced does not re-enter the frontier at
//! once. The engine holds it as the *hot* state and offers it to the next
//! selection, [`SearchFrontier::pop_with`], which must decide exactly what a
//! `push` of it followed by [`SearchFrontier::pop`] would have decided. The
//! default does that push and pop. [`ProximityFrontier`]
//! compares the hot state with the top of the one queue it draws, and pushes
//! it (computing its keys for every queue) only when it loses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Which [`SearchFrontier`] implementation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FrontierKind {
    /// Depth-first search ([`DfsFrontier`]).
    Dfs,
    /// Uniformly random among live states ([`RandomFrontier`]).
    Random,
    /// ESD's proximity-guided virtual queues ([`ProximityFrontier`]).
    #[default]
    Proximity,
}

impl FrontierKind {
    /// Instantiates the frontier. `seed` seeds the stochastic frontiers
    /// ([`FrontierKind::Random`] and [`FrontierKind::Proximity`]);
    /// `num_queues` is the number of virtual goal queues the engine
    /// maintains (intermediate goals + the final goal), which only the
    /// proximity frontier uses.
    pub fn build(self, seed: u64, num_queues: usize) -> Box<dyn SearchFrontier> {
        match self {
            FrontierKind::Dfs => Box::new(DfsFrontier::new()),
            FrontierKind::Random => Box::new(RandomFrontier::new(seed)),
            FrontierKind::Proximity => Box::new(ProximityFrontier::new(num_queues, seed)),
        }
    }
}

impl std::str::FromStr for FrontierKind {
    type Err = String;

    /// Parses `"dfs"`, `"random"` / `"randompath"`, or `"proximity"` /
    /// `"esd"` (case-insensitive) — the spellings the `esd-bench` binaries
    /// accept as their first argument.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dfs" => Ok(FrontierKind::Dfs),
            "random" | "randompath" => Ok(FrontierKind::Random),
            "proximity" | "esd" => Ok(FrontierKind::Proximity),
            other => Err(format!("unknown frontier {other:?} (expected dfs|random|proximity)")),
        }
    }
}

impl std::fmt::Display for FrontierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierKind::Dfs => f.write_str("dfs"),
            FrontierKind::Random => f.write_str("random"),
            FrontierKind::Proximity => f.write_str("proximity"),
        }
    }
}

/// The ordering information the engine computes for a state as it enters the
/// frontier.
#[derive(Debug, Clone, Default)]
pub struct StatePriority {
    /// One key per virtual goal queue — lower is closer to that goal
    /// (proximity estimate biased by the deadlock schedule distance). Empty
    /// unless the frontier [wants priorities](SearchFrontier::wants_priorities).
    pub queue_keys: Vec<u64>,
    /// Total instructions this state has executed (used to break priority
    /// ties in favor of deeper states).
    pub depth: u64,
}

/// The state the engine advanced in the previous round, offered to the next
/// selection without having been pushed (see the [module docs](self)). The
/// engine computes its keys only when the frontier asks for them.
pub trait HotState {
    /// The state's id.
    fn id(&self) -> u64;

    /// The priority [`SearchFrontier::push`] would receive for the state.
    fn priority(&self) -> StatePriority;

    /// `priority().queue_keys[queue]`, computed for that one queue alone.
    fn queue_key(&self, queue: usize) -> u64;

    /// `priority().depth`.
    fn depth(&self) -> u64;
}

/// A worklist of execution-state ids; see the [module docs](self) for the
/// push/pop contract.
///
/// Frontiers are `Send` so the layer above the engine — the multi-job
/// executor — can advance whole sessions (engine included) on a worker
/// thread pool.
pub trait SearchFrontier: Send {
    /// Inserts state `id`, or — if it is already in the frontier — moves it
    /// to the position implied by the new priority. The engine pushes the
    /// states it admits or promotes and those that survive their turn,
    /// except the hot state, which it pushes only when a selection passes it
    /// over.
    fn push(&mut self, id: u64, prio: &StatePriority);

    /// Removes and returns the next state to advance, or `None` when the
    /// frontier is empty.
    fn pop(&mut self) -> Option<u64>;

    /// Selects the next state as if `hot` had been pushed just before
    /// [`pop`](SearchFrontier::pop): the same id, leaving a frontier with an
    /// equal [`snapshot`](SearchFrontier::snapshot). `hot` ends up in the
    /// frontier exactly when another state is selected.
    ///
    /// The default does exactly that push and pop; [`ProximityFrontier`]
    /// overrides it to push `hot` only when another state is selected.
    fn pop_with(&mut self, hot: &dyn HotState) -> Option<u64> {
        self.push(hot.id(), &hot.priority());
        self.pop()
    }

    /// True if this frontier consumes [`StatePriority::queue_keys`], one per
    /// virtual goal queue; the engine skips the proximity computation
    /// otherwise.
    fn wants_priorities(&self) -> bool {
        false
    }

    /// Number of states currently in the frontier.
    fn len(&self) -> usize;

    /// True when no states are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures the frontier's ordering state (live entries, their stamps'
    /// relative order and any PRNG position) as a canonical serializable
    /// value; [`FrontierSnapshot::restore`] rebuilds a frontier that pops
    /// exactly the sequence of states this one would have popped.
    fn snapshot(&self) -> FrontierSnapshot;
}

/// Serializable image of a [`SearchFrontier`]'s internal state, captured by
/// [`SearchFrontier::snapshot`] and rebuilt by [`FrontierSnapshot::restore`].
///
/// The image is canonical: it keeps live entries only, and the stamped
/// frontiers renumber their stamps by rank (`1..=n` for `n` live states, with
/// `next_stamp == n`). Stale entries are never returned and only relative
/// stamp order decides ties, so the restored frontier selects exactly what
/// the captured one would have, and two frontiers that differ only in stale
/// entries or in how many pushes came before serialize identically.
/// Ordered containers (the DFS stack, the random frontier's id vector) keep
/// their order — it *is* the search order.
/// Heaps are stored as their entry sets sorted ascending: the entries are
/// distinct totally-ordered tuples, so a heap rebuilt from them pops
/// identically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrontierSnapshot {
    /// Image of a [`DfsFrontier`].
    Dfs {
        /// The LIFO stack of `(stamp, id)` entries, bottom first.
        stack: Vec<(u64, u64)>,
        /// The lazy-invalidation table.
        live: LivenessSnapshot,
    },
    /// Image of a [`RandomFrontier`].
    Random {
        /// Live state ids in their internal (swap-remove) order.
        ids: Vec<u64>,
        /// The PRNG's exact position, as its four state words.
        rng: (u64, u64, u64, u64),
    },
    /// Image of a [`ProximityFrontier`].
    Proximity {
        /// Per-virtual-queue heap entries `(key, inverted depth, stamp, id)`,
        /// each queue sorted ascending.
        queues: Vec<Vec<(u64, u64, u64, u64)>>,
        /// The lazy-invalidation table.
        live: LivenessSnapshot,
        /// The PRNG's exact position, as its four state words.
        rng: (u64, u64, u64, u64),
    },
}

impl FrontierSnapshot {
    /// Rebuilds the frontier this snapshot was captured from; the restored
    /// frontier's pop sequence is identical to the captured one's.
    pub fn restore(&self) -> Box<dyn SearchFrontier> {
        match self {
            FrontierSnapshot::Dfs { stack, live } => {
                Box::new(DfsFrontier { stack: stack.clone(), live: Liveness::restore(live) })
            }
            FrontierSnapshot::Random { ids, rng } => Box::new(RandomFrontier {
                ids: ids.clone(),
                present: ids.iter().copied().collect(),
                rng: StdRng::from_state([rng.0, rng.1, rng.2, rng.3]),
            }),
            FrontierSnapshot::Proximity { queues, live, rng } => Box::new(ProximityFrontier {
                queues: queues
                    .iter()
                    .map(|entries| entries.iter().map(|e| Reverse(*e)).collect())
                    .collect(),
                live: Liveness::restore(live),
                rng: StdRng::from_state([rng.0, rng.1, rng.2, rng.3]),
            }),
        }
    }
}

/// Serializable image of a frontier's lazy-invalidation table (the private
/// `Liveness` bookkeeping shared by the frontier implementations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivenessSnapshot {
    /// Live `(state id, valid stamp)` entries, sorted by id (canonical form —
    /// the underlying table is an unordered map), stamps renumbered by rank.
    pub current: Vec<(u64, u64)>,
    /// The last stamp handed out; equal to the number of live states.
    pub next_stamp: u64,
}

/// The stamp renumbering of a canonical snapshot: each live stamp maps to its
/// rank among the live stamps (`1..=n`).
struct Renumbering<'a> {
    live: &'a Liveness,
    rank: HashMap<u64, u64>,
}

impl Renumbering<'_> {
    /// The canonical stamp of entry `(id, stamp)`, or `None` if the entry is
    /// stale (and so left out of the snapshot).
    fn stamp(&self, id: u64, stamp: u64) -> Option<u64> {
        if self.live.is_current(id, stamp) {
            self.rank.get(&stamp).copied()
        } else {
            None
        }
    }

    /// The live `(stamp, id)` entries of an ordered container, in order.
    fn ordered(&self, entries: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
        entries.into_iter().filter_map(|(stamp, id)| Some((self.stamp(id, stamp)?, id))).collect()
    }

    /// The live entries of a [`StateQueue`], sorted ascending (the entries are
    /// distinct, so rebuild order is irrelevant to pop order).
    fn heap(&self, heap: &StateQueue) -> Vec<(u64, u64, u64, u64)> {
        let mut entries: Vec<(u64, u64, u64, u64)> = heap
            .iter()
            .filter_map(|Reverse((key, depth, stamp, id))| {
                Some((*key, *depth, self.stamp(*id, *stamp)?, *id))
            })
            .collect();
        entries.sort_unstable();
        entries
    }
}

/// Captures an [`StdRng`]'s state words as a serializable tuple.
fn rng_state(rng: &StdRng) -> (u64, u64, u64, u64) {
    let s = rng.state();
    (s[0], s[1], s[2], s[3])
}

/// Lazy-invalidation bookkeeping shared by the frontier implementations:
/// stale entries (from a superseding `push` of the same id) stay in the
/// underlying container and are skipped on `pop` by checking their stamp.
#[derive(Debug, Default)]
struct Liveness {
    current: HashMap<u64, u64>,
    next_stamp: u64,
}

impl Liveness {
    /// Registers a (re-)push of `id`, returning the stamp that marks the new
    /// entry as the only valid one.
    fn stamp(&mut self, id: u64) -> u64 {
        self.next_stamp += 1;
        self.current.insert(id, self.next_stamp);
        self.next_stamp
    }

    /// Consumes the entry `(id, stamp)` if it is the valid one, removing the
    /// id from the frontier.
    fn take(&mut self, id: u64, stamp: u64) -> bool {
        if self.current.get(&id) == Some(&stamp) {
            self.current.remove(&id);
            true
        } else {
            false
        }
    }

    /// True if `(id, stamp)` is the valid entry for `id`, without consuming
    /// it.
    fn is_current(&self, id: u64, stamp: u64) -> bool {
        self.current.get(&id) == Some(&stamp)
    }

    fn len(&self) -> usize {
        self.current.len()
    }

    /// Captures the table for a canonical frontier snapshot (entries sorted
    /// by id, stamps renumbered by rank), together with the renumbering the
    /// frontier applies to its own entries.
    fn snapshot(&self) -> (LivenessSnapshot, Renumbering<'_>) {
        let mut stamps: Vec<u64> = self.current.values().copied().collect();
        stamps.sort_unstable();
        let rank: HashMap<u64, u64> =
            stamps.iter().zip(1..).map(|(stamp, rank)| (*stamp, rank)).collect();
        let mut current: Vec<(u64, u64)> =
            self.current.iter().map(|(id, stamp)| (*id, rank[stamp])).collect();
        current.sort_unstable();
        let snap = LivenessSnapshot { current, next_stamp: stamps.len() as u64 };
        (snap, Renumbering { live: self, rank })
    }

    /// Rebuilds the table from a snapshot.
    fn restore(snap: &LivenessSnapshot) -> Self {
        Liveness { current: snap.current.iter().copied().collect(), next_stamp: snap.next_stamp }
    }
}

/// Depth-first frontier: a LIFO stack, so the search always extends the most
/// recently forked state first.
#[derive(Debug, Default)]
pub struct DfsFrontier {
    stack: Vec<(u64, u64)>,
    live: Liveness,
}

impl DfsFrontier {
    /// Creates an empty DFS frontier.
    pub fn new() -> Self {
        DfsFrontier::default()
    }
}

impl SearchFrontier for DfsFrontier {
    fn push(&mut self, id: u64, _prio: &StatePriority) {
        let stamp = self.live.stamp(id);
        self.stack.push((stamp, id));
    }

    fn pop(&mut self) -> Option<u64> {
        while let Some((stamp, id)) = self.stack.pop() {
            if self.live.take(id, stamp) {
                return Some(id);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn snapshot(&self) -> FrontierSnapshot {
        let (live, renumber) = self.live.snapshot();
        FrontierSnapshot::Dfs { stack: renumber.ordered(self.stack.iter().copied()), live }
    }
}

/// Uniformly random frontier (KLEE's random-state search, not RandomPath;
/// see the module docs): `pop` draws one of the live states with equal
/// probability.
#[derive(Debug)]
pub struct RandomFrontier {
    ids: Vec<u64>,
    present: HashSet<u64>,
    rng: StdRng,
}

impl RandomFrontier {
    /// Creates an empty random frontier drawing from the given seed.
    pub fn new(seed: u64) -> Self {
        RandomFrontier {
            ids: Vec::new(),
            present: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SearchFrontier for RandomFrontier {
    fn push(&mut self, id: u64, _prio: &StatePriority) {
        if self.present.insert(id) {
            self.ids.push(id);
        }
    }

    fn pop(&mut self) -> Option<u64> {
        if self.ids.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.ids.len());
        let id = self.ids.swap_remove(i);
        self.present.remove(&id);
        Some(id)
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn snapshot(&self) -> FrontierSnapshot {
        // The id vector's order is load-bearing (`pop` indexes into it), so
        // it is captured verbatim, not sorted.
        FrontierSnapshot::Random { ids: self.ids.clone(), rng: rng_state(&self.rng) }
    }
}

/// Min-heap of `(key, inverted depth, stamp, state id)` entries.
type StateQueue = BinaryHeap<Reverse<(u64, u64, u64, u64)>>;

/// ESD's proximity-guided frontier (§3.4): one virtual priority queue per
/// goal target set, each ordered by the precomputed proximity key; `pop`
/// picks a queue uniformly at random and returns its closest state. Ties are
/// broken toward deeper states so the search keeps extending its most
/// advanced interleaving instead of sweeping breadth-first.
#[derive(Debug)]
pub struct ProximityFrontier {
    queues: Vec<StateQueue>,
    live: Liveness,
    rng: StdRng,
}

impl ProximityFrontier {
    /// Creates a frontier with `num_queues` virtual goal queues.
    pub fn new(num_queues: usize, seed: u64) -> Self {
        ProximityFrontier {
            queues: (0..num_queues.max(1)).map(|_| BinaryHeap::new()).collect(),
            live: Liveness::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SearchFrontier for ProximityFrontier {
    fn push(&mut self, id: u64, prio: &StatePriority) {
        debug_assert_eq!(prio.queue_keys.len(), self.queues.len(), "one key per virtual queue");
        let stamp = self.live.stamp(id);
        let depth_tiebreak = u64::MAX - prio.depth;
        for (queue, key) in self.queues.iter_mut().zip(&prio.queue_keys) {
            queue.push(Reverse((*key, depth_tiebreak, stamp, id)));
        }
    }

    fn pop(&mut self) -> Option<u64> {
        if self.live.len() == 0 {
            return None;
        }
        // Uniformly random queue, as in the paper. `push` gives every live
        // state a current-stamp entry in every queue, so skipping the
        // lazily-invalidated entries always reaches a live one.
        let qi = self.rng.gen_range(0..self.queues.len());
        while let Some(Reverse((_, _, stamp, id))) = self.queues[qi].pop() {
            if self.live.take(id, stamp) {
                return Some(id);
            }
        }
        unreachable!("a live state has an entry in every queue")
    }

    fn pop_with(&mut self, hot: &dyn HotState) -> Option<u64> {
        // `pop`'s draw. Had `hot` been pushed, every queue would hold a live
        // entry, so that first draw would always select.
        let qi = self.rng.gen_range(0..self.queues.len());
        let queue = &mut self.queues[qi];
        while let Some(Reverse((_, _, stamp, id))) = queue.peek() {
            if self.live.is_current(*id, *stamp) {
                break;
            }
            queue.pop();
        }
        // A pushed `hot` would carry the newest stamp, so the queued entry
        // wins ties on `(key, inverted depth)`.
        let hot_entry = (hot.queue_key(qi), u64::MAX - hot.depth());
        match queue.peek().map(|Reverse(top)| *top) {
            Some((key, depth, stamp, id)) if (key, depth) <= hot_entry => {
                queue.pop();
                self.live.take(id, stamp);
                // No other push comes between `pop`'s removal and this one,
                // so every stamp keeps its order relative to `hot`'s.
                self.push(hot.id(), &hot.priority());
                Some(id)
            }
            _ => Some(hot.id()),
        }
    }

    fn wants_priorities(&self) -> bool {
        true
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn snapshot(&self) -> FrontierSnapshot {
        let (live, renumber) = self.live.snapshot();
        FrontierSnapshot::Proximity {
            queues: self.queues.iter().map(|queue| renumber.heap(queue)).collect(),
            live,
            rng: rng_state(&self.rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prio(keys: &[u64], depth: u64) -> StatePriority {
        StatePriority { queue_keys: keys.to_vec(), depth }
    }

    #[test]
    fn frontier_kind_parses_and_displays() {
        for (s, k) in [
            ("dfs", FrontierKind::Dfs),
            ("RandomPath", FrontierKind::Random),
            ("esd", FrontierKind::Proximity),
            ("proximity", FrontierKind::Proximity),
        ] {
            assert_eq!(s.parse::<FrontierKind>().unwrap(), k);
        }
        // Unknown spellings, the removed breadth-first and batched frontiers'
        // included, are rejected.
        for s in ["weird", "bfs", "beam", "beam:16"] {
            assert!(s.parse::<FrontierKind>().is_err(), "{s} must be rejected");
        }
        assert_eq!(FrontierKind::Proximity.to_string(), "proximity");
        // Display round-trips through FromStr for every kind.
        for k in [FrontierKind::Dfs, FrontierKind::Random, FrontierKind::Proximity] {
            assert_eq!(k.to_string().parse::<FrontierKind>().unwrap(), k);
        }
    }

    #[test]
    fn dfs_pops_most_recent_first() {
        let mut f = DfsFrontier::new();
        for id in [1, 2, 3] {
            f.push(id, &prio(&[], 0));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(2));
        f.push(9, &prio(&[], 0));
        assert_eq!(f.pop(), Some(9));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn repush_supersedes_the_old_position() {
        // 1 is pushed first (bottom of the DFS stack), then re-pushed: it
        // must now pop before 2, and only once.
        let mut f = DfsFrontier::new();
        f.push(1, &prio(&[], 0));
        f.push(2, &prio(&[], 0));
        f.push(1, &prio(&[], 0));
        assert_eq!(f.len(), 2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn random_draws_every_state_exactly_once() {
        let mut f = RandomFrontier::new(7);
        for id in 0..50 {
            f.push(id, &prio(&[], 0));
        }
        let mut seen: Vec<u64> = (0..50).map(|_| f.pop().unwrap()).collect();
        assert_eq!(f.pop(), None);
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn proximity_prefers_lower_keys_and_deeper_ties() {
        let mut f = ProximityFrontier::new(1, 1);
        f.push(10, &prio(&[100], 5));
        f.push(11, &prio(&[3], 5));
        f.push(12, &prio(&[3], 50)); // same key, deeper → wins the tie
        assert_eq!(f.pop(), Some(12));
        assert_eq!(f.pop(), Some(11));
        assert_eq!(f.pop(), Some(10));
        assert_eq!(f.pop(), None);
        assert!(f.wants_priorities());
    }

    #[test]
    fn proximity_repush_updates_the_priority() {
        let mut f = ProximityFrontier::new(2, 1);
        f.push(1, &prio(&[50, 50], 0));
        f.push(2, &prio(&[40, 40], 0));
        // Promote 1 past 2 (the deadlock heuristic's snapshot promotion).
        f.push(1, &prio(&[0, 0], 0));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }
}
