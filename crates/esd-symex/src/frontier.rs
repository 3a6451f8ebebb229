//! Pluggable search frontiers: the engine's worklist of execution states.
//!
//! The search engine repeatedly *pops* a state from the frontier, advances it
//! by a burst of up to 32 micro-steps (one under race detection and the KC
//! baseline), and *pushes* it back along with the states it forked. Which state the frontier hands back next is the search strategy —
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
//! * [`BfsFrontier`] — breadth-first: the frontier is a FIFO, so exploration
//!   sweeps the whole state tree level by level. Not in the paper; useful as
//!   a fairness baseline when comparing frontiers in `esd-bench`.
//! * [`RandomFrontier`] — uniformly random among live states (Klee's
//!   RandomPath searcher, the second KC baseline).
//! * [`BeamFrontier`] — batched proximity search: selection picks the `k`
//!   closest states at once and advances each of them before re-selecting.
//!   Not in the paper; a batched frontier that commits to `k` states per
//!   selection.
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
//! selection, [`SearchFrontier::pop_batch_with`], which must decide exactly
//! what a `push` of it followed by [`SearchFrontier::pop_batch`] would have
//! decided. The default does that push and pop. [`ProximityFrontier`]
//! compares the hot state with the top of the one queue it draws, and pushes
//! it (computing its keys for every queue) only when it loses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// The beam width [`FrontierKind::Beam`] uses when none is given explicitly
/// (`"beam"` parses to this width).
pub const DEFAULT_BEAM_WIDTH: usize = 8;

/// Which [`SearchFrontier`] implementation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FrontierKind {
    /// Depth-first search ([`DfsFrontier`]).
    Dfs,
    /// Breadth-first search ([`BfsFrontier`]).
    Bfs,
    /// Uniformly random among live states ([`RandomFrontier`]).
    Random,
    /// ESD's proximity-guided virtual queues ([`ProximityFrontier`]).
    #[default]
    Proximity,
    /// Batched proximity search ([`BeamFrontier`]): advance the `width`
    /// closest states per selection.
    Beam {
        /// How many states each selection batch advances.
        width: usize,
    },
}

impl FrontierKind {
    /// The beam frontier at its default width.
    pub fn beam() -> Self {
        FrontierKind::Beam { width: DEFAULT_BEAM_WIDTH }
    }

    /// Instantiates the frontier. `seed` seeds the stochastic frontiers
    /// ([`FrontierKind::Random`] and [`FrontierKind::Proximity`]);
    /// `num_queues` is the number of virtual goal queues the engine
    /// maintains (intermediate goals + the final goal), which only the
    /// proximity frontier uses.
    pub fn build(self, seed: u64, num_queues: usize) -> Box<dyn SearchFrontier> {
        match self {
            FrontierKind::Dfs => Box::new(DfsFrontier::new()),
            FrontierKind::Bfs => Box::new(BfsFrontier::new()),
            FrontierKind::Random => Box::new(RandomFrontier::new(seed)),
            FrontierKind::Proximity => Box::new(ProximityFrontier::new(num_queues, seed)),
            FrontierKind::Beam { width } => Box::new(BeamFrontier::new(width)),
        }
    }
}

impl std::str::FromStr for FrontierKind {
    type Err = String;

    /// Parses `"dfs"`, `"bfs"`, `"random"` / `"randompath"`, `"proximity"` /
    /// `"esd"`, or `"beam"` / `"beam:<width>"` (case-insensitive) — the
    /// spellings accepted by the `esd-bench` binaries and `ESD_FRONTIER`
    /// environment variable.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(width) = lower.strip_prefix("beam:") {
            return match width.parse::<usize>() {
                Ok(w) if w > 0 => Ok(FrontierKind::Beam { width: w }),
                _ => Err(format!("beam width {width:?} must be a positive integer")),
            };
        }
        match lower.as_str() {
            "dfs" => Ok(FrontierKind::Dfs),
            "bfs" => Ok(FrontierKind::Bfs),
            "random" | "randompath" => Ok(FrontierKind::Random),
            "proximity" | "esd" => Ok(FrontierKind::Proximity),
            "beam" => Ok(FrontierKind::beam()),
            other => Err(format!(
                "unknown frontier {other:?} (expected dfs|bfs|random|proximity|beam[:width])"
            )),
        }
    }
}

impl std::fmt::Display for FrontierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierKind::Dfs => f.write_str("dfs"),
            FrontierKind::Bfs => f.write_str("bfs"),
            FrontierKind::Random => f.write_str("random"),
            FrontierKind::Proximity => f.write_str("proximity"),
            FrontierKind::Beam { width } if *width == DEFAULT_BEAM_WIDTH => f.write_str("beam"),
            FrontierKind::Beam { width } => write!(f, "beam:{width}"),
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

    /// Removes and returns the next *batch* of states to advance: every
    /// state of a batch is advanced before the frontier is consulted again.
    ///
    /// The default implementation returns a batch of at most one state
    /// (`pop()`), which is what the single-state frontiers want; the
    /// [`BeamFrontier`] overrides it to hand back its whole beam at once.
    /// The returned ids are removed from the frontier, and their order is
    /// deterministic: the engine merges batch results in exactly this order.
    fn pop_batch(&mut self) -> Vec<u64> {
        self.pop().into_iter().collect()
    }

    /// Selects the next batch as if `hot` had been pushed just before
    /// [`pop_batch`](SearchFrontier::pop_batch): the same ids in the same
    /// order, leaving a frontier with an equal
    /// [`snapshot`](SearchFrontier::snapshot). `hot` ends up in the frontier
    /// exactly when the batch does not contain it.
    ///
    /// The default does exactly that push and pop; [`ProximityFrontier`]
    /// overrides it to push `hot` only when another state is selected.
    fn pop_batch_with(&mut self, hot: &dyn HotState) -> Vec<u64> {
        self.push(hot.id(), &hot.priority());
        self.pop_batch()
    }

    /// True if this frontier consumes [`StatePriority::queue_keys`]; the
    /// engine skips the per-goal proximity computation otherwise.
    fn wants_priorities(&self) -> bool {
        false
    }

    /// True if the frontier consumes one key *per virtual goal queue*
    /// (intermediate goals and final goal). When false — and
    /// [`wants_priorities`](SearchFrontier::wants_priorities) is true — the
    /// engine computes only the final-goal key and pushes
    /// `queue_keys == [final_key]`, skipping the per-intermediate-goal
    /// proximity scans.
    fn wants_intermediate_priorities(&self) -> bool {
        true
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
/// Ordered containers (the DFS stack, the BFS queue, a committed beam, the
/// random frontier's id vector) keep their order — it *is* the search order.
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
    /// Image of a [`BfsFrontier`].
    Bfs {
        /// The FIFO queue of `(stamp, id)` entries, front first.
        queue: Vec<(u64, u64)>,
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
    /// Image of a [`BeamFrontier`].
    Beam {
        /// States advanced per selection.
        width: u64,
        /// Heap entries `(key, inverted depth, stamp, id)`, sorted ascending.
        heap: Vec<(u64, u64, u64, u64)>,
        /// The committed, partially drained beam of `(stamp, id)` entries,
        /// front first.
        beam: Vec<(u64, u64)>,
        /// The lazy-invalidation table.
        live: LivenessSnapshot,
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
            FrontierSnapshot::Bfs { queue, live } => Box::new(BfsFrontier {
                queue: queue.iter().copied().collect(),
                live: Liveness::restore(live),
            }),
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
            FrontierSnapshot::Beam { width, heap, beam, live } => Box::new(BeamFrontier {
                width: (*width as usize).max(1),
                heap: heap.iter().map(|e| Reverse(*e)).collect(),
                beam: beam.iter().copied().collect(),
                live: Liveness::restore(live),
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
    /// it (used when moving entries between internal containers).
    fn is_current(&self, id: u64, stamp: u64) -> bool {
        self.current.get(&id) == Some(&stamp)
    }

    /// Removes and returns an arbitrary live id — the degraded fallback for
    /// the case where a frontier's internal containers only hold stale
    /// entries for ids that are still live (unreachable while the push/pop
    /// invariants hold).
    fn take_any(&mut self) -> Option<u64> {
        let id = *self.current.keys().next()?;
        self.current.remove(&id);
        Some(id)
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

/// Breadth-first frontier: a FIFO queue, so states are advanced in the order
/// they were created and the state tree is swept level by level.
#[derive(Debug, Default)]
pub struct BfsFrontier {
    queue: VecDeque<(u64, u64)>,
    live: Liveness,
}

impl BfsFrontier {
    /// Creates an empty BFS frontier.
    pub fn new() -> Self {
        BfsFrontier::default()
    }
}

impl SearchFrontier for BfsFrontier {
    fn push(&mut self, id: u64, _prio: &StatePriority) {
        let stamp = self.live.stamp(id);
        self.queue.push_back((stamp, id));
    }

    fn pop(&mut self) -> Option<u64> {
        while let Some((stamp, id)) = self.queue.pop_front() {
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
        FrontierSnapshot::Bfs { queue: renumber.ordered(self.queue.iter().copied()), live }
    }
}

/// Uniformly random frontier (Klee's RandomPath searcher): `pop` draws one of
/// the live states with equal probability.
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
        // Uniformly random queue, as in the paper; skip lazily-invalidated
        // entries until a live, current-stamp one appears.
        for _ in 0..self.queues.len() * 4 {
            let qi = self.rng.gen_range(0..self.queues.len());
            while let Some(Reverse((_, _, stamp, id))) = self.queues[qi].pop() {
                if self.live.take(id, stamp) {
                    return Some(id);
                }
            }
        }
        // Every sampled queue drained stale: fall back to any live state.
        self.live.take_any()
    }

    fn pop_batch_with(&mut self, hot: &dyn HotState) -> Vec<u64> {
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
                vec![id]
            }
            _ => vec![hot.id()],
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

/// Batched proximity frontier: selection draws the `width` states with the
/// lowest *final-goal* priority key into a beam, and `pop` drains the beam
/// before re-selecting. Every state of a beam is therefore advanced once per
/// selection — the ROADMAP's "advance k states per selection" batched
/// frontier. Compared to [`ProximityFrontier`] it trades selection sharpness
/// (the beam is not re-ranked after each micro-step) for selection work that
/// is amortized over `width` states.
#[derive(Debug)]
pub struct BeamFrontier {
    width: usize,
    heap: StateQueue,
    /// The current beam, drained by `pop`; entries carry their stamp so a
    /// re-push while beamed (a priority promotion) invalidates them here too.
    beam: VecDeque<(u64, u64)>,
    live: Liveness,
}

impl BeamFrontier {
    /// Creates an empty beam frontier advancing `width` states per selection.
    pub fn new(width: usize) -> Self {
        BeamFrontier {
            width: width.max(1),
            heap: BinaryHeap::new(),
            beam: VecDeque::new(),
            live: Liveness::default(),
        }
    }

    /// Moves the `width` best live entries from the heap into the beam.
    fn refill(&mut self) {
        while self.beam.len() < self.width {
            match self.heap.pop() {
                Some(Reverse((_, _, stamp, id))) => {
                    // Stale entries (superseded by a later push) are dropped;
                    // live ones keep their stamp and stay live while beamed.
                    if self.live.is_current(id, stamp) {
                        self.beam.push_back((stamp, id));
                    }
                }
                None => break,
            }
        }
    }

    /// Takes the next live entry out of the current beam, skipping entries
    /// invalidated by a re-push since they were beamed.
    fn drain_one(&mut self) -> Option<u64> {
        while let Some((stamp, id)) = self.beam.pop_front() {
            if self.live.take(id, stamp) {
                return Some(id);
            }
        }
        None
    }
}

impl SearchFrontier for BeamFrontier {
    fn push(&mut self, id: u64, prio: &StatePriority) {
        // Order by the final-goal key only (the last — and, since this
        // frontier opts out of intermediate priorities, only — queue key):
        // the beam is a batch of the states globally closest to the
        // reported failure.
        let key = prio.queue_keys.last().copied().unwrap_or(0);
        let stamp = self.live.stamp(id);
        self.heap.push(Reverse((key, u64::MAX - prio.depth, stamp, id)));
    }

    fn pop(&mut self) -> Option<u64> {
        loop {
            if let Some(id) = self.drain_one() {
                return Some(id);
            }
            if self.live.len() == 0 {
                return None;
            }
            self.refill();
            if self.beam.is_empty() {
                // Every heap entry was stale but live states remain: degrade
                // to any live state rather than stalling the search.
                return self.live.take_any();
            }
        }
    }

    fn pop_batch(&mut self) -> Vec<u64> {
        // Hand the whole beam over as one batch: select (refill) the `width`
        // closest live states and return them all, preserving the selection
        // order `pop` would have drained them in.
        let mut batch = Vec::new();
        loop {
            while let Some(id) = self.drain_one() {
                batch.push(id);
            }
            if !batch.is_empty() || self.live.len() == 0 {
                return batch;
            }
            self.refill();
            if self.beam.is_empty() {
                // Every heap entry was stale but live states remain: degrade
                // to any live state rather than stalling the search.
                batch.extend(self.live.take_any());
                return batch;
            }
        }
    }

    fn wants_priorities(&self) -> bool {
        true
    }

    fn wants_intermediate_priorities(&self) -> bool {
        // Only the final-goal key is consumed; let the engine skip the
        // per-intermediate-goal proximity scans.
        false
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn snapshot(&self) -> FrontierSnapshot {
        let (live, renumber) = self.live.snapshot();
        FrontierSnapshot::Beam {
            width: self.width as u64,
            heap: renumber.heap(&self.heap),
            beam: renumber.ordered(self.beam.iter().copied()),
            live,
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
            ("BFS", FrontierKind::Bfs),
            ("RandomPath", FrontierKind::Random),
            ("esd", FrontierKind::Proximity),
            ("proximity", FrontierKind::Proximity),
            ("beam", FrontierKind::Beam { width: DEFAULT_BEAM_WIDTH }),
            ("beam:4", FrontierKind::Beam { width: 4 }),
        ] {
            assert_eq!(s.parse::<FrontierKind>().unwrap(), k);
        }
        assert!("weird".parse::<FrontierKind>().is_err());
        assert!("beam:0".parse::<FrontierKind>().is_err());
        assert!("beam:x".parse::<FrontierKind>().is_err());
        assert_eq!(FrontierKind::Proximity.to_string(), "proximity");
        assert_eq!(FrontierKind::beam().to_string(), "beam");
        assert_eq!(FrontierKind::Beam { width: 16 }.to_string(), "beam:16");
        // Display round-trips through FromStr for every kind.
        for k in [FrontierKind::beam(), FrontierKind::Beam { width: 3 }, FrontierKind::Dfs] {
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
    fn bfs_pops_oldest_first() {
        let mut f = BfsFrontier::new();
        for id in [1, 2, 3] {
            f.push(id, &prio(&[], 0));
        }
        assert_eq!(f.pop(), Some(1));
        f.push(9, &prio(&[], 0));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(9));
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
    fn beam_advances_the_selected_batch_before_reselecting() {
        let mut f = BeamFrontier::new(2);
        f.push(1, &prio(&[10], 0));
        f.push(2, &prio(&[20], 0));
        f.push(3, &prio(&[30], 0));
        // The first selection beams {1, 2} (the two lowest keys).
        assert_eq!(f.pop(), Some(1));
        // A closer state arriving mid-beam must wait for the next selection —
        // the batch is committed.
        f.push(4, &prio(&[0], 0));
        assert_eq!(f.pop(), Some(2));
        // Next selection re-ranks: {4, 3}.
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
        assert!(f.wants_priorities());
    }

    #[test]
    fn beam_repush_supersedes_even_inside_the_beam() {
        let mut f = BeamFrontier::new(4);
        f.push(1, &prio(&[10], 0));
        f.push(2, &prio(&[20], 0));
        // Both are beamed by the first selection; re-pushing 2 while it is
        // beamed must not make it pop twice.
        assert_eq!(f.pop(), Some(1));
        f.push(2, &prio(&[5], 0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn pop_batch_drains_the_whole_beam_at_once() {
        let mut f = BeamFrontier::new(2);
        f.push(1, &prio(&[10], 0));
        f.push(2, &prio(&[20], 0));
        f.push(3, &prio(&[30], 0));
        assert_eq!(f.pop_batch(), vec![1, 2]);
        assert_eq!(f.pop_batch(), vec![3]);
        assert!(f.pop_batch().is_empty());
        // Single-state frontiers batch one state at a time (the default).
        let mut d = DfsFrontier::new();
        d.push(1, &prio(&[], 0));
        d.push(2, &prio(&[], 0));
        assert_eq!(d.pop_batch(), vec![2]);
        assert_eq!(d.pop_batch(), vec![1]);
        assert!(d.pop_batch().is_empty());
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
