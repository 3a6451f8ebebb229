//! A persistent (copy-on-write) hash map with O(1) clone.
//!
//! Execution synthesis forks execution states at every symbolic branch and
//! every interesting scheduling decision, and each forked interleaving must
//! carry its *own* concurrency-analysis state (candidate locksets, reported
//! race pairs, …). Cloning a `std::collections::HashMap` on every fork would
//! turn the engine's O(1) fork into an O(analysis-size) one, so the analyses
//! store their per-word state in this hash-array-mapped trie instead: nodes
//! are shared between clones through [`Arc`], and cloning copies one pointer.
//! Writes go through [`Arc::make_mut`], so a node is mutated **in place**
//! while it is uniquely owned and copied only when a clone actually shares it
//! — an un-forked map updates as cheaply as a plain hash map (no
//! allocations), and after a fork the first write to a shared path copies
//! just the O(log n) nodes on the route from the root to the touched leaf.
//! Siblings therefore share everything they have not diverged on, mirroring
//! what the engine's copy-on-write symbolic memory does for heap objects.
//!
//! The map deliberately supports only the operations the analyses need:
//! insert, lookup (shared and mutable), length and iteration. Removal is not
//! needed (analysis state only grows along a path) and is omitted to keep
//! the structure small.

use serde::{DeError, Deserialize, Serialize, Writer};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Bits of the key hash consumed per trie level.
const BITS: u32 = 4;
/// Fan-out of a branch node (`2^BITS`).
const WIDTH: usize = 1 << BITS;
/// Mask extracting one chunk of the hash.
const MASK: u64 = (WIDTH as u64) - 1;

/// One trie node: either a bucket of entries whose keys share a full 64-bit
/// hash, or a 16-way branch on the next hash chunk.
#[derive(Debug, Clone)]
enum Node<K, V> {
    /// Entries whose keys all hash to `hash` (almost always exactly one).
    Leaf { hash: u64, entries: Vec<(K, V)> },
    /// Children indexed by the hash chunk at this node's depth.
    Branch { children: [Option<Arc<Node<K, V>>>; WIDTH] },
}

/// A persistent hash map: `clone` is O(1) and never observes later writes to
/// the original (nor vice versa).
#[derive(Debug)]
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap { root: self.root.clone(), len: self.len }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn chunk(hash: u64, depth: u32) -> usize {
    ((hash >> (depth * BITS)) & MASK) as usize
}

impl<K, V> PMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter { stack: self.root.iter().map(|n| &**n).collect(), leaf: [].iter() }
    }
}

impl<K: Eq + Hash, V> PMap<K, V> {
    /// Returns the value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_of(key);
        let mut node = self.root.as_deref()?;
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf { hash: lh, entries } => {
                    return if *lh == hash {
                        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                    } else {
                        None
                    };
                }
                Node::Branch { children } => {
                    node = children[chunk(hash, depth)].as_deref()?;
                    depth += 1;
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> PMap<K, V> {
    /// Inserts `key → value`, returning the previous value if the key was
    /// already present. Nodes uniquely owned by this map are mutated in
    /// place; nodes shared with clones are copied first ([`Arc::make_mut`]),
    /// so at most the O(log n) shared nodes on the path to the affected leaf
    /// are duplicated and everything else stays shared.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_of(&key);
        let old = match &mut self.root {
            Some(node) => Self::insert_mut(node, 0, hash, key, value),
            None => {
                self.root = Some(Arc::new(Node::Leaf { hash, entries: vec![(key, value)] }));
                None
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_mut(
        node: &mut Arc<Node<K, V>>,
        depth: u32,
        hash: u64,
        key: K,
        value: V,
    ) -> Option<V> {
        // A leaf whose hash diverges splits first: it moves down one level
        // under a fresh branch (an Arc move, not a data copy), and insertion
        // continues into that branch — recursing until the hash chunks
        // differ, which they must at some level because the full hashes do.
        if let Node::Leaf { hash: lh, .. } = &**node {
            if *lh != hash {
                let mut children: [Option<Arc<Node<K, V>>>; WIDTH] = Default::default();
                children[chunk(*lh, depth)] = Some(node.clone());
                *node = Arc::new(Node::Branch { children });
            }
        }
        match Arc::make_mut(node) {
            Node::Leaf { entries, .. } => {
                if let Some(entry) = entries.iter_mut().find(|(k, _)| *k == key) {
                    return Some(std::mem::replace(&mut entry.1, value));
                }
                entries.push((key, value));
                None
            }
            Node::Branch { children } => {
                let idx = chunk(hash, depth);
                match &mut children[idx] {
                    Some(child) => Self::insert_mut(child, depth + 1, hash, key, value),
                    empty => {
                        *empty = Some(Arc::new(Node::Leaf { hash, entries: vec![(key, value)] }));
                        None
                    }
                }
            }
        }
    }

    /// Returns a mutable reference to the value under `key`, copying any
    /// nodes on its path that are shared with clones (and, like
    /// [`PMap::insert`], mutating in place the ones that are not). Returns
    /// `None` — without restructuring anything — if the key is absent.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        let hash = hash_of(key);
        Self::get_mut_rec(self.root.as_mut()?, 0, hash, key)
    }

    fn get_mut_rec<'a>(
        node: &'a mut Arc<Node<K, V>>,
        depth: u32,
        hash: u64,
        key: &K,
    ) -> Option<&'a mut V> {
        match Arc::make_mut(node) {
            Node::Leaf { hash: lh, entries } => {
                if *lh != hash {
                    return None;
                }
                entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            Node::Branch { children } => {
                let idx = chunk(hash, depth);
                Self::get_mut_rec(children[idx].as_mut()?, depth + 1, hash, key)
            }
        }
    }
}

/// Serializes like the shim's `HashMap`: an array of `[key, value]` pairs in
/// the canonical order of unordered containers, so the output is
/// deterministic no matter what trie shape or iteration order produced it.
impl<K: Serialize, V: Serialize> Serialize for PMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.unordered_map(self.iter());
    }
}

/// Rebuilds by insertion; the result is content-equal to the serialized map
/// (trie shape may differ, which no operation observes).
impl<K: Deserialize + Eq + Hash + Clone, V: Deserialize + Clone> Deserialize for PMap<K, V> {
    fn deserialize(v: serde::Node<'_, '_>) -> Result<Self, DeError> {
        let mut map = PMap::new();
        for (k, val) in serde::deserialize_pairs(v)? {
            map.insert(k, val);
        }
        Ok(map)
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for PMap<K, V> {}

/// Iterator over a [`PMap`]'s entries, in unspecified order.
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            match self.stack.pop()? {
                Node::Leaf { entries, .. } => self.leaf = entries.iter(),
                Node::Branch { children } => {
                    self.stack.extend(children.iter().flatten().map(|n| &**n));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_len() {
        let mut m: PMap<u64, String> = PMap::new();
        assert!(m.is_empty());
        for i in 0..500u64 {
            assert_eq!(m.insert(i, format!("v{i}")), None);
        }
        assert_eq!(m.len(), 500);
        for i in 0..500u64 {
            assert_eq!(m.get(&i).map(String::as_str), Some(format!("v{i}").as_str()));
        }
        assert_eq!(m.get(&9999), None);
        assert!(!m.contains_key(&9999));
    }

    #[test]
    fn insert_replaces_and_returns_the_old_value() {
        let mut m: PMap<&str, i64> = PMap::new();
        assert_eq!(m.insert("k", 1), None);
        assert_eq!(m.insert("k", 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&"k"), Some(&2));
    }

    #[test]
    fn clones_are_fully_independent() {
        let mut parent: PMap<u64, u64> = PMap::new();
        for i in 0..100 {
            parent.insert(i, i * 10);
        }
        let snapshot = parent.clone();
        let mut child = parent.clone();
        for i in 50..150 {
            child.insert(i, i * 1000);
        }
        // The parent (and the earlier snapshot) never observe the child's
        // writes…
        assert_eq!(parent, snapshot);
        assert_eq!(parent.len(), 100);
        assert_eq!(parent.get(&75), Some(&750));
        // …and the child sees its own.
        assert_eq!(child.len(), 150);
        assert_eq!(child.get(&75), Some(&75_000));
        // Writes to the parent after the fork are equally invisible.
        parent.insert(2, 42);
        assert_eq!(child.get(&2), Some(&20));
    }

    #[test]
    fn get_mut_updates_in_place_and_respects_clones() {
        let mut m: PMap<u64, u64> = PMap::new();
        for i in 0..50 {
            m.insert(i, i);
        }
        let snapshot = m.clone();
        *m.get_mut(&7).unwrap() = 700;
        assert_eq!(m.get(&7), Some(&700));
        assert_eq!(snapshot.get(&7), Some(&7), "clones never see get_mut writes");
        assert!(m.get_mut(&999).is_none());
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn iteration_visits_every_entry_once() {
        let mut m: PMap<u64, u64> = PMap::new();
        for i in 0..321 {
            m.insert(i, i);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..321).collect::<Vec<_>>());
    }

    /// A key whose hash is constant: every entry lands in one leaf bucket,
    /// exercising the equal-full-hash collision path.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            0u64.hash(state);
        }
    }

    #[test]
    fn full_hash_collisions_share_a_bucket_correctly() {
        let mut m: PMap<Colliding, u32> = PMap::new();
        for i in 0..20 {
            m.insert(Colliding(i), i);
        }
        assert_eq!(m.len(), 20);
        for i in 0..20 {
            assert_eq!(m.get(&Colliding(i)), Some(&i));
        }
        assert_eq!(m.insert(Colliding(7), 700), Some(7));
        assert_eq!(m.len(), 20);
    }

    #[test]
    fn serialization_is_canonical_and_roundtrips() {
        let mut a: PMap<u64, u64> = PMap::new();
        let mut b: PMap<u64, u64> = PMap::new();
        for i in 0..64 {
            a.insert(i, i * 3);
        }
        for i in (0..64).rev() {
            b.insert(i, i * 3);
        }
        // Same content, different insertion order ⇒ byte-identical output.
        let ja = serde_json::to_string(&a).unwrap();
        assert_eq!(ja, serde_json::to_string(&b).unwrap());
        let back: PMap<u64, u64> = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, a);
        assert_eq!(serde_json::to_string(&back).unwrap(), ja);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a: PMap<u64, u64> = PMap::new();
        let mut b: PMap<u64, u64> = PMap::new();
        for i in 0..64 {
            a.insert(i, i);
        }
        for i in (0..64).rev() {
            b.insert(i, i);
        }
        assert_eq!(a, b);
        b.insert(63, 0);
        assert_ne!(a, b);
    }
}
