//! Resource-allocation-graph deadlock detection.
//!
//! The graph has thread nodes and mutex nodes; a thread points to the mutex
//! it waits for, and a mutex points to the thread holding it. A cycle is a
//! deadlock. Because every mutex has at most one holder and every thread
//! waits for at most one mutex, cycle detection reduces to following the
//! single outgoing "wait → holder → wait → …" chain from each blocked thread.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

/// The wait/hold relation at one instant.
///
/// `T` identifies threads and `M` identifies mutexes (the engine uses
/// `ThreadId` and pointer addresses).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WaitGraph<T: Eq + Hash + Copy, M: Eq + Hash + Copy> {
    /// For each blocked thread, the mutex it is waiting to acquire.
    pub waits_for: HashMap<T, M>,
    /// For each held mutex, the thread holding it.
    pub held_by: HashMap<M, T>,
}

impl<T: Eq + Hash + Copy, M: Eq + Hash + Copy> WaitGraph<T, M> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WaitGraph { waits_for: HashMap::new(), held_by: HashMap::new() }
    }

    /// Records that `thread` is blocked acquiring `mutex`.
    pub fn wait(&mut self, thread: T, mutex: M) {
        self.waits_for.insert(thread, mutex);
    }

    /// Records that `mutex` is held by `thread`.
    pub fn hold(&mut self, mutex: M, thread: T) {
        self.held_by.insert(mutex, thread);
    }

    /// Returns the threads forming a wait cycle, if one exists. The returned
    /// list contains each thread of the cycle exactly once, starting at an
    /// arbitrary member.
    pub fn find_cycle(&self) -> Option<Vec<T>> {
        for start in self.waits_for.keys() {
            let mut chain = vec![*start];
            let mut cur = *start;
            while let Some(mutex) = self.waits_for.get(&cur) {
                let Some(holder) = self.held_by.get(mutex) else { break };
                if *holder == *start {
                    return Some(chain);
                }
                if chain.contains(holder) {
                    // A cycle not involving `start`; it will be found when
                    // iteration reaches one of its members.
                    break;
                }
                chain.push(*holder);
                cur = *holder;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_thread_ab_ba_cycle_is_found() {
        let mut g: WaitGraph<u32, &str> = WaitGraph::new();
        g.hold("A", 1);
        g.hold("B", 2);
        g.wait(1, "B");
        g.wait(2, "A");
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&1) && cycle.contains(&2));
    }

    #[test]
    fn three_thread_cycle_is_found() {
        let mut g: WaitGraph<u32, u32> = WaitGraph::new();
        g.hold(10, 1);
        g.hold(20, 2);
        g.hold(30, 3);
        g.wait(1, 20);
        g.wait(2, 30);
        g.wait(3, 10);
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn waiting_without_cycle_is_not_a_deadlock() {
        let mut g: WaitGraph<u32, u32> = WaitGraph::new();
        g.hold(10, 1);
        g.wait(2, 10); // 2 waits for 1, but 1 waits for nothing
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn self_deadlock_is_a_cycle_of_one() {
        let mut g: WaitGraph<u32, u32> = WaitGraph::new();
        g.hold(10, 1);
        g.wait(1, 10);
        let cycle = g.find_cycle().expect("self cycle");
        assert_eq!(cycle, vec![1]);
    }

    #[test]
    fn unrelated_threads_do_not_join_the_cycle() {
        let mut g: WaitGraph<u32, u32> = WaitGraph::new();
        g.hold(10, 1);
        g.hold(20, 2);
        g.wait(1, 20);
        g.wait(2, 10);
        g.hold(30, 3);
        g.wait(4, 30);
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(!cycle.contains(&3) && !cycle.contains(&4));
    }

    #[test]
    fn removing_a_wait_breaks_the_cycle() {
        let mut g: WaitGraph<u32, &str> = WaitGraph::new();
        g.hold("A", 1);
        g.hold("B", 2);
        g.wait(1, "B");
        g.wait(2, "A");
        assert!(g.find_cycle().is_some());
        g.waits_for.remove(&2);
        assert!(g.find_cycle().is_none());
    }
}
