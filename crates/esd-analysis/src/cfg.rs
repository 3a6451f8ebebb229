//! Per-function control-flow graphs.

use esd_ir::{BlockId, FuncId, Function};
use std::collections::VecDeque;

/// The control-flow graph of one function, in compressed sparse rows: the
/// successors of block `b` are `succ_edges[succ_start[b]..succ_start[b + 1]]`
/// (in branch order), and the predecessors likewise (in block order).
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The function this CFG describes.
    pub func: FuncId,
    succ_start: Vec<u32>,
    succ_edges: Vec<BlockId>,
    pred_start: Vec<u32>,
    pred_edges: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of `function`.
    pub fn build(function: &Function, func: FuncId) -> Self {
        let n = function.blocks.len();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ_edges = Vec::with_capacity(2 * n);
        let mut pred_start = vec![0u32; n + 1];
        succ_start.push(0);
        for block in &function.blocks {
            for s in block.term.successors() {
                succ_edges.push(s);
                pred_start[s.0 as usize + 1] += 1;
            }
            succ_start.push(succ_edges.len() as u32);
        }
        for b in 0..n {
            pred_start[b + 1] += pred_start[b];
        }
        // Fill each block's predecessor row in block order.
        let mut next = pred_start.clone();
        let mut pred_edges = vec![BlockId(0); succ_edges.len()];
        for b in 0..n {
            for s in &succ_edges[succ_start[b] as usize..succ_start[b + 1] as usize] {
                let slot = &mut next[s.0 as usize];
                pred_edges[*slot as usize] = BlockId(b as u32);
                *slot += 1;
            }
        }
        Cfg { func, succ_start, succ_edges, pred_start, pred_edges }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succ_start.len() - 1
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.succ_edges[self.succ_start[b] as usize..self.succ_start[b + 1] as usize]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.pred_edges[self.pred_start[b] as usize..self.pred_start[b + 1] as usize]
    }

    /// Blocks reachable from the entry block (block 0), including entry.
    pub fn reachable_from_entry(&self) -> Vec<bool> {
        self.forward_reachable(BlockId(0))
    }

    /// Blocks reachable from `start` by following successor edges
    /// (including `start` itself).
    pub fn forward_reachable(&self, start: BlockId) -> Vec<bool> {
        let mut seen = vec![false; self.num_blocks()];
        let mut queue = VecDeque::new();
        seen[start.0 as usize] = true;
        queue.push_back(start);
        while let Some(b) = queue.pop_front() {
            for s in self.succs(b) {
                if !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    queue.push_back(*s);
                }
            }
        }
        seen
    }

    /// Blocks from which `target` is reachable (including `target` itself) —
    /// the backward reachability set used both to prune blocks "from which
    /// there is no path to B" and to decide which outgoing edges of a branch
    /// can lead to the goal (critical edges).
    pub fn can_reach(&self, target: BlockId) -> Vec<bool> {
        let mut seen = vec![false; self.num_blocks()];
        let mut queue = VecDeque::new();
        seen[target.0 as usize] = true;
        queue.push_back(target);
        while let Some(b) = queue.pop_front() {
            for p in self.preds(b) {
                if !seen[p.0 as usize] {
                    seen[p.0 as usize] = true;
                    queue.push_back(*p);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_ir::{CmpOp, ProgramBuilder};

    fn diamond() -> (esd_ir::Program, FuncId) {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let x = f.getchar();
            let c = f.cmp(CmpOp::Eq, x, 1);
            let a = f.new_block("a");
            let b = f.new_block("b");
            let join = f.new_block("join");
            let dead = f.new_block("dead");
            f.cond_br(c, a, b);
            f.switch_to(a);
            f.br(join);
            f.switch_to(b);
            f.br(join);
            f.switch_to(join);
            f.ret_void();
            f.switch_to(dead);
            f.ret_void();
        });
        let p = pb.finish("main");
        let e = p.entry;
        (p, e)
    }

    #[test]
    fn diamond_edges_are_correct() {
        let (p, f) = diamond();
        let cfg = Cfg::build(p.func(f), f);
        assert_eq!(cfg.num_blocks(), 5);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert!(cfg.succs(BlockId(3)).is_empty());
    }

    #[test]
    fn reachability_excludes_dead_blocks() {
        let (p, f) = diamond();
        let cfg = Cfg::build(p.func(f), f);
        let reach = cfg.reachable_from_entry();
        assert!(reach[0] && reach[1] && reach[2] && reach[3]);
        assert!(!reach[4], "the dead block must be unreachable");
    }

    #[test]
    fn backward_reachability_finds_all_paths_to_target() {
        let (p, f) = diamond();
        let cfg = Cfg::build(p.func(f), f);
        let to_join = cfg.can_reach(BlockId(3));
        assert!(to_join[0] && to_join[1] && to_join[2] && to_join[3]);
        assert!(!to_join[4]);
        let to_a = cfg.can_reach(BlockId(1));
        assert!(to_a[0] && to_a[1]);
        assert!(!to_a[2] && !to_a[3]);
    }
}
