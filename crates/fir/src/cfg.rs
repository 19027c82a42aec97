//! Control-flow-graph analyses over FIR functions.
//!
//! Used by the coverage pass (edge enumeration) and by the verifier-adjacent
//! diagnostics (unreachable-block detection).

use std::collections::{HashMap, HashSet, VecDeque};

use crate::inst::BlockId;
use crate::module::Function;

/// Predecessor map: for each block, the blocks that branch to it.
pub fn predecessors(f: &Function) -> HashMap<BlockId, Vec<BlockId>> {
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for s in b.term.successors() {
            preds.entry(s).or_default().push(BlockId(bi as u32));
        }
    }
    preds
}

/// Blocks reachable from the entry, in breadth-first order.
pub fn reachable_blocks(f: &Function) -> Vec<BlockId> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    q.push_back(f.entry());
    seen.insert(f.entry());
    while let Some(b) = q.pop_front() {
        order.push(b);
        for s in f.blocks[b.0 as usize].term.successors() {
            if seen.insert(s) {
                q.push_back(s);
            }
        }
    }
    order
}

/// Blocks not reachable from the entry (dead code diagnostics).
pub fn unreachable_blocks(f: &Function) -> Vec<BlockId> {
    let reach: HashSet<BlockId> = reachable_blocks(f).into_iter().collect();
    (0..f.blocks.len() as u32)
        .map(BlockId)
        .filter(|b| !reach.contains(b))
        .collect()
}

/// All CFG edges `(from, to)` of a function.
pub fn edges(f: &Function) -> Vec<(BlockId, BlockId)> {
    let mut es = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for s in b.term.successors() {
            es.push((BlockId(bi as u32), s));
        }
    }
    es
}

/// Blocks that sit on a CFG cycle (i.e. can reach themselves), as a
/// per-block flag. These are the "hot" blocks for decode-time optimization
/// heuristics: anything on a cycle may execute an unbounded number of
/// times per call.
///
/// One iterative Tarjan strongly-connected-components walk from every
/// unvisited block (so unreachable blocks are classified too), linear in
/// blocks plus edges: a block is on a cycle exactly when its component
/// has more than one block or it branches to itself.
pub fn loop_blocks(f: &Function) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = f.blocks.len();
    let succs = |b: usize| f.blocks[b].term.successors().map(|s| s.0 as usize);
    let mut on_cycle = vec![false; n];
    // Tarjan state: DFS discovery index, lowest index reachable through
    // the DFS subtree, and the stack of blocks whose component is open.
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut open = Vec::new();
    let mut next = 0u32;
    let mut dfs = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        open.push(root);
        on_stack[root] = true;
        dfs.push((root, succs(root)));
        while let Some((v, it)) = dfs.last_mut() {
            let v = *v;
            if let Some(w) = it.next() {
                if w == v {
                    on_cycle[v] = true;
                } else if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    open.push(w);
                    on_stack[w] = true;
                    dfs.push((w, succs(w)));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            dfs.pop();
            if let Some(&(parent, _)) = dfs.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                // `v` roots a component: everything above it on the stack.
                let at = open.iter().rposition(|&b| b == v).expect("root is open");
                let multi = open.len() - at > 1;
                for b in open.drain(at..) {
                    on_stack[b] = false;
                    on_cycle[b] |= multi;
                }
            }
        }
    }
    on_cycle
}

/// Reverse-post-order over reachable blocks (classic pass iteration order).
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    let mut visited = vec![false; f.blocks.len()];
    let mut post = Vec::new();
    // Iterative DFS with an explicit stack to avoid recursion limits on
    // machine-generated CFGs.
    let mut stack = vec![(f.entry(), f.blocks[f.entry().0 as usize].term.successors())];
    visited[f.entry().0 as usize] = true;
    while let Some((b, succs)) = stack.last_mut() {
        let b = *b;
        match succs.next() {
            Some(s) => {
                if !std::mem::replace(&mut visited[s.0 as usize], true) {
                    stack.push((s, f.blocks[s.0 as usize].term.successors()));
                }
            }
            None => {
                post.push(b);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::Operand;

    /// Build a diamond CFG:  bb0 -> {bb1, bb2} -> bb3, plus dead bb4.
    fn diamond() -> Function {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 1);
        let t = f.new_block();
        let e = f.new_block();
        let join = f.new_block();
        let dead = f.new_block();
        let p = f.param(0);
        f.cond_br(Operand::Reg(p), t, e);
        f.switch_to(t);
        f.br(join);
        f.switch_to(e);
        f.br(join);
        f.switch_to(join);
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        m.function("f").unwrap().clone()
    }

    #[test]
    fn predecessors_of_join() {
        let f = diamond();
        let preds = predecessors(&f);
        let join = BlockId(3);
        let mut p = preds.get(&join).cloned().unwrap_or_default();
        p.sort();
        assert_eq!(p, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn reachability_finds_dead_block() {
        let f = diamond();
        let dead = unreachable_blocks(&f);
        assert_eq!(dead, vec![BlockId(4)]);
        assert_eq!(reachable_blocks(&f).len(), 4);
    }

    #[test]
    fn edge_count() {
        let f = diamond();
        assert_eq!(edges(&f).len(), 4);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        // join must come after both branches
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }
}
