//! Incremental group maintenance over the flat CSR core.
//!
//! A [`GroupIndex`] tracks the partition of agents into groups — connected
//! components of the enabled subgraph restricted to enabled agents — under
//! a stream of [`EnvChanges`] deltas, at cost proportional to the *change*
//! rather than the graph.  Alongside the partition it keeps a spanning
//! forest of the usable subgraph (a `tree` flag per dense CSR edge id) as a
//! connectivity certificate: every tree edge is usable, and each group's
//! tree edges span it.  This is the stretch-∞ case of the sparse
//! certificates a fully dynamic spanner maintains.
//!
//! - **edge up** merges two groups by splicing their sorted member lists
//!   (keyed by smallest member); the merging edge becomes a tree edge, any
//!   other upped edge is a non-tree edge;
//! - **non-tree edge down** only flips the mask: the certificate still
//!   spans every group, so the partition cannot have changed;
//! - **tree edge down** runs a lockstep BFS over tree edges from both
//!   endpoints until one side is exhausted — the smaller half — and scans
//!   that side's usable edges for a replacement; the group splits only
//!   when there is none.  A batch flips every mask first and then repairs
//!   each downed tree edge against the final masks, keeping the edges not
//!   yet repaired in the BFS as virtual tree edges, so the forest plus the
//!   pending edges always spans each group;
//! - **agent up** merges across each usable incident edge; **agent down**
//!   repairs the agent's tree edges the same way and drops its (then
//!   singleton) group;
//! - [`EnvDelta::Full`](crate::EnvDelta::Full) falls back to one flat full
//!   rescan ([`GroupIndex::reset_from_state`]), which rebuilds the forest.
//!
//! Epoch-stamped `visited: Vec<u32>` scratch keeps every search free of
//! per-delta allocation.  Groups are always exposed sorted internally and
//! ordered by smallest member — exactly the order [`EnvState::groups`]
//! produces — so records derived from either path are byte-identical.

use std::sync::Arc;

use crate::csr::Csr;
use crate::topology::{at, at_mut, at_ref};
use crate::{AgentId, Edge, EnvChanges, EnvState, Topology};

const NONE: u32 = u32::MAX;

/// Deterministic work counters of a [`GroupIndex`], cumulative since it
/// was created.  Unlike wall-clock time they are exact, so a regression
/// gate on them is free of machine noise.  Full rescans
/// ([`GroupIndex::reset_from_state`], [`GroupIndex::reset_all_enabled`])
/// are not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupWork {
    /// Tree edges that stopped being usable (edge down, or an endpoint
    /// going down); each costs one repair search.
    pub tree_edge_downs: u64,
    /// Agents expanded by the repair searches.
    pub agents_visited: u64,
    /// Incident edges examined while looking for replacement edges.
    pub replacement_edges_scanned: u64,
}

/// Incrementally maintained agent partition (see module docs).
#[derive(Debug)]
pub struct GroupIndex {
    csr: Arc<Csr>,
    /// Enablement bitmask indexed by dense CSR edge id.
    edge_enabled: Vec<bool>,
    /// Spanning-forest certificate indexed by dense CSR edge id.  Outside
    /// a repair every tree edge is usable; during one, the tree edges that
    /// are no longer usable are the pending (virtual) ones.
    tree: Vec<bool>,
    /// Enablement bitmask indexed by agent index.
    agent_enabled: Vec<bool>,
    enabled_edge_count: usize,
    enabled_agent_count: usize,
    /// Enabled edges whose endpoints are both enabled (the edges a group
    /// step can actually use).
    usable_edge_count: usize,
    /// Agent index → slot id of its group (`NONE` for disabled agents).
    comp_of: Vec<u32>,
    /// Slot id → sorted member list; empty slots are on the free list.
    slots: Vec<Vec<AgentId>>,
    free: Vec<u32>,
    /// Slot ids ordered by smallest member — the public group order.
    order: Vec<u32>,
    /// Epoch-stamped BFS scratch (no per-delta allocation).
    visited: Vec<u32>,
    epoch: u32,
    queue_a: Vec<u32>,
    queue_b: Vec<u32>,
    /// Tree edges awaiting repair (scratch).
    pending: Vec<u32>,
    work: GroupWork,
}

impl GroupIndex {
    /// Creates an index over `topology` with *nothing* enabled.
    ///
    /// Building the index materialises the topology's CSR adjacency (and
    /// thus a symbolic clique); callers that can stay symbolic should not
    /// construct one.
    pub fn new(topology: &Topology) -> Self {
        let csr = topology.csr();
        let n = csr.agent_count();
        let m = csr.edge_count();
        GroupIndex {
            edge_enabled: vec![false; m],
            tree: vec![false; m],
            agent_enabled: vec![false; n],
            enabled_edge_count: 0,
            enabled_agent_count: 0,
            usable_edge_count: 0,
            comp_of: vec![NONE; n],
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            visited: vec![0; n],
            epoch: 0,
            queue_a: Vec::new(),
            queue_b: Vec::new(),
            pending: Vec::new(),
            work: GroupWork::default(),
            csr,
        }
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.agent_enabled.len()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.order.len()
    }

    /// The `i`-th group in ascending-minimum order, sorted ascending.
    pub fn group(&self, i: usize) -> &[AgentId] {
        let slot: &Vec<AgentId> = at_ref(&self.slots, at(&self.order, i) as usize);
        slot
    }

    /// All groups, in the same order and encoding as
    /// [`EnvState::groups`].
    pub fn groups(&self) -> Vec<Vec<AgentId>> {
        self.order
            .iter()
            .map(|&s| at_ref(&self.slots, s as usize).clone())
            .collect()
    }

    /// Enabled edges whose two endpoints are both enabled.
    pub fn usable_edge_count(&self) -> usize {
        self.usable_edge_count
    }

    /// The work counters accumulated so far (see [`GroupWork`]).
    pub fn work(&self) -> GroupWork {
        self.work
    }

    /// Reconstructs the equivalent [`EnvState`] (for trace recording and
    /// tests; not on the hot path).
    pub fn to_env_state(&self) -> EnvState {
        let edges = self
            .csr
            .edges()
            .iter()
            .zip(self.edge_enabled.iter())
            .filter(|(_, &on)| on)
            .map(|(e, _)| *e);
        let agents = self
            .agent_enabled
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| AgentId(i));
        EnvState::new(self.agent_count(), edges, agents)
    }

    /// Checks the spanning-forest certificate against the partition: every
    /// tree edge is usable, there are exactly (enabled agents − groups)
    /// tree edges, and each group's tree edges reach all of its members
    /// and nothing else.  Costs O(n + m); a test oracle, never called on
    /// the hot path.
    pub fn check_certificate(&self) -> Result<(), String> {
        let mut tree_edges = 0;
        for (eid, e) in self.csr.edges().iter().enumerate() {
            if !at(&self.tree, eid) {
                continue;
            }
            tree_edges += 1;
            if !self.usable(eid as u32) {
                return Err(format!("tree edge {e} is not usable"));
            }
        }
        let (agents, groups) = (self.enabled_agent_count, self.group_count());
        if agents.checked_sub(groups) != Some(tree_edges) {
            return Err(format!(
                "{tree_edges} tree edges for {agents} enabled agents in {groups} groups"
            ));
        }
        let mut seen = vec![false; self.agent_count()];
        let mut stack = Vec::new();
        for &slot in &self.order {
            let min = self.slot_min(slot).index();
            *at_mut(&mut seen, min) = true;
            stack.push(min as u32);
            let mut reached = 1;
            while let Some(x) = stack.pop() {
                for (nbr, eid) in self.csr.neighbors(x as usize) {
                    if at(&self.tree, eid as usize) && !at(&seen, nbr as usize) {
                        if at(&self.comp_of, nbr as usize) != slot {
                            return Err(format!("a tree edge leaves the group of {min}"));
                        }
                        *at_mut(&mut seen, nbr as usize) = true;
                        stack.push(nbr);
                        reached += 1;
                    }
                }
            }
            let size = at_ref(&self.slots, slot as usize).len();
            if reached != size {
                return Err(format!(
                    "tree edges reach {reached} of the {size} members of the group of {min}"
                ));
            }
        }
        Ok(())
    }

    /// Enables every edge and agent, then rescans.
    pub fn reset_all_enabled(&mut self) {
        self.edge_enabled.fill(true);
        self.agent_enabled.fill(true);
        self.enabled_edge_count = self.edge_enabled.len();
        self.enabled_agent_count = self.agent_enabled.len();
        self.usable_edge_count = self.enabled_edge_count;
        self.rebuild_groups();
    }

    /// Full-rescan fallback: adopts `state`'s enabled sets wholesale.
    ///
    /// Edges outside the topology are ignored — the [`Environment`]
    /// (crate::Environment) contract says they never occur.
    pub fn reset_from_state(&mut self, state: &EnvState) {
        self.edge_enabled.fill(false);
        self.agent_enabled.fill(false);
        self.enabled_edge_count = 0;
        self.enabled_agent_count = 0;
        // Two-pointer walk: both the state's edge set and the CSR edge list
        // iterate in ascending edge order.
        let mut ids = self.csr.edges().iter().enumerate();
        let mut cursor = ids.next();
        for e in state.enabled_edges() {
            while let Some((_, ce)) = cursor {
                if ce < e {
                    cursor = ids.next();
                } else {
                    break;
                }
            }
            if let Some((eid, ce)) = cursor {
                if ce == e {
                    *at_mut(&mut self.edge_enabled, eid) = true;
                    self.enabled_edge_count += 1;
                    cursor = ids.next();
                }
            }
        }
        for a in state.enabled_agents() {
            if a.index() < self.agent_enabled.len() {
                *at_mut(&mut self.agent_enabled, a.index()) = true;
                self.enabled_agent_count += 1;
            }
        }
        self.recount_usable();
        self.rebuild_groups();
    }

    /// Returns `true` if this index describes exactly the connectivity of
    /// `state` — the incremental analogue of
    /// [`EnvState::same_connectivity`].
    pub fn same_connectivity(&self, state: &EnvState) -> bool {
        if state.agent_count() != self.agent_count()
            || state.enabled_agents().len() != self.enabled_agent_count
            || state.enabled_edges().len() != self.enabled_edge_count
        {
            return false;
        }
        for a in state.enabled_agents() {
            if a.index() >= self.agent_enabled.len() || !at(&self.agent_enabled, a.index()) {
                return false;
            }
        }
        // Equal counts + every member present ⇒ equal sets.
        let mut ids = self.csr.edges().iter().enumerate();
        let mut cursor = ids.next();
        for e in state.enabled_edges() {
            loop {
                match cursor {
                    Some((eid, ce)) if ce == e => {
                        if !at(&self.edge_enabled, eid) {
                            return false;
                        }
                        cursor = ids.next();
                        break;
                    }
                    Some((_, ce)) if ce < e => cursor = ids.next(),
                    // The state enables an edge the topology lacks.
                    _ => return false,
                }
            }
        }
        true
    }

    /// Applies one incremental connectivity update, maintaining the group
    /// partition at cost proportional to the change.  Mirrors
    /// [`EnvState::apply_changes`]: downed edges/agents are removed, upped
    /// ones inserted, and redundant entries (downing a down edge, upping an
    /// up agent) are no-ops.
    pub fn apply_changes(&mut self, changes: &EnvChanges) {
        self.edges_down(&changes.edges_down);
        for e in &changes.edges_up {
            self.edge_up(e);
        }
        for a in &changes.agents_down {
            self.agent_down(*a);
        }
        for a in &changes.agents_up {
            self.agent_up(*a);
        }
    }

    fn edge_up(&mut self, e: &Edge) {
        let Some(eid) = self.csr.edge_id(e) else {
            return; // outside the topology: unreachable by contract
        };
        if at(&self.edge_enabled, eid as usize) {
            return;
        }
        *at_mut(&mut self.edge_enabled, eid as usize) = true;
        self.enabled_edge_count += 1;
        if self.usable(eid) {
            self.usable_edge_count += 1;
            self.link(e.lo().index(), e.hi().index(), eid);
        }
    }

    /// Flips every mask of the batch first, then repairs each downed tree
    /// edge against the final masks.  Repairing one at a time as the masks
    /// flip could pick as replacement an edge that goes down later in the
    /// same batch, paying a second half-component search for it.
    fn edges_down(&mut self, edges: &[Edge]) {
        self.pending.clear();
        for e in edges {
            let Some(eid) = self.csr.edge_id(e) else {
                continue; // outside the topology: unreachable by contract
            };
            if !at(&self.edge_enabled, eid as usize) {
                continue;
            }
            let was_usable = self.usable(eid);
            *at_mut(&mut self.edge_enabled, eid as usize) = false;
            self.enabled_edge_count -= 1;
            if was_usable {
                self.usable_edge_count -= 1;
                if at(&self.tree, eid as usize) {
                    self.pending.push(eid);
                }
            }
        }
        self.repair_pending();
    }

    fn agent_up(&mut self, a: AgentId) {
        let i = a.index();
        if i >= self.agent_enabled.len() || at(&self.agent_enabled, i) {
            return;
        }
        *at_mut(&mut self.agent_enabled, i) = true;
        self.enabled_agent_count += 1;
        // New singleton group for `a`.
        let slot = self.alloc_slot(vec![a]);
        *at_mut(&mut self.comp_of, i) = slot;
        self.insert_into_order(slot);
        // Every usable incident edge now exists; merge across each.
        let csr = Arc::clone(&self.csr);
        for (nbr, eid) in csr.neighbors(i) {
            if self.usable(eid) {
                self.usable_edge_count += 1;
                self.link(i, nbr as usize, eid);
            }
        }
    }

    fn agent_down(&mut self, a: AgentId) {
        let i = a.index();
        if i >= self.agent_enabled.len() || !at(&self.agent_enabled, i) {
            return;
        }
        self.pending.clear();
        for (nbr, eid) in self.csr.neighbors(i) {
            if at(&self.edge_enabled, eid as usize) && at(&self.agent_enabled, nbr as usize) {
                self.usable_edge_count -= 1;
                if at(&self.tree, eid as usize) {
                    self.pending.push(eid);
                }
            }
        }
        *at_mut(&mut self.agent_enabled, i) = false;
        self.enabled_agent_count -= 1;
        // With its tree edges repaired, `a` is alone in its group: its
        // edges are unusable, so no replacement can reach it.
        self.repair_pending();
        let slot = at(&self.comp_of, i);
        self.remove_from_order(slot);
        at_mut(&mut self.slots, slot as usize).clear();
        self.free.push(slot);
        *at_mut(&mut self.comp_of, i) = NONE;
    }

    /// Whether edge `eid` is enabled and joins two enabled agents.
    fn usable(&self, eid: u32) -> bool {
        let e = self.csr.edge(eid);
        at(&self.edge_enabled, eid as usize)
            && at(&self.agent_enabled, e.lo().index())
            && at(&self.agent_enabled, e.hi().index())
    }

    /// Records the usable edge `eid` between agents `a` and `b`: a tree
    /// edge merging their groups if they differ, a non-tree edge otherwise.
    fn link(&mut self, a: usize, b: usize, eid: u32) {
        let (x, y) = (at(&self.comp_of, a), at(&self.comp_of, b));
        if x != y {
            *at_mut(&mut self.tree, eid as usize) = true;
            self.merge_slots(x, y);
        }
    }

    /// Repairs every edge on the pending list: tree edges that are no
    /// longer usable.  Until its turn, a pending edge stays in the forest
    /// as a virtual tree edge, so the forest plus the pending edges spans
    /// each group and every search below sees two separate trees.
    fn repair_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.work.tree_edge_downs += pending.len() as u64;
        for &eid in &pending {
            *at_mut(&mut self.tree, eid as usize) = false;
            self.repair(eid);
        }
        self.pending = pending;
    }

    /// After dropping `eid` from the forest: finds the smaller of the two
    /// trees it separated, then either links that side back through a
    /// replacement edge or splits it off as a group of its own.
    fn repair(&mut self, eid: u32) {
        let e = self.csr.edge(eid);
        if self.epoch >= u32::MAX - 2 {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let ea = self.epoch;
        self.epoch += 1;
        let eb = self.epoch;
        let mut qa = std::mem::take(&mut self.queue_a);
        let mut qb = std::mem::take(&mut self.queue_b);
        for (q, x, stamp) in [(&mut qa, e.lo(), ea), (&mut qb, e.hi(), eb)] {
            q.clear();
            q.push(x.index() as u32);
            *at_mut(&mut self.visited, x.index()) = stamp;
        }
        // Lockstep expansion: the first side to run out is the smaller
        // tree.  The two sides never meet — the forest has no cycle.
        let (mut ha, mut hb) = (0usize, 0usize);
        let a_smaller = loop {
            if !self.expand_tree(&mut qa, &mut ha, ea) {
                break true;
            }
            if !self.expand_tree(&mut qb, &mut hb, eb) {
                break false;
            }
        };
        let (side, stamp) = if a_smaller { (&qa, ea) } else { (&qb, eb) };
        if let Some(replacement) = self.find_replacement(side, stamp) {
            *at_mut(&mut self.tree, replacement as usize) = true;
        } else {
            self.split_off(at(&self.comp_of, e.lo().index()), side, stamp);
        }
        self.queue_a = qa;
        self.queue_b = qb;
    }

    /// Expands the next node of one repair side along tree edges; returns
    /// `false` once the side is exhausted.
    fn expand_tree(&mut self, q: &mut Vec<u32>, head: &mut usize, stamp: u32) -> bool {
        let Some(&x) = q.get(*head) else {
            return false;
        };
        *head += 1;
        self.work.agents_visited += 1;
        for (nbr, eid) in self.csr.neighbors(x as usize) {
            if at(&self.tree, eid as usize) && at(&self.visited, nbr as usize) != stamp {
                *at_mut(&mut self.visited, nbr as usize) = stamp;
                q.push(nbr);
            }
        }
        true
    }

    /// Scans the usable edges of the exhausted side (stamped `stamp`) for
    /// one leaving it; such an edge reconnects the two trees.
    fn find_replacement(&mut self, side: &[u32], stamp: u32) -> Option<u32> {
        for &x in side {
            if !at(&self.agent_enabled, x as usize) {
                continue; // an agent going down keeps no usable edge
            }
            for (nbr, eid) in self.csr.neighbors(x as usize) {
                self.work.replacement_edges_scanned += 1;
                if at(&self.edge_enabled, eid as usize)
                    && at(&self.agent_enabled, nbr as usize)
                    && at(&self.visited, nbr as usize) != stamp
                {
                    return Some(eid);
                }
            }
        }
        None
    }

    /// Moves the exhausted side (stamped `stamp`) of a repair out of the
    /// group in `slot` into a new one.  Partitioning the old sorted member
    /// list by the stamp keeps both halves sorted; the rest keeps the slot
    /// id, and whichever half holds the old minimum keeps its position in
    /// the order.
    fn split_off(&mut self, slot: u32, side: &[u32], stamp: u32) {
        let min_moves = at(&self.visited, self.slot_min(slot).index()) == stamp;
        if min_moves {
            self.remove_from_order(slot);
        }
        let members = std::mem::take(at_mut(&mut self.slots, slot as usize));
        let (moved, kept): (Vec<AgentId>, Vec<AgentId>) = members
            .iter()
            .partition(|m| at(&self.visited, m.index()) == stamp);
        *at_mut(&mut self.slots, slot as usize) = kept;
        let new_slot = self.alloc_slot(moved);
        for &x in side {
            *at_mut(&mut self.comp_of, x as usize) = new_slot;
        }
        if min_moves {
            self.insert_into_order(slot);
        }
        self.insert_into_order(new_slot);
    }

    /// Merges the groups in slots `x` and `y` (no-op if equal).  The slot
    /// holding the smaller minimum keeps its id — and therefore its
    /// position in the order — while the other is freed.
    fn merge_slots(&mut self, x: u32, y: u32) {
        if x == y {
            return;
        }
        let (keep, gone) = if self.slot_min(x) < self.slot_min(y) {
            (x, y)
        } else {
            (y, x)
        };
        self.remove_from_order(gone);
        let gone_members = std::mem::take(at_mut(&mut self.slots, gone as usize));
        self.free.push(gone);
        for m in &gone_members {
            *at_mut(&mut self.comp_of, m.index()) = keep;
        }
        let keep_members = std::mem::take(at_mut(&mut self.slots, keep as usize));
        let mut merged = Vec::with_capacity(keep_members.len() + gone_members.len());
        let mut ka = keep_members.iter().copied().peekable();
        let mut ga = gone_members.iter().copied().peekable();
        loop {
            match (ka.peek(), ga.peek()) {
                (Some(&k), Some(&g)) => {
                    if k < g {
                        merged.push(k);
                        ka.next();
                    } else {
                        merged.push(g);
                        ga.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(ka.by_ref());
                }
                (None, Some(_)) => {
                    merged.extend(ga.by_ref());
                }
                (None, None) => break,
            }
        }
        *at_mut(&mut self.slots, keep as usize) = merged;
    }

    /// Full flat rescan of the group partition from the current bitmasks;
    /// each BFS discovery edge becomes a tree edge.
    fn rebuild_groups(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.comp_of.fill(NONE);
        self.tree.fill(false);
        let n = self.agent_enabled.len();
        let mut queue = std::mem::take(&mut self.queue_a);
        for i in 0..n {
            if !at(&self.agent_enabled, i) || at(&self.comp_of, i) != NONE {
                continue;
            }
            let slot = self.slots.len() as u32;
            self.slots.push(Vec::new());
            self.order.push(slot);
            *at_mut(&mut self.comp_of, i) = slot;
            queue.clear();
            queue.push(i as u32);
            let mut head = 0;
            while head < queue.len() {
                let x = at(&queue, head);
                head += 1;
                for (nbr, eid) in self.csr.neighbors(x as usize) {
                    if at(&self.edge_enabled, eid as usize)
                        && at(&self.agent_enabled, nbr as usize)
                        && at(&self.comp_of, nbr as usize) == NONE
                    {
                        *at_mut(&mut self.comp_of, nbr as usize) = slot;
                        *at_mut(&mut self.tree, eid as usize) = true;
                        queue.push(nbr);
                    }
                }
            }
        }
        self.queue_a = queue;
        // Ascending emission pass: every member list comes out sorted, and
        // slot k (== order[k]) holds the k-th smallest minimum.
        for i in 0..n {
            let slot = at(&self.comp_of, i);
            if slot != NONE {
                at_mut(&mut self.slots, slot as usize).push(AgentId(i));
            }
        }
    }

    fn recount_usable(&mut self) {
        self.usable_edge_count = self
            .csr
            .edges()
            .iter()
            .zip(self.edge_enabled.iter())
            .filter(|(e, &on)| {
                on && at(&self.agent_enabled, e.lo().index())
                    && at(&self.agent_enabled, e.hi().index())
            })
            .count();
    }

    fn slot_min(&self, slot: u32) -> AgentId {
        at_ref(&self.slots, slot as usize)
            .first()
            .copied()
            .expect("group slots in the order are non-empty")
    }

    fn alloc_slot(&mut self, members: Vec<AgentId>) -> u32 {
        if let Some(slot) = self.free.pop() {
            *at_mut(&mut self.slots, slot as usize) = members;
            slot
        } else {
            self.slots.push(members);
            (self.slots.len() - 1) as u32
        }
    }

    fn insert_into_order(&mut self, slot: u32) {
        self.insert_into_order_with(slot, self.slot_min(slot));
    }

    fn insert_into_order_with(&mut self, slot: u32, min: AgentId) {
        let pos = self.order.partition_point(|&s| self.slot_min(s) < min);
        self.order.insert(pos, slot);
    }

    fn remove_from_order(&mut self, slot: u32) {
        let min = self.slot_min(slot);
        let pos = self.order.partition_point(|&s| self.slot_min(s) < min);
        debug_assert_eq!(self.order.get(pos).copied(), Some(slot));
        self.order.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(
        edges_down: Vec<Edge>,
        edges_up: Vec<Edge>,
        agents_down: Vec<AgentId>,
        agents_up: Vec<AgentId>,
    ) -> EnvChanges {
        EnvChanges {
            edges_down,
            edges_up,
            agents_down,
            agents_up,
        }
    }

    fn edge(a: usize, b: usize) -> Edge {
        Edge::new(AgentId(a), AgentId(b))
    }

    #[test]
    fn tracks_groups_under_edge_and_agent_flips() {
        let topo = Topology::ring(6);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        let mut state = EnvState::fully_enabled(&topo);
        assert_eq!(gi.groups(), state.groups());
        assert_eq!(gi.usable_edge_count(), 6);

        let steps = [
            changes(vec![edge(0, 1), edge(3, 4)], vec![], vec![], vec![]),
            changes(vec![], vec![], vec![AgentId(2)], vec![]),
            changes(vec![], vec![edge(0, 1)], vec![], vec![]),
            changes(vec![], vec![], vec![], vec![AgentId(2)]),
            changes(vec![edge(5, 0)], vec![edge(3, 4)], vec![AgentId(1)], vec![]),
            // Redundant flips are no-ops.
            changes(
                vec![edge(5, 0)],
                vec![edge(3, 4)],
                vec![AgentId(1)],
                vec![AgentId(0)],
            ),
        ];
        for (i, c) in steps.iter().enumerate() {
            state.apply_changes(c);
            gi.apply_changes(c);
            assert_eq!(gi.groups(), state.groups(), "step {i}");
            assert_eq!(gi.to_env_state(), state, "step {i}");
            let usable = state
                .enabled_edges()
                .iter()
                .filter(|e| state.can_communicate(e.lo(), e.hi()))
                .count();
            assert_eq!(gi.usable_edge_count(), usable, "step {i}");
        }
    }

    #[test]
    fn full_rescan_fallback_matches_state_groups() {
        let topo = Topology::from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 6)]);
        let state = EnvState::new(
            7,
            [edge(0, 1), edge(2, 3), edge(4, 5)],
            [0, 1, 2, 3, 4, 5].map(AgentId),
        );
        let mut gi = GroupIndex::new(&topo);
        gi.reset_from_state(&state);
        assert_eq!(gi.groups(), state.groups());
        assert!(gi.same_connectivity(&state));
        assert!(!gi.same_connectivity(&EnvState::fully_enabled(&topo)));
        assert!(!gi.same_connectivity(&EnvState::fully_disabled(7)));
        assert_eq!(gi.to_env_state(), state);
    }

    #[test]
    fn split_keeps_ascending_min_order() {
        // Ring 0-1-2-3-0: dropping 1-2 and 3-0 splits {0,1} / {2,3}; the
        // slot with min 0 must stay first.
        let topo = Topology::ring(4);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        gi.apply_changes(&changes(vec![edge(1, 2)], vec![], vec![], vec![]));
        assert_eq!(gi.group_count(), 1, "still a path");
        gi.apply_changes(&changes(vec![edge(3, 0)], vec![], vec![], vec![]));
        assert_eq!(gi.group_count(), 2);
        assert_eq!(gi.group(0), [AgentId(0), AgentId(1)]);
        assert_eq!(gi.group(1), [AgentId(2), AgentId(3)]);
    }

    #[test]
    fn agent_down_can_shatter_a_group() {
        let topo = Topology::star(5);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        assert_eq!(gi.group_count(), 1);
        gi.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
        assert_eq!(gi.group_count(), 4, "leaves become singletons");
        let mut state = EnvState::fully_enabled(&topo);
        state.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
        assert_eq!(gi.groups(), state.groups());
        gi.apply_changes(&changes(vec![], vec![], vec![], vec![AgentId(0)]));
        assert_eq!(gi.group_count(), 1, "center restores the star");
    }

    #[test]
    fn batch_repair_keeps_the_forest_spanning_for_the_next_split() {
        // Triangle with centre B = 0: the rescan's BFS makes A–B (0-1) and
        // B–C (0-2) tree edges and A–C (1-2) a non-tree edge.  One batch
        // downs both tree edges: B is isolated and A, C stay joined only by
        // A–C, which must become a tree edge.  A batch that split off
        // whichever side ran out first and skipped edges whose endpoints
        // were already separated would leave A and C unlinked in the
        // forest, and the next round's A–C down would look like a free
        // non-tree down and miss the split.
        let topo = Topology::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        gi.check_certificate()
            .expect("rescan builds a valid forest");
        gi.apply_changes(&changes(
            vec![edge(0, 1), edge(0, 2)],
            vec![],
            vec![],
            vec![],
        ));
        gi.check_certificate()
            .expect("batch keeps the forest spanning");
        assert_eq!(
            gi.groups(),
            [vec![AgentId(0)], vec![AgentId(1), AgentId(2)]]
        );
        gi.apply_changes(&changes(vec![edge(1, 2)], vec![], vec![], vec![]));
        gi.check_certificate()
            .expect("split keeps the forest valid");
        assert_eq!(
            gi.groups(),
            [vec![AgentId(0)], vec![AgentId(1)], vec![AgentId(2)]]
        );
        assert_eq!(gi.work().tree_edge_downs, 3);
    }

    #[test]
    fn non_tree_down_visits_no_agent() {
        // Ring 0-1-2-3-0: the rescan's BFS from 0 takes 0-1, 0-3 and 1-2,
        // leaving 2-3 as the one non-tree edge.
        let topo = Topology::ring(4);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        gi.apply_changes(&changes(vec![edge(2, 3)], vec![], vec![], vec![]));
        assert_eq!(gi.work(), GroupWork::default(), "mask flip only");
        assert_eq!(gi.group_count(), 1);
        // Now every edge is a tree edge: downing 1-2 searches both sides.
        gi.apply_changes(&changes(vec![edge(1, 2)], vec![], vec![], vec![]));
        assert_eq!(gi.group_count(), 2);
        let work = gi.work();
        assert_eq!(work.tree_edge_downs, 1);
        assert!(work.agents_visited > 0);
        gi.check_certificate().expect("valid after the split");
    }

    #[test]
    fn work_counters_of_a_fixed_churn_run_are_pinned() {
        use crate::{EnvDelta, Environment, RandomChurnEnv};
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let topo = Topology::random_connected_sparse(200, 6.0, &mut rng);
        let mut env = RandomChurnEnv::new(topo.clone(), 0.97, 0.995);
        let mut gi = GroupIndex::new(&topo);
        let mut state = EnvState::fully_disabled(200);
        let mut flips = 0;
        for _ in 0..40 {
            match env.step_delta(&mut rng) {
                EnvDelta::Full(s) => {
                    gi.reset_from_state(&s);
                    state = s;
                }
                EnvDelta::Changes(c) => {
                    flips += c.edges_down.len() + c.edges_up.len();
                    gi.apply_changes(&c);
                    state.apply_changes(&c);
                }
                EnvDelta::Unchanged | EnvDelta::AllEnabled => {}
            }
            assert_eq!(gi.groups(), state.groups());
        }
        gi.check_certificate().expect("valid after the run");
        // 1307 edge flips plus about one agent flip per round.
        assert_eq!(flips, 1307);
        assert_eq!(
            gi.work(),
            GroupWork {
                tree_edge_downs: 325,
                agents_visited: 4623,
                replacement_edges_scanned: 543,
            }
        );
    }
}
