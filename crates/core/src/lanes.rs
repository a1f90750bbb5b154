//! Node-major lane slabs: the state storage of every lane-batched wrapper.
//!
//! A lane-batched run keeps `F` K-wide fields per node (totals, prefixes,
//! landing buffers, …). A [`LaneSlab`] stores all of them in one `Vec` of
//! `nodes × F × K` cells, field `f` of node `u` at
//! `[(u·F + f)·K, (u·F + f + 1)·K)`. Building a run's state is then one
//! allocation instead of `F` per node, and a cycle that sweeps the nodes
//! in order walks one contiguous buffer. The machine's per-node state is
//! a borrowed view: the named `&mut [M]` slices of one node's chunk,
//! split off by [`LaneSlab::views`]. Results are moved straight out of
//! the slab with [`LaneSlab::take_lanes`] once the machine is gone.

/// `nodes × fields × lanes` cells in one node-major buffer (see the
/// module docs for the layout).
#[derive(Debug)]
pub struct LaneSlab<M> {
    cells: Vec<M>,
    fields: usize,
    lanes: usize,
}

impl<M> LaneSlab<M> {
    /// Builds a slab whose cell for node `u`, field `f`, lane `k` is
    /// `init(index_of(u), f, k)`, filled in layout order. `index_of`
    /// maps a node to the data index it holds and runs once per node.
    pub fn from_fn(
        nodes: usize,
        fields: usize,
        lanes: usize,
        index_of: impl Fn(usize) -> usize,
        mut init: impl FnMut(usize, usize, usize) -> M,
    ) -> Self {
        assert!(
            fields > 0 && lanes > 0,
            "a lane slab needs fields and lanes"
        );
        let mut cells = Vec::with_capacity(nodes * fields * lanes);
        for u in 0..nodes {
            let i = index_of(u);
            for f in 0..fields {
                cells.extend((0..lanes).map(|k| init(i, f, k)));
            }
        }
        LaneSlab {
            cells,
            fields,
            lanes,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cells.len() / (self.fields * self.lanes)
    }

    /// Field `f` of node `u`: its K lanes.
    pub fn field(&self, u: usize, f: usize) -> &[M] {
        let at = (u * self.fields + f) * self.lanes;
        &self.cells[at..at + self.lanes]
    }

    /// One entry per node, in node order: the node's chunk split into
    /// its `F` field slices, in field order. `F` must equal the slab's
    /// field count.
    pub fn views<const F: usize>(&mut self) -> impl Iterator<Item = [&mut [M]; F]> + '_ {
        assert_eq!(F, self.fields, "view width must match the slab's fields");
        let lanes = self.lanes;
        self.cells.chunks_exact_mut(F * lanes).map(move |chunk| {
            let mut fields = chunk.chunks_exact_mut(lanes);
            std::array::from_fn(|_| fields.next().expect("a chunk holds F fields"))
        })
    }

    /// Moves field `f` out as one vector per lane: entry `i` of lane `k`
    /// is lane `k` of node `node_at(i)`, whose cell is left holding
    /// `fill()`. `node_at` must be a permutation of the nodes.
    pub fn take_lanes(
        &mut self,
        f: usize,
        node_at: impl Fn(usize) -> usize,
        mut fill: impl FnMut() -> M,
    ) -> Vec<Vec<M>> {
        let nodes = self.nodes();
        let mut out: Vec<Vec<M>> = (0..self.lanes).map(|_| Vec::with_capacity(nodes)).collect();
        for i in 0..nodes {
            let at = (node_at(i) * self.fields + f) * self.lanes;
            for (lane, cell) in out.iter_mut().zip(&mut self.cells[at..at + self.lanes]) {
                lane.push(std::mem::replace(cell, fill()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_sit_at_their_node_major_offsets() {
        let mut slab = LaneSlab::from_fn(3, 2, 4, |u| u, |u, f, k| 100 * u + 10 * f + k);
        assert_eq!(slab.nodes(), 3);
        assert_eq!(slab.field(2, 1), &[210, 211, 212, 213]);
        for (u, [a, b]) in slab.views::<2>().enumerate() {
            assert_eq!(a[3], 100 * u + 3);
            b[0] = 7;
        }
        assert_eq!(slab.field(1, 1), &[7, 111, 112, 113]);
    }

    #[test]
    fn take_lanes_follows_the_permutation_and_leaves_the_fill() {
        let mut slab = LaneSlab::from_fn(4, 3, 2, |u| u, |u, f, k| 100 * u + 10 * f + k);
        let lanes = slab.take_lanes(1, |i| 3 - i, || 0);
        assert_eq!(
            lanes,
            vec![vec![310, 210, 110, 10], vec![311, 211, 111, 11]]
        );
        assert_eq!(slab.field(2, 1), &[0, 0]);
        assert_eq!(slab.field(2, 2), &[220, 221]);
    }

    #[test]
    #[should_panic(expected = "view width")]
    fn mismatched_view_width_rejected() {
        let mut slab = LaneSlab::from_fn(2, 3, 1, |u| u, |_, _, _| 0u8);
        let _ = slab.views::<2>().count();
    }
}
