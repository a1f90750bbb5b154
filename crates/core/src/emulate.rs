//! Technique 2 — emulating hypercube dimension exchanges on the dual-cube
//! (paper, Sections 4, 6 and 7).
//!
//! In the recursive presentation, `D_n` looks like a `(2n−1)`-dimensional
//! hypercube from which half of each dimension's edges are missing: a node
//! has the dimension-`j` edge (`j > 0`) only when `j`'s parity matches its
//! class. Any hypercube *ascend/descend* algorithm — one that repeatedly
//! pairs each node with its dimension-`j` partner — can therefore run on
//! `D_n`, paying 3 communication cycles instead of 1 for dimensions where
//! links are missing ("the overhead for the emulation will be 3 times of
//! the corresponding hypercube algorithm in the worst-case", Section 7).
//!
//! [`exchange_dim`] implements one such emulated pairwise exchange under
//! the 1-port model, using the 3-hop path of Algorithm 3,
//! `(u, ū_0), (ū_0, (ū_0)_j), ((ū_0)_j, ū_j)`, scheduled so that the
//! direct-edge half piggybacks its own exchange on the middle hop:
//!
//! * **cycle 1** — nodes *without* the dimension-`j` link send their value
//!   over the cross-edge (dimension 0);
//! * **cycle 2** — nodes *with* the link exchange along dimension `j`,
//!   each message carrying the sender's own value plus the value it is
//!   forwarding;
//! * **cycle 3** — the forwarded values return over the cross-edges,
//!   delivering to each linkless node exactly its partner's value.
//!
//! Every node sends ≤ 1 and receives ≤ 1 message per cycle — the simulator
//! verifies this every cycle, so the schedule itself is machine-checked.
//! Dimension 0 (the cross-edge, present everywhere) costs a single cycle.

use crate::lanes::LaneSlab;
use crate::ops::Monoid;
use dc_simulator::{Machine, ScheduleKey};
use dc_topology::{bits::bit, NodeId, RecDualCube, Topology};

/// Per-node state for emulated dimension exchanges: the algorithm's value
/// plus the two transit buffers the 3-cycle schedule needs.
#[derive(Debug, Clone)]
pub struct EmuState<V> {
    /// The node's current value (key, block, accumulator, …).
    pub value: V,
    fwd: Option<V>,
    partner: Option<V>,
}

impl<V> EmuState<V> {
    /// Wraps an initial value.
    pub fn new(value: V) -> Self {
        EmuState {
            value,
            fwd: None,
            partner: None,
        }
    }
}

/// Builds a machine over the recursive presentation with `values[r]`
/// placed on recursive node `r`.
pub fn emu_machine<'t, V>(
    rec: &'t RecDualCube,
    values: Vec<V>,
) -> Machine<'t, RecDualCube, EmuState<V>> {
    Machine::new(rec, values.into_iter().map(EmuState::new).collect())
}

/// Communication cycles one emulated dimension-`j` exchange costs: 1 for
/// the cross-edge dimension, 3 for every other (Section 6: "a parallel
/// compare-and-exchange operation for all pairs of nodes at the `i`th
/// dimension takes three time-units").
pub fn dim_comm_cost(j: u32) -> u64 {
    if j == 0 {
        1
    } else {
        3
    }
}

/// One full pairwise exchange at dimension `j`: afterwards every node has
/// seen its partner's value and replaced its own with
/// `apply(node, own, partner)`. Costs [`dim_comm_cost`]`(j)` communication
/// cycles plus one computation cycle. Payloads are counted as one word
/// each; block algorithms use [`exchange_dim_sized`].
pub fn exchange_dim<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    j: u32,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
) {
    exchange_dim_sized(machine, j, apply, |_| 1)
}

/// [`exchange_dim`] with explicit payload sizes: `size(value)` reports the
/// element count of a value in flight (e.g. the block length for
/// compare-split), feeding [`dc_simulator::Metrics::message_words`].
pub fn exchange_dim_sized<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    j: u32,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
    size: impl Fn(&V) -> u64 + Sync,
) {
    let rec = *machine.topology();
    assert!(
        j < rec.dims(),
        "dimension {j} out of range for {}",
        rec.name()
    );
    if j == 0 {
        // Cross-edges exist at every node: a single cycle. The pattern
        // depends only on the topology, so sweeps replay it by key.
        machine.pairwise_keyed_sized(
            ScheduleKey::Cross,
            |r, _| Some(r ^ 1),
            |_, st| st.value.clone(),
            |st, _, v| st.partner = Some(v),
            &size,
        );
    } else {
        // Cycle 1: linkless nodes hand their value across dimension 0.
        machine.exchange_keyed_sized(
            ScheduleKey::Window { j, hop: 0 },
            |r, st| (!rec.has_direct_edge(r, j)).then(|| (r ^ 1, st.value.clone())),
            |st, _, v| st.fwd = Some(v),
            &size,
        );
        // Cycle 2: linked nodes exchange (own, forwarded) along dimension j.
        machine.pairwise_keyed_sized(
            ScheduleKey::Window { j, hop: 1 },
            |r, _| rec.has_direct_edge(r, j).then(|| r ^ (1usize << j)),
            |_, st| {
                (
                    st.value.clone(),
                    st.fwd.clone().expect("cycle 1 filled the forward buffer"),
                )
            },
            |st, _, (own, fwd)| {
                st.partner = Some(own);
                st.fwd = Some(fwd);
            },
            |(a, b)| size(a) + size(b),
        );
        // Cycle 3: forwarded values return across dimension 0; the
        // received value is exactly the linkless node's partner's value
        // (see the path algebra in the module docs).
        machine.exchange_keyed_sized(
            ScheduleKey::Window { j, hop: 2 },
            |r, st| {
                rec.has_direct_edge(r, j)
                    .then(|| (r ^ 1, st.fwd.clone().expect("cycle 2 refilled it")))
            },
            |st, _, v| st.partner = Some(v),
            &size,
        );
        machine.setup(|_, st| st.fwd = None);
    }
    machine.compute(1, |r, st| {
        let partner = st
            .partner
            .take()
            .expect("every node heard from its partner");
        st.value = apply(r, &st.value, &partner);
    });
}

/// Per-node state for **lane-batched** emulated dimension exchanges: K
/// independent values, lane `k` belonging to instance `k`, plus the two
/// K-wide transit buffers the 3-cycle schedule needs. Each slice is one
/// field of the node's chunk of a [`batched_emu_slab`].
#[derive(Debug)]
pub struct BatchedEmuState<'a, V> {
    /// The node's K current values, lane `k` belonging to instance `k`.
    pub values: &'a mut [V],
    fwd: &'a mut [V],
    partner: &'a mut [V],
}

/// Builds the lane slab a [`batched_emu_machine`] runs over from K
/// instances (`instances[k][r]` is instance `k`'s value at recursive
/// node `r`). Field 0 holds each node's K values; fields 1 and 2, the
/// transit buffers, start as clones of `seed`.
pub fn batched_emu_slab<V: Clone>(instances: &[Vec<V>], seed: &V) -> LaneSlab<V> {
    let nodes = instances.first().map(Vec::len).unwrap_or(0);
    for inst in instances {
        assert_eq!(
            inst.len(),
            nodes,
            "every instance must cover the same nodes"
        );
    }
    LaneSlab::from_fn(
        nodes,
        3,
        instances.len(),
        |r| r,
        |r, f, k| match f {
            0 => instances[k][r].clone(),
            _ => seed.clone(),
        },
    )
}

/// Builds a machine over the recursive presentation whose node `r`
/// carries the K lanes of node `r` of `slab` (see [`batched_emu_slab`]).
pub fn batched_emu_machine<'t, 's, V>(
    rec: &'t RecDualCube,
    slab: &'s mut LaneSlab<V>,
) -> Machine<'t, RecDualCube, BatchedEmuState<'s, V>> {
    assert_eq!(
        slab.nodes(),
        rec.num_nodes(),
        "need one slab node per node of {}",
        rec.name()
    );
    Machine::new(
        rec,
        slab.views()
            .map(|[values, fwd, partner]| BatchedEmuState {
                values,
                fwd,
                partner,
            })
            .collect(),
    )
}

/// Lane-batched [`exchange_dim`]: one emulated dimension-`j` exchange
/// advancing all K lanes at once. The schedule is identical to the
/// single-lane one — the same [`dim_comm_cost`]`(j)` cycles under the
/// same [`ScheduleKey`]s — but each cycle moves K values per message
/// (cycle 2 of the 3-hop window moves 2K: the sender's own K lanes plus
/// the K it is forwarding), so `message_words` scales exactly as K
/// single-lane runs while the engine overhead is paid once.
pub fn exchange_dim_lanes<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, BatchedEmuState<V>>,
    j: u32,
    lanes: usize,
    seed: &V,
    apply: impl Fn(NodeId, &V, &V) -> V + Sync,
) {
    let rec = *machine.topology();
    assert!(
        j < rec.dims(),
        "dimension {j} out of range for {}",
        rec.name()
    );
    let swap_into = |buf: &mut [V], window: &mut [V]| {
        for (b, w) in buf.iter_mut().zip(window) {
            std::mem::swap(b, w);
        }
    };
    if j == 0 {
        machine.pairwise_lanes_keyed(
            ScheduleKey::Cross,
            lanes,
            seed,
            |r, _| Some(r ^ 1),
            |_, st, window| window.clone_from_slice(st.values),
            |st, _, window| swap_into(st.partner, window),
        );
    } else {
        // Cycle 1: linkless nodes hand their K values across dimension 0.
        machine.exchange_lanes_keyed(
            ScheduleKey::Window { j, hop: 0 },
            lanes,
            seed,
            |r, _| (!rec.has_direct_edge(r, j)).then_some(r ^ 1),
            |_, st, window| window.clone_from_slice(st.values),
            |st, _, window| swap_into(st.fwd, window),
        );
        // Cycle 2: linked nodes exchange (own, forwarded) along dimension
        // j — 2K lanes per message, own values first.
        machine.pairwise_lanes_keyed(
            ScheduleKey::Window { j, hop: 1 },
            2 * lanes,
            seed,
            |r, _| rec.has_direct_edge(r, j).then(|| r ^ (1usize << j)),
            |_, st, window| {
                window[..lanes].clone_from_slice(st.values);
                window[lanes..].clone_from_slice(st.fwd);
            },
            |st, _, window| {
                let (own, fwd) = window.split_at_mut(lanes);
                swap_into(st.partner, own);
                swap_into(st.fwd, fwd);
            },
        );
        // Cycle 3: forwarded values return across dimension 0.
        machine.exchange_lanes_keyed(
            ScheduleKey::Window { j, hop: 2 },
            lanes,
            seed,
            |r, _| rec.has_direct_edge(r, j).then_some(r ^ 1),
            |_, st, window| window.clone_from_slice(st.fwd),
            |st, _, window| swap_into(st.partner, window),
        );
    }
    machine.compute(1, |r, st| {
        for (value, partner) in st.values.iter_mut().zip(st.partner.iter()) {
            *value = apply(r, value, partner);
        }
    });
}

/// A full emulated **descend** sweep (dimensions high → low), the shape of
/// bitonic merging; `apply` is called per dimension as in
/// [`exchange_dim`].
pub fn descend<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    apply: impl Fn(u32, NodeId, &V, &V) -> V + Sync,
) {
    let dims = machine.topology().dims();
    for j in (0..dims).rev() {
        exchange_dim(machine, j, |r, a, b| apply(j, r, a, b));
    }
}

/// A full emulated **ascend** sweep (dimensions low → high), the shape of
/// prefix/reduction algorithms.
pub fn ascend<V: Clone + Send + Sync + 'static>(
    machine: &mut Machine<'_, RecDualCube, EmuState<V>>,
    apply: impl Fn(u32, NodeId, &V, &V) -> V + Sync,
) {
    let dims = machine.topology().dims();
    for j in 0..dims {
        exchange_dim(machine, j, |r, a, b| apply(j, r, a, b));
    }
}

/// Emulated all-reduce: after one ascend sweep combining both operands at
/// every node (in index order: the lower id's value on the left), every
/// node holds the fold of all `2^(2n−1)` values. A demonstration of
/// running a generic hypercube algorithm through the emulation layer; the
/// native collectives in [`crate::collectives`] beat it by ~3× — that gap
/// is experiment E9's point of comparison.
pub fn emulated_allreduce<M: Monoid>(
    rec: &RecDualCube,
    values: Vec<M>,
) -> (Vec<M>, dc_simulator::Metrics) {
    let mut machine = emu_machine(rec, values);
    ascend(&mut machine, |j, r, own, other| {
        if bit(r, j) {
            other.combine(own)
        } else {
            own.combine(other)
        }
    });
    let (states, metrics) = machine.into_parts();
    (states.into_iter().map(|st| st.value).collect(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Sum};
    use dc_topology::Topology;

    #[test]
    fn exchange_dim_delivers_partner_values_every_dimension() {
        // After exchanging at dimension j with apply = "keep partner's
        // value", node r must hold the original value of r ^ (1 << j).
        for n in 1..=4u32 {
            let rec = RecDualCube::new(n);
            for j in 0..rec.dims() {
                let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
                exchange_dim(&mut m, j, |_, _, &p| p);
                let (states, metrics) = m.into_parts();
                for (r, st) in states.iter().enumerate() {
                    assert_eq!(st.value, r ^ (1 << j), "n={n} j={j} r={r}");
                }
                assert_eq!(metrics.comm_steps, dim_comm_cost(j), "n={n} j={j}");
                assert_eq!(metrics.comp_steps, 1);
            }
        }
    }

    #[test]
    fn apply_sees_own_and_partner_in_that_order() {
        let rec = RecDualCube::new(2);
        let values: Vec<Concat> = (0..8u8).map(|i| Concat(i.to_string())).collect();
        let mut m = emu_machine(&rec, values);
        exchange_dim(&mut m, 2, |_, own, other| {
            Concat(format!("{}|{}", own.0, other.0))
        });
        let (states, _) = m.into_parts();
        assert_eq!(states[0].value.0, "0|4");
        assert_eq!(states[4].value.0, "4|0");
    }

    #[test]
    fn descend_and_ascend_touch_every_dimension_once() {
        let rec = RecDualCube::new(2);
        let mut m = emu_machine(&rec, vec![0u32; 8]);
        descend(&mut m, |_, _, own, _| own + 1);
        assert!(m.states().iter().all(|st| st.value == 3)); // 2n−1 = 3 dims
        let comm = m.metrics().comm_steps;
        // dims 2 and 1 cost 3 each; dim 0 costs 1.
        assert_eq!(comm, 2 * 3 + 1);
        ascend(&mut m, |_, _, own, _| own + 10);
        assert!(m.states().iter().all(|st| st.value == 33));
        assert_eq!(m.metrics().comm_steps, 2 * (2 * 3 + 1));
    }

    #[test]
    fn emulated_allreduce_totals_everything() {
        for n in 1..=3 {
            let rec = RecDualCube::new(n);
            let values: Vec<Sum> = (0..rec.num_nodes() as i64).map(Sum).collect();
            let expected: i64 = (0..rec.num_nodes() as i64).sum();
            let (out, metrics) = emulated_allreduce(&rec, values);
            assert!(out.iter().all(|s| s.0 == expected), "n={n}");
            // (2n−2) emulated dims at 3 cycles + the cross dim at 1.
            assert_eq!(metrics.comm_steps, 3 * (2 * n as u64 - 2) + 1);
        }
    }

    #[test]
    fn emulated_allreduce_preserves_index_order() {
        // With Concat, all-reduce must produce the same left-to-right word
        // at every node.
        let rec = RecDualCube::new(2);
        let values: Vec<Concat> = (0..8u8)
            .map(|i| Concat(((b'a' + i) as char).to_string()))
            .collect();
        let (out, _) = emulated_allreduce(&rec, values);
        for st in &out {
            assert_eq!(st.0, "abcdefgh");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dimension_rejected() {
        let rec = RecDualCube::new(2);
        let mut m = emu_machine(&rec, vec![0u8; rec.num_nodes()]);
        exchange_dim(&mut m, 5, |_, &a, _| a);
    }

    #[test]
    fn lane_exchange_delivers_partner_values_every_dimension() {
        // Lane-batched analogue of the single-lane delivery test: with
        // apply = "keep partner", node r's lane k must hold the original
        // lane-k value of r ^ (1 << j), for every lane.
        let lanes = 3;
        for n in 1..=3u32 {
            let rec = RecDualCube::new(n);
            for j in 0..rec.dims() {
                let instances: Vec<Vec<usize>> = (0..lanes)
                    .map(|k| (0..rec.num_nodes()).map(|r| r * 10 + k).collect())
                    .collect();
                let mut slab = batched_emu_slab(&instances, &0);
                let mut m = batched_emu_machine(&rec, &mut slab);
                exchange_dim_lanes(&mut m, j, lanes, &0, |_, _, &p| p);
                let (_, metrics) = m.into_parts();
                for r in 0..rec.num_nodes() {
                    let partner = r ^ (1 << j);
                    for k in 0..lanes {
                        assert_eq!(
                            slab.field(r, 0)[k],
                            partner * 10 + k,
                            "n={n} j={j} r={r} k={k}"
                        );
                    }
                }
                assert_eq!(metrics.comm_steps, dim_comm_cost(j), "n={n} j={j}");
                assert_eq!(metrics.comp_steps, 1);
            }
        }
    }

    #[test]
    fn lane_exchange_charges_k_words_per_message() {
        // Every hop of the emulated window must charge lanes words per
        // message (2·lanes on the piggyback hop), matching K single runs.
        let lanes = 4;
        let rec = RecDualCube::new(2);
        let single_words = {
            let mut m = emu_machine(&rec, (0..rec.num_nodes()).collect::<Vec<_>>());
            exchange_dim(&mut m, 2, |_, _, &p| p);
            m.into_parts().1.message_words
        };
        let instances: Vec<Vec<usize>> = vec![(0..rec.num_nodes()).collect(); lanes];
        let mut slab = batched_emu_slab(&instances, &0);
        let mut m = batched_emu_machine(&rec, &mut slab);
        exchange_dim_lanes(&mut m, 2, lanes, &0, |_, _, &p| p);
        let metrics = m.into_parts().1;
        assert_eq!(metrics.message_words, single_words * lanes as u64);
    }
}
