//! Algorithm 2 — `D_prefix(D_n)`: parallel prefix on the dual-cube in
//! `2n+1` communication and `2n` computation steps (Theorem 1).
//!
//! ## Data layout
//!
//! Node `u` holds `c[lin(u)]` where `lin` is
//! [`dc_topology::DualCube::linear_index`]: the identity for class-0 nodes
//! and the two `(n−1)`-bit fields swapped for class-1 nodes, so that the
//! indices held inside every cluster are consecutive, ordered by node id.
//! All class-0 data precedes all class-1 data.
//!
//! ## The five steps
//!
//! 1. `Cube_prefix` inside every cluster simultaneously (`n−1` comm/comp):
//!    afterwards `t` = own-cluster total, `s` = within-cluster prefix.
//! 2. Exchange `t` over the cross-edges (1 comm). A class-1 node at
//!    position `i` of its cluster now holds the total of class-0 cluster
//!    `i`, and vice versa.
//! 3. *Diminished* `Cube_prefix` inside every cluster over the received
//!    totals (`n−1` comm/comp): afterwards `s′[u]` = combined totals of
//!    the other-class clusters preceding the one `u`'s cross-neighbour
//!    lives in, and `t′[u]` = the other class's grand total.
//! 4. Exchange `s′` over the cross-edges and fold it in on the left
//!    (1 comm + 1 comp): class-0 nodes now hold their final prefix;
//!    class-1 nodes hold their prefix *within the class-1 block*.
//! 5. Class-1 nodes still lack the class-0 grand total — which each of
//!    them already computed in step 3 as its own `t′` (its step-3 scan ran
//!    over the class-0 cluster totals). The paper nonetheless schedules a
//!    cross-edge transfer of `t′` here and counts `T_comm = 2(n−1)+3`;
//!    [`Step5Mode::PaperFaithful`] performs that round (class-1 sends `t′`
//!    to its class-0 neighbour, which discards it) so measured counts
//!    equal the theorem's, while [`Step5Mode::LocalFold`] performs the
//!    purely local update and saves one communication step — the ablation
//!    of experiment E11. Both modes then fold `t′` in on the left at
//!    class-1 nodes (1 comp).

use crate::lanes::LaneSlab;
use crate::ops::Monoid;
use crate::prefix::PrefixKind;
use crate::run::{PhaseSnapshot, Recording};
use dc_simulator::{ExecMode, Machine, Metrics, ScheduleBank, ScheduleKey};
use dc_topology::{bits::bit, Class, DualCube, Topology};

/// How to realise step 5 of Algorithm 2 (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Step5Mode {
    /// Perform the paper's cross-edge round, reproducing `T_comm = 2n+1`
    /// exactly.
    #[default]
    PaperFaithful,
    /// Fold the locally available `t′` without communicating
    /// (`T_comm = 2n`). Results are identical; only the step count
    /// changes.
    LocalFold,
}

/// Per-node state of `D_prefix`, mirroring the four variables of
/// Algorithm 2 plus the input and a landing buffer.
#[derive(Debug, Clone)]
pub struct DPrefixState<M> {
    /// The node's input value `c`.
    pub c: M,
    /// Cluster total (step 1), as in `Cube_prefix`.
    pub t: M,
    /// Running prefix; after step 5 this is the node's final answer.
    pub s: M,
    /// Step-3 total `t′`: the other class's grand total.
    pub t2: M,
    /// Step-3 diminished prefix `s′` over other-class cluster totals.
    pub s2: M,
    temp: Option<M>,
}

/// A phase snapshot view of one node (for the Figure 3 reproduction).
pub type DPrefixView<M> = DPrefixState<M>;

/// Result of a [`d_prefix`] run.
#[derive(Debug, Clone)]
pub struct DPrefixRun<M> {
    /// `s[i]` for every data index `i` (i.e. re-ordered from node order to
    /// [`DualCube::linear_index`] order).
    pub prefixes: Vec<M>,
    /// Step counts; with [`Step5Mode::PaperFaithful`] exactly `2n+1` comm
    /// and `2n` comp (asserted by the integration tests for all tested
    /// `n`).
    pub metrics: Metrics,
    /// Optional snapshots after each of the five steps (plus the initial
    /// distribution), in data-index order — the six panels of Figure 3.
    pub phases: Vec<PhaseSnapshot<DPrefixView<M>>>,
    /// Space-time trace (under [`Recording::Trace`]): per communication
    /// cycle, the delivered `(src, dst)` messages, in node ids.
    pub trace: Vec<Vec<(usize, usize)>>,
}

/// Runs Algorithm 2 on `D_n` with one input value per node, in data-index
/// order (`input[i]` is placed on the node whose
/// [`DualCube::linear_index`] is `i`).
///
/// ```
/// use dc_core::prefix::{dualcube::{d_prefix, Step5Mode}, PrefixKind};
/// use dc_core::ops::Sum;
/// use dc_core::run::Recording;
/// use dc_topology::DualCube;
///
/// let d = DualCube::new(3); // 32 nodes
/// let input: Vec<Sum> = vec![Sum(1); 32];
/// let run = d_prefix(&d, &input, PrefixKind::Inclusive,
///                    Step5Mode::PaperFaithful, Recording::Off);
/// assert_eq!(run.prefixes.iter().map(|s| s.0).collect::<Vec<_>>(),
///            (1..=32).collect::<Vec<_>>());
/// assert_eq!(run.metrics.comm_steps, 2 * 3 + 1); // Theorem 1: 2n+1
/// assert_eq!(run.metrics.comp_steps, 2 * 3);     // Theorem 1: 2n
/// ```
pub fn d_prefix<M: Monoid>(
    d: &DualCube,
    input: &[M],
    kind: PrefixKind,
    step5: Step5Mode,
    recording: Recording,
) -> DPrefixRun<M> {
    assert_eq!(
        input.len(),
        d.num_nodes(),
        "need one input value per node of {}",
        d.name()
    );
    // Place input[lin(u)] on node u.
    let states: Vec<DPrefixState<M>> = (0..d.num_nodes())
        .map(|u| {
            let c = input[d.linear_index(u)].clone();
            DPrefixState {
                t: c.clone(),
                s: match kind {
                    PrefixKind::Inclusive => c.clone(),
                    PrefixKind::Diminished => M::identity(),
                },
                t2: M::identity(),
                s2: M::identity(),
                c,
                temp: None,
            }
        })
        .collect();
    let mut machine = Machine::new(d, states);
    if recording.tracing() {
        machine.enable_trace();
    }
    let mut phases = Vec::new();
    let mut snap = |label: &str, m: &Machine<DualCube, DPrefixState<M>>| {
        if recording.enabled() {
            let mut values: Vec<Option<DPrefixView<M>>> = vec![None; m.num_nodes()];
            for (u, st) in m.states().iter().enumerate() {
                values[d.linear_index(u)] = Some(st.clone());
            }
            phases.push(PhaseSnapshot {
                label: label.to_string(),
                values: values.into_iter().map(|v| v.expect("bijection")).collect(),
            });
        }
    };
    snap("(a) original data distribution", &machine);

    // Step 1: Cube_prefix inside every cluster (over c, requested kind).
    machine.begin_phase("step 1: Cube_prefix inside clusters");
    for i in 0..d.cluster_dim() {
        cluster_ascend_round(d, &mut machine, i, ScanVars::Step1);
    }
    snap("(b) prefix inside cluster (t, s)", &machine);

    // Step 2: exchange cluster totals over the cross-edges (the same
    // compiled pattern step 4 replays).
    machine.begin_phase("step 2: exchange totals via cross-edges");
    machine.pairwise_keyed(
        ScheduleKey::Cross,
        |u, _| Some(d.cross_neighbor(u)),
        |_, st| st.t.clone(),
        |st, _, t| st.temp = Some(t),
    );
    // Seed the step-3 scan variables (a free data movement inside the
    // node, like Algorithm 1's initialisation).
    machine.setup(|_, st| {
        st.t2 = st.temp.take().expect("cross exchange reaches every node");
        st.s2 = M::identity();
    });
    snap("(c) exchange t via cross-edge", &machine);

    // Step 3: diminished Cube_prefix inside every cluster over the
    // received totals.
    machine.begin_phase("step 3: Cube_prefix over received totals");
    for i in 0..d.cluster_dim() {
        cluster_ascend_round(d, &mut machine, i, ScanVars::Step3);
    }
    snap("(d) prefix inside cluster (t', s')", &machine);

    // Step 4: exchange s′ and fold it in on the left everywhere.
    machine.begin_phase("step 4: exchange s' and combine");
    machine.pairwise_keyed(
        ScheduleKey::Cross,
        |u, _| Some(d.cross_neighbor(u)),
        |_, st| st.s2.clone(),
        |st, _, s2| st.temp = Some(s2),
    );
    machine.compute(1, |_, st| {
        let temp = st.temp.take().expect("cross exchange reaches every node");
        st.s = temp.combine(&st.s);
    });
    snap("(e) get s' and prefix one time", &machine);

    // Step 5: class-1 nodes fold in the class-0 grand total (their own
    // t′). PaperFaithful additionally spends the cross-edge round the
    // theorem's arithmetic counts.
    machine.begin_phase("step 5: class-1 folds in class-0 grand total");
    if step5 == Step5Mode::PaperFaithful {
        machine.exchange_keyed(
            ScheduleKey::Custom(0),
            |u, st| (d.class_of(u) == Class::One).then(|| (d.cross_neighbor(u), st.t2.clone())),
            |st, _, t2| st.temp = Some(t2),
        );
        // The delivered value is the receiver's own class's grand total —
        // not needed; discard (see module docs).
        machine.setup(|_, st| {
            st.temp = None;
        });
    }
    machine.compute(1, |u, st| {
        if d.class_of(u) == Class::One {
            st.s = st.t2.combine(&st.s);
        }
    });
    snap("(f) final result", &machine);

    let trace = machine
        .phased_trace()
        .iter()
        .map(|(_, msgs)| msgs.clone())
        .collect();
    let (states, metrics) = machine.into_parts();
    let mut prefixes: Vec<Option<M>> = vec![None; states.len()];
    for (u, st) in states.into_iter().enumerate() {
        prefixes[d.linear_index(u)] = Some(st.s);
    }
    DPrefixRun {
        prefixes: prefixes
            .into_iter()
            .map(|p| p.expect("bijection"))
            .collect(),
        metrics,
        phases,
        trace,
    }
}

/// Per-node state of [`batched_d_prefix`]: the five K-wide variables of
/// Algorithm 2, lane `k` of every slice belonging to instance `k`. Each
/// slice is one field of the node's chunk of the run's [`LaneSlab`].
#[derive(Debug)]
pub struct BatchedDPrefixState<'a, M> {
    /// Cluster totals, one per lane.
    pub t: &'a mut [M],
    /// Running prefixes, one per lane; the final answers after step 5.
    pub s: &'a mut [M],
    /// Step-3 totals `t′`, one per lane.
    pub t2: &'a mut [M],
    /// Step-3 diminished prefixes `s′`, one per lane.
    pub s2: &'a mut [M],
    temp: &'a mut [M],
}

/// Result of a [`batched_d_prefix`] run.
#[derive(Debug, Clone)]
pub struct BatchedDPrefixRun<M> {
    /// `prefixes[k][i]` — instance `k`'s prefix at data index `i`; each
    /// inner vector equals the `prefixes` of a single-lane [`d_prefix`]
    /// run on `inputs[k]`.
    pub prefixes: Vec<Vec<M>>,
    /// Step counts: identical to a single-lane run (`2n+1` comm, `2n`
    /// comp under [`Step5Mode::PaperFaithful`]) — the whole batch shares
    /// one schedule per cycle — with `message_words` scaled by K.
    pub metrics: Metrics,
}

/// Runs K independent instances of Algorithm 2 through lane-batched
/// machine cycles: `inputs[k]` is instance `k`'s input in data-index
/// order. One schedule lookup / validation / delivery sweep per cycle
/// advances all K instances; results are bit-identical to K separate
/// [`d_prefix`] runs.
pub fn batched_d_prefix<M: Monoid>(
    d: &DualCube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
    step5: Step5Mode,
) -> BatchedDPrefixRun<M> {
    batched_d_prefix_reusing(
        d,
        inputs,
        kind,
        step5,
        ExecMode::default(),
        &mut ScheduleBank::new(),
    )
}

/// [`batched_d_prefix`] with an explicit backend and a [`ScheduleBank`]:
/// the machine adopts the bank's compiled schedules before its first
/// cycle and donates them back (plus anything newly compiled) when the
/// run ends. A serving fleet draining a request queue therefore
/// validates each communication pattern once ever, not once per
/// request; because compiled schedules are destination-only, a bank
/// warmed at one lane count serves any other. Results are bit-identical
/// to [`batched_d_prefix`]; only `schedule_misses` and wall-clock
/// differ.
pub fn batched_d_prefix_reusing<M: Monoid>(
    d: &DualCube,
    inputs: &[Vec<M>],
    kind: PrefixKind,
    step5: Step5Mode,
    exec: ExecMode,
    bank: &mut ScheduleBank,
) -> BatchedDPrefixRun<M> {
    let lanes = inputs.len();
    assert!(lanes > 0, "a batched prefix needs at least one instance");
    for (k, input) in inputs.iter().enumerate() {
        assert_eq!(
            input.len(),
            d.num_nodes(),
            "instance {k}: need one input value per node of {}",
            d.name()
        );
    }
    // Slab fields, in view order: t, s, t′, s′, temp.
    let mut slab = LaneSlab::from_fn(
        d.num_nodes(),
        5,
        lanes,
        |u| d.linear_index(u),
        |i, f, k| match (f, kind) {
            (0, _) | (1, PrefixKind::Inclusive) => inputs[k][i].clone(),
            _ => M::identity(),
        },
    );
    let states: Vec<BatchedDPrefixState<M>> = slab
        .views()
        .map(|[t, s, t2, s2, temp]| BatchedDPrefixState { t, s, t2, s2, temp })
        .collect();
    let mut machine = Machine::with_exec(d, states, exec);
    machine.adopt_schedules(bank);
    let seed = M::identity();

    // Step 1: Cube_prefix inside every cluster, all lanes at once.
    machine.begin_phase("step 1: Cube_prefix inside clusters");
    for i in 0..d.cluster_dim() {
        batched_cluster_ascend_round(d, &mut machine, i, lanes, &seed, ScanVars::Step1);
    }

    // Step 2: exchange cluster totals over the cross-edges.
    machine.begin_phase("step 2: exchange totals via cross-edges");
    machine.pairwise_lanes_keyed(
        ScheduleKey::Cross,
        lanes,
        &seed,
        |u, _| Some(d.cross_neighbor(u)),
        |_, st, window| window.clone_from_slice(st.t),
        |st, _, window| {
            for (t, w) in st.temp.iter_mut().zip(window) {
                std::mem::swap(t, w);
            }
        },
    );
    machine.setup(|_, st| {
        st.t2.swap_with_slice(st.temp);
        st.s2.fill_with(M::identity);
    });

    // Step 3: diminished Cube_prefix over the received totals.
    machine.begin_phase("step 3: Cube_prefix over received totals");
    for i in 0..d.cluster_dim() {
        batched_cluster_ascend_round(d, &mut machine, i, lanes, &seed, ScanVars::Step3);
    }

    // Step 4: exchange s′ and fold it in on the left everywhere.
    machine.begin_phase("step 4: exchange s' and combine");
    machine.pairwise_lanes_keyed(
        ScheduleKey::Cross,
        lanes,
        &seed,
        |u, _| Some(d.cross_neighbor(u)),
        |_, st, window| window.clone_from_slice(st.s2),
        |st, _, window| {
            for (t, w) in st.temp.iter_mut().zip(window) {
                std::mem::swap(t, w);
            }
        },
    );
    machine.compute(1, |_, st| {
        for (s, temp) in st.s.iter_mut().zip(st.temp.iter()) {
            *s = temp.combine(s);
        }
    });

    // Step 5: class-1 nodes fold in the class-0 grand total.
    machine.begin_phase("step 5: class-1 folds in class-0 grand total");
    if step5 == Step5Mode::PaperFaithful {
        machine.exchange_lanes_keyed(
            ScheduleKey::Custom(0),
            lanes,
            &seed,
            |u, _| (d.class_of(u) == Class::One).then(|| d.cross_neighbor(u)),
            |_, st, window| window.clone_from_slice(st.t2),
            // Delivered values are the receiver's own class's grand
            // totals — discarded, as in the single-lane run.
            |_, _, _| {},
        );
    }
    machine.compute(1, |u, st| {
        if d.class_of(u) == Class::One {
            for (s, t2) in st.s.iter_mut().zip(st.t2.iter()) {
                *s = t2.combine(s);
            }
        }
    });

    machine.donate_schedules(bank);
    let (_, metrics) = machine.into_parts();
    BatchedDPrefixRun {
        prefixes: slab.take_lanes(1, |i| d.from_linear_index(i), M::identity),
        metrics,
    }
}

/// Lane-batched [`cluster_ascend_round`]: one K-wide exchange of the
/// scanned totals, then a K-wide fold per node.
fn batched_cluster_ascend_round<M: Monoid>(
    d: &DualCube,
    machine: &mut Machine<'_, DualCube, BatchedDPrefixState<M>>,
    i: u32,
    lanes: usize,
    seed: &M,
    vars: ScanVars,
) {
    machine.pairwise_lanes_keyed(
        ScheduleKey::Dim(i),
        lanes,
        seed,
        |u, _| Some(d.cluster_neighbor(u, i)),
        move |_, st, window| {
            window.clone_from_slice(match vars {
                ScanVars::Step1 => st.t,
                ScanVars::Step3 => st.t2,
            })
        },
        |st, _, window| {
            for (t, w) in st.temp.iter_mut().zip(window) {
                std::mem::swap(t, w);
            }
        },
    );
    machine.compute(1, |u, st| {
        let high_side = bit(d.node_id(u), i);
        let (t, s) = match vars {
            ScanVars::Step1 => (&mut st.t, &mut st.s),
            ScanVars::Step3 => (&mut st.t2, &mut st.s2),
        };
        if high_side {
            for ((t, s), temp) in t.iter_mut().zip(s.iter_mut()).zip(st.temp.iter()) {
                *t = temp.combine(t);
                *s = temp.combine(s);
            }
        } else {
            for (t, temp) in t.iter_mut().zip(st.temp.iter()) {
                *t = t.combine(temp);
            }
        }
    });
}

/// Which `(total, prefix)` variable pair an ascend round scans: step 1
/// works on `(t, s)`, step 3 on `(t′, s′)`.
#[derive(Clone, Copy)]
enum ScanVars {
    Step1,
    Step3,
}

/// One ascend round at cluster dimension `i`, running simultaneously in
/// every cluster of both classes.
///
/// The comparison "if `u > ū_i`" of Algorithm 1 becomes "bit `i` of the
/// node id is set": within a cluster, data indices are ordered by node id.
fn cluster_ascend_round<M: Monoid>(
    d: &DualCube,
    machine: &mut Machine<'_, DualCube, DPrefixState<M>>,
    i: u32,
    vars: ScanVars,
) {
    // Steps 1 and 3 sweep the same cluster dimensions, so step 3 replays
    // the schedules step 1 compiled.
    machine.pairwise_keyed(
        ScheduleKey::Dim(i),
        |u, _| Some(d.cluster_neighbor(u, i)),
        move |_, st| match vars {
            ScanVars::Step1 => st.t.clone(),
            ScanVars::Step3 => st.t2.clone(),
        },
        |st, _, t| st.temp = Some(t),
    );
    machine.compute(1, |u, st| {
        let temp = st.temp.take().expect("cluster exchange reaches every node");
        let high_side = bit(d.node_id(u), i);
        let (t, s) = match vars {
            ScanVars::Step1 => (&mut st.t, &mut st.s),
            ScanVars::Step3 => (&mut st.t2, &mut st.s2),
        };
        if high_side {
            *t = temp.combine(t);
            *s = temp.combine(s);
        } else {
            *t = t.combine(&temp);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Concat, Mat2, Sum};
    use crate::prefix::sequential_prefix;
    use proptest::prelude::*;

    fn letters(count: usize) -> Vec<Concat> {
        (0..count)
            .map(|i| {
                let c = char::from_u32('A' as u32 + (i as u32 % 58)).unwrap();
                Concat(format!("{c}"))
            })
            .collect()
    }

    #[test]
    fn prefix_sums_of_ones_match_figure_three() {
        // Figure 3: Prefix_sum([1,1,…,1]) = [1,2,…,32] on D_3.
        let d = DualCube::new(3);
        let input = vec![Sum(1); 32];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        assert_eq!(
            run.prefixes.iter().map(|s| s.0).collect::<Vec<_>>(),
            (1..=32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn theorem_one_step_counts() {
        for n in 1..=6 {
            let d = DualCube::new(n);
            let input = vec![Sum(2); d.num_nodes()];
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.metrics.comm_steps,
                crate::theory::prefix_comm(n),
                "comm n={n}"
            );
            assert_eq!(
                run.metrics.comp_steps,
                crate::theory::prefix_comp(n),
                "comp n={n}"
            );
        }
    }

    #[test]
    fn local_fold_saves_exactly_one_comm_step() {
        let d = DualCube::new(4);
        let input: Vec<Sum> = (0..d.num_nodes() as i64).map(Sum).collect();
        let faithful = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        let local = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::LocalFold,
            Recording::Off,
        );
        assert_eq!(local.prefixes, faithful.prefixes);
        assert_eq!(local.metrics.comm_steps + 1, faithful.metrics.comm_steps);
        assert_eq!(local.metrics.comp_steps, faithful.metrics.comp_steps);
    }

    #[test]
    fn noncommutative_concat_matches_reference() {
        for n in 1..=4 {
            let d = DualCube::new(n);
            let input = letters(d.num_nodes());
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Inclusive,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.prefixes,
                sequential_prefix(&input, PrefixKind::Inclusive),
                "n={n}"
            );
        }
    }

    #[test]
    fn diminished_matches_reference() {
        for n in 2..=4 {
            let d = DualCube::new(n);
            let input = letters(d.num_nodes());
            let run = d_prefix(
                &d,
                &input,
                PrefixKind::Diminished,
                Step5Mode::PaperFaithful,
                Recording::Off,
            );
            assert_eq!(
                run.prefixes,
                sequential_prefix(&input, PrefixKind::Diminished),
                "n={n}"
            );
        }
    }

    #[test]
    fn recording_produces_six_figure_panels() {
        let d = DualCube::new(3);
        let input = vec![Sum(1); 32];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Phases,
        );
        let labels: Vec<&str> = run.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels[0].starts_with("(a)"));
        assert!(labels[5].starts_with("(f)"));
        // Panel (b): inside-cluster prefix of all-ones counts 1..=4 within
        // each of D_3's 4-node clusters.
        let b = &run.phases[1];
        for (i, v) in b.values.iter().enumerate() {
            assert_eq!(v.s.0, (i % 4 + 1) as i64, "panel (b) index {i}");
            assert_eq!(v.t.0, 4);
        }
        // Panel (f) s equals the final output.
        for (i, v) in run.phases[5].values.iter().enumerate() {
            assert_eq!(v.s.0, (i + 1) as i64);
        }
    }

    #[test]
    fn step3_t2_is_other_class_grand_total() {
        let d = DualCube::new(3);
        // Class-0 block holds 1s (total 16), class-1 block holds 2s (total 32).
        let mut input = vec![Sum(1); 16];
        input.extend(vec![Sum(2); 16]);
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Phases,
        );
        let after3 = run
            .phases
            .iter()
            .find(|p| p.label.starts_with("(d)"))
            .unwrap();
        for (i, v) in after3.values.iter().enumerate() {
            let expected = if i < 16 { 32 } else { 16 }; // other class's total
            assert_eq!(v.t2.0, expected, "index {i}");
        }
    }

    #[test]
    fn works_on_degenerate_d1() {
        let d = DualCube::new(1);
        let input = vec![Sum(5), Sum(7)];
        let run = d_prefix(
            &d,
            &input,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
        assert_eq!(run.prefixes, vec![Sum(5), Sum(12)]);
    }

    #[test]
    #[should_panic(expected = "one input value per node")]
    fn wrong_input_length_rejected() {
        d_prefix(
            &DualCube::new(2),
            &[Sum(1); 3],
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            Recording::Off,
        );
    }

    #[test]
    fn schedule_bank_reuse_is_bit_identical_and_skips_revalidation() {
        let d = DualCube::new(3);
        let inputs: Vec<Vec<Sum>> = (0..4)
            .map(|k| (0..d.num_nodes() as i64).map(|i| Sum(i * 7 - k)).collect())
            .collect();
        let baseline =
            batched_d_prefix(&d, &inputs, PrefixKind::Inclusive, Step5Mode::PaperFaithful);

        let mut bank = ScheduleBank::new();
        let first = batched_d_prefix_reusing(
            &d,
            &inputs,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(first.prefixes, baseline.prefixes);
        assert!(first.metrics.schedule_misses > 0, "cold run compiles");

        // Second run adopts the warm bank: zero compilations, every cycle
        // a replay, answers unchanged. Schedules are destination-only, so
        // the warm bank serves a different lane count too.
        let second = batched_d_prefix_reusing(
            &d,
            &inputs[..2],
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            ExecMode::Sequential,
            &mut bank,
        );
        assert_eq!(second.prefixes, baseline.prefixes[..2]);
        assert_eq!(
            second.metrics.schedule_misses, 0,
            "warm run revalidates nothing"
        );
        assert_eq!(
            second.metrics.schedule_hits,
            first.metrics.schedule_hits + first.metrics.schedule_misses
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_reference_on_random_matrices(n in 1u32..=4, seed: u64) {
            let d = DualCube::new(n);
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 13) as i64 - 6
            };
            let input: Vec<Mat2> = (0..d.num_nodes())
                .map(|_| Mat2([[next(), next()], [next(), next()]]))
                .collect();
            let run = d_prefix(&d, &input, PrefixKind::Inclusive, Step5Mode::LocalFold, Recording::Off);
            prop_assert_eq!(run.prefixes, sequential_prefix(&input, PrefixKind::Inclusive));
        }
    }
}
