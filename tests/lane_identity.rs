//! Lane identity: every lane-batched wrapper against K single-lane runs.
//!
//! The batched wrappers keep their K-wide per-node fields in one
//! node-major slab (`dc_core::lanes`), so a wrong stride or field offset
//! would hand one lane's or one field's value to another. This matrix
//! pins the layout from the outside. For K ∈ {1, 2, 5, 8}, lane `k` of
//! each batched run must equal the single-lane run on instance `k`, the
//! batch must pay exactly the single-lane `comm_steps`, `comp_steps` and
//! `messages`, and its `message_words` must be K times the single-lane
//! words. For the prefixes (one word per message) that is K·`messages`;
//! the sort's piggyback hop carries two words per lane.

use dc_core::ops::{Concat, Mat2, Monoid, Sum};
use dc_core::prefix::dualcube::{batched_d_prefix, d_prefix, Step5Mode};
use dc_core::prefix::hypercube::{batched_cube_prefix, cube_prefix};
use dc_core::prefix::PrefixKind;
use dc_core::run::Recording;
use dc_core::sort::dualcube::{batched_d_sort, d_sort};
use dc_core::sort::SortOrder;
use dc_simulator::Metrics;
use dc_topology::{DualCube, Hypercube, RecDualCube, Topology};

const LANE_COUNTS: [usize; 4] = [1, 2, 5, 8];

/// A deterministic value stream, different for every `(lane, index)`.
fn mix(k: usize, i: usize) -> i64 {
    let mut x = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x % 13) as i64 - 6
}

fn sum(k: usize, i: usize) -> Sum {
    Sum(mix(k, i))
}

fn concat(k: usize, i: usize) -> Concat {
    let c = char::from_u32('a' as u32 + (mix(k, i) + 6) as u32).expect("ascii");
    Concat(format!("{c}{k}"))
}

fn mat2(k: usize, i: usize) -> Mat2 {
    Mat2([
        [mix(k, i), mix(k, i + 1)],
        [mix(k + 9, i), mix(k + 9, i + 1)],
    ])
}

fn instances<M>(lanes: usize, nodes: usize, make: impl Fn(usize, usize) -> M) -> Vec<Vec<M>> {
    (0..lanes)
        .map(|k| (0..nodes).map(|i| make(k, i)).collect())
        .collect()
}

/// The batch shares every schedule: same steps and messages as one
/// single-lane run, and K times its words.
fn assert_batch_metrics(batch: &Metrics, single: &Metrics, lanes: usize, what: &str) {
    assert_eq!(batch.comm_steps, single.comm_steps, "{what}: comm_steps");
    assert_eq!(batch.comp_steps, single.comp_steps, "{what}: comp_steps");
    assert_eq!(batch.messages, single.messages, "{what}: messages");
    assert_eq!(
        batch.message_words,
        lanes as u64 * single.message_words,
        "{what}: message_words"
    );
}

fn check_d_prefix<M: Monoid + PartialEq + std::fmt::Debug>(make: impl Fn(usize, usize) -> M) {
    for n in 1..=4 {
        let d = DualCube::new(n);
        for lanes in LANE_COUNTS {
            let inputs = instances(lanes, d.num_nodes(), &make);
            for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
                for step5 in [Step5Mode::PaperFaithful, Step5Mode::LocalFold] {
                    let what = format!("D_{n} K={lanes} {kind:?} {step5:?}");
                    let batch = batched_d_prefix(&d, &inputs, kind, step5);
                    assert_eq!(batch.prefixes.len(), lanes, "{what}");
                    let mut single_metrics = None;
                    for (k, input) in inputs.iter().enumerate() {
                        let single = d_prefix(&d, input, kind, step5, Recording::Off);
                        assert_eq!(batch.prefixes[k], single.prefixes, "{what} lane {k}");
                        single_metrics = Some(single.metrics);
                    }
                    let single = single_metrics.expect("lanes > 0");
                    assert_batch_metrics(&batch.metrics, &single, lanes, &what);
                    assert_eq!(
                        batch.metrics.message_words,
                        lanes as u64 * batch.metrics.messages,
                        "{what}: one word per lane per message"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_d_prefix_lanes_match_single_runs_sum() {
    check_d_prefix(sum);
}

#[test]
fn batched_d_prefix_lanes_match_single_runs_concat() {
    check_d_prefix(concat);
}

#[test]
fn batched_d_prefix_lanes_match_single_runs_mat2() {
    check_d_prefix(mat2);
}

fn check_cube_prefix<M: Monoid + PartialEq + std::fmt::Debug>(make: impl Fn(usize, usize) -> M) {
    for m in 1..=5 {
        let q = Hypercube::new(m);
        for lanes in LANE_COUNTS {
            let inputs = instances(lanes, q.num_nodes(), &make);
            for kind in [PrefixKind::Inclusive, PrefixKind::Diminished] {
                let what = format!("Q_{m} K={lanes} {kind:?}");
                let batch = batched_cube_prefix(&q, &inputs, kind);
                assert_eq!(batch.prefixes.len(), lanes, "{what}");
                let mut single_metrics = None;
                for (k, input) in inputs.iter().enumerate() {
                    let single = cube_prefix(&q, input, kind, Recording::Off);
                    assert_eq!(batch.prefixes[k], single.prefixes, "{what} lane {k}");
                    assert_eq!(batch.totals[k], single.total, "{what} lane {k} total");
                    single_metrics = Some(single.metrics);
                }
                let single = single_metrics.expect("lanes > 0");
                assert_batch_metrics(&batch.metrics, &single, lanes, &what);
                assert_eq!(
                    batch.metrics.message_words,
                    lanes as u64 * batch.metrics.messages,
                    "{what}: one word per lane per message"
                );
            }
        }
    }
}

#[test]
fn batched_cube_prefix_lanes_match_single_runs() {
    check_cube_prefix(sum);
    check_cube_prefix(concat);
    check_cube_prefix(mat2);
}

#[test]
fn batched_d_sort_lanes_match_single_runs() {
    for n in 2..=3 {
        let rec = RecDualCube::new(n);
        for lanes in LANE_COUNTS {
            // Few distinct keys, so lanes hold many duplicates.
            let keys = instances(lanes, rec.num_nodes(), |k, i| mix(k, i) as i32);
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let what = format!("rec n={n} K={lanes} {order:?}");
                let batch = batched_d_sort(&rec, &keys, order);
                assert_eq!(batch.outputs.len(), lanes, "{what}");
                let mut single_metrics = None;
                for (k, instance) in keys.iter().enumerate() {
                    let single = d_sort(&rec, instance, order, Recording::Off);
                    assert_eq!(batch.outputs[k], single.output, "{what} lane {k}");
                    single_metrics = Some(single.metrics);
                }
                let single = single_metrics.expect("lanes > 0");
                assert_batch_metrics(&batch.metrics, &single, lanes, &what);
            }
        }
    }
}
