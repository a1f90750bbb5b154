//! Per-layer measurements of the traced run, taken after its timed
//! phase with the server shut down, each one a span around a direct
//! call into the layer's public API.
//!
//! * **core** replays the batch sizes the timed phase realised for each
//!   shape through the `*_reusing` entry point the server calls, on a
//!   warm schedule bank, and verifies every replayed output.
//! * **simulator** times the pieces of a D_8 run the server pays once
//!   per batch (machine build, bank adopt and donate) and the steady
//!   cross-edge lane cycle the run repeats, as `bench_lanes` runs it.
//! * **topology** times construction and the `linear_index` sweep that
//!   every prefix state build performs.

use crate::stats::{median, weighted_median};
use crate::trace::{SpanId, Tracer};
use crate::verify::{digest, expected_patterns, expected_steps, reference, Tally};
use crate::workload::{label, SplitMix64};
use dc_core::collectives::allreduce::{allreduce_reusing, AllReduceRun};
use dc_core::ops::Sum;
use dc_core::prefix::dualcube::{batched_d_prefix_reusing, BatchedDPrefixRun, Step5Mode};
use dc_core::prefix::PrefixKind;
use dc_core::sort::dualcube::{batched_d_sort_reusing, BatchedSortRun};
use dc_core::sort::SortOrder;
use dc_serve::{seeded_values, OpKind, Shape};
use dc_simulator::{ExecMode, Machine, Metrics, ScheduleBank, ScheduleKey};
use dc_topology::{DualCube, RecDualCube, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;

const EXEC: ExecMode = ExecMode::Sequential;

/// Inputs of one core call, already in the call's own types so the
/// timed span covers the call alone.
enum Inputs {
    Prefix(DualCube, Vec<Vec<Sum>>),
    Sort(RecDualCube, Vec<Vec<i64>>),
    AllReduce(DualCube, Vec<Sum>),
}

enum Ran {
    Prefix(BatchedDPrefixRun<Sum>),
    Sort(BatchedSortRun<i64>),
    AllReduce(AllReduceRun<Sum>),
}

fn prepare(shape: Shape, payload_seeds: &[u64]) -> Inputs {
    let lanes = || {
        payload_seeds
            .iter()
            .map(|&s| seeded_values(s, shape.num_nodes()))
    };
    match shape.op {
        OpKind::PrefixSum => Inputs::Prefix(
            DualCube::new(shape.n),
            lanes().map(|v| v.into_iter().map(Sum).collect()).collect(),
        ),
        OpKind::SortI64 => Inputs::Sort(RecDualCube::new(shape.n), lanes().collect()),
        OpKind::AllReduceSum => {
            assert_eq!(payload_seeds.len(), 1, "all-reduce has no lanes");
            Inputs::AllReduce(
                DualCube::new(shape.n),
                lanes()
                    .next()
                    .expect("one lane")
                    .into_iter()
                    .map(Sum)
                    .collect(),
            )
        }
    }
}

/// The call the server's worker makes for a batch of this shape.
fn call(inputs: &Inputs, bank: &mut ScheduleBank) -> Ran {
    match inputs {
        Inputs::Prefix(d, lanes) => Ran::Prefix(batched_d_prefix_reusing(
            d,
            lanes,
            PrefixKind::Inclusive,
            Step5Mode::PaperFaithful,
            EXEC,
            bank,
        )),
        Inputs::Sort(rec, lanes) => Ran::Sort(batched_d_sort_reusing(
            rec,
            lanes,
            SortOrder::Ascending,
            EXEC,
            bank,
        )),
        Inputs::AllReduce(d, values) => Ran::AllReduce(allreduce_reusing(d, values, EXEC, bank)),
    }
}

fn span_name(op: OpKind) -> &'static str {
    match op {
        OpKind::PrefixSum => "core.batched_d_prefix_reusing",
        OpKind::SortI64 => "core.batched_d_sort_reusing",
        OpKind::AllReduceSum => "core.allreduce_reusing",
    }
}

fn outputs(ran: Ran) -> (Vec<Vec<i64>>, Metrics) {
    match ran {
        Ran::Prefix(run) => (
            run.prefixes
                .into_iter()
                .map(|lane| lane.into_iter().map(|s| s.0).collect())
                .collect(),
            run.metrics,
        ),
        Ran::Sort(run) => (run.outputs, run.metrics),
        Ran::AllReduce(run) => (vec![vec![run.values[0].0]], run.metrics),
    }
}

/// Times one core call and verifies its outputs, steps and misses;
/// returns the call's seconds and its `(comm, comp)` steps.
#[allow(clippy::too_many_arguments)]
fn timed_call(
    shape: Shape,
    payload_seeds: &[u64],
    bank: &mut ScheduleBank,
    misses: u64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
    tally: &mut Tally,
) -> (f64, (u64, u64)) {
    let inputs = prepare(shape, payload_seeds);
    let (ran, secs) = tracer.timed(span_name(shape.op), parent, request, || call(&inputs, bank));
    let (outs, metrics) = outputs(ran);
    let what = format!("core replay {} K={}", label(shape), payload_seeds.len());
    let steps = (metrics.comm_steps, metrics.comp_steps);
    tally.record(if steps != expected_steps(shape) {
        Err(format!(
            "{what}: steps {steps:?}, closed form {:?}",
            expected_steps(shape)
        ))
    } else if metrics.schedule_misses != misses {
        Err(format!(
            "{what}: {} misses, expected {misses}",
            metrics.schedule_misses
        ))
    } else if outs.len() != payload_seeds.len()
        || outs
            .iter()
            .zip(payload_seeds)
            .any(|(out, &s)| digest(out) != digest(&reference(shape, s)))
    {
        Err(format!("{what}: output differs from the host reference"))
    } else {
        Ok(())
    });
    (secs, steps)
}

/// Core figures of one shape.
#[derive(Debug, Clone)]
pub struct CoreShape {
    /// Median warm call time (ms) per realised lane count.
    pub ms_by_lanes: BTreeMap<usize, f64>,
    /// Batch-weighted median call time (ms) and per-lane time (ms).
    pub run_ms: f64,
    pub run_ms_per_lane: f64,
    pub comm_steps: u64,
    pub comp_steps: u64,
    /// Cold-bank call minus warm-bank call at K = 1 (ms).
    pub compile_ms: f64,
}

/// Replays `batches` (lane count → number of batches the timed phase
/// ran at that width) for one shape; a shape the workload did not
/// serve is replayed at K = 1.
pub fn replay_core(
    shape: Shape,
    batches: &BTreeMap<usize, f64>,
    reps: usize,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> CoreShape {
    let root = tracer.open("bench.core", None, 0);
    let mut rng = SplitMix64::new(seed ^ 0x636F_7265 ^ u64::from(shape.n));
    let mut bank = ScheduleBank::new();
    let mut cold = Vec::with_capacity(reps);
    for rep in 0..reps {
        bank = ScheduleBank::new();
        let seeds = [rng.next_u64()];
        let patterns = expected_patterns(shape);
        cold.push(
            timed_call(
                shape,
                &seeds,
                &mut bank,
                patterns,
                tracer,
                Some(root),
                rep as u64,
                tally,
            )
            .0,
        );
    }
    let mut widths: Vec<usize> = batches.keys().copied().collect();
    if !widths.contains(&1) {
        widths.insert(0, 1);
    }
    let mut ms_by_lanes = BTreeMap::new();
    let mut steps = (0, 0);
    for k in widths {
        // Rep 0 brings the allocator and caches to the steady state a
        // serving worker runs in; it is verified but not counted.
        let mut times = Vec::with_capacity(reps);
        for rep in 0..=reps {
            let seeds: Vec<u64> = (0..k).map(|_| rng.next_u64()).collect();
            let (secs, ran) = timed_call(
                shape,
                &seeds,
                &mut bank,
                0,
                tracer,
                Some(root),
                rep as u64,
                tally,
            );
            steps = ran;
            if rep > 0 {
                times.push(secs);
            }
        }
        ms_by_lanes.insert(k, median(times) * 1e3);
    }
    tracer.close(root);
    let weighted = |per: fn(f64, usize) -> f64| {
        let pairs = if batches.is_empty() {
            vec![(per(ms_by_lanes[&1], 1), 1.0)]
        } else {
            batches
                .iter()
                .map(|(&k, &w)| (per(ms_by_lanes[&k], k), w))
                .collect()
        };
        weighted_median(pairs)
    };
    let (comm_steps, comp_steps) = steps;
    CoreShape {
        run_ms: weighted(|ms, _| ms),
        run_ms_per_lane: weighted(|ms, k| ms / k as f64),
        comm_steps,
        comp_steps,
        compile_ms: median(cold) * 1e3 - ms_by_lanes[&1],
        ms_by_lanes,
    }
}

/// The per-node state of a K-lane prefix run: five K-wide vectors, as
/// `batched_d_prefix_reusing` builds them (the core type keeps one of
/// its fields private, so the benchmark builds the same layout itself).
#[allow(dead_code)] // built to be measured, never read
struct LaneState {
    t: Vec<Sum>,
    s: Vec<Sum>,
    t2: Vec<Sum>,
    s2: Vec<Sum>,
    temp: Vec<Sum>,
}

fn lane_states(d: &DualCube, inputs: &[Vec<Sum>]) -> Vec<LaneState> {
    let lanes = inputs.len();
    (0..d.num_nodes())
        .map(|u| {
            let c: Vec<Sum> = inputs.iter().map(|inp| inp[d.linear_index(u)]).collect();
            LaneState {
                s: c.clone(),
                t: c,
                t2: vec![Sum(0); lanes],
                s2: vec![Sum(0); lanes],
                temp: vec![Sum(0); lanes],
            }
        })
        .collect()
}

/// One steady-state lane cycle of `bench_lanes`: a keyed cross-edge
/// exchange of K `u64` lanes plus a no-op compute step.
fn lane_cycle(m: &mut Machine<'_, DualCube, u64>, d: &DualCube, lanes: usize) {
    m.pairwise_lanes_keyed(
        ScheduleKey::Cross,
        lanes,
        &0u64,
        |u, _| Some(d.cross_neighbor(u)),
        |_, &s, window| window.fill(s),
        |s, _, window| {
            for w in window.iter() {
                *s = s.wrapping_add(*w);
            }
        },
    );
    m.compute(1, |_, _| {});
}

/// Settings of the simulator and topology measurements.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Dual-cube parameter of the measured machine.
    pub n: u32,
    /// Repetitions of each measurement; the median is reported.
    pub reps: usize,
    /// Steady-state cycles per timed cycle run.
    pub cycles: usize,
}

/// Named per-layer figures: `(metric name, value, unit)`.
pub type Figures = Vec<(String, f64, &'static str)>;

/// Simulator figures on `D_n`: machine build with 1- and 8-lane prefix
/// states, bank adopt/donate of a warm prefix bank, lane cycles at
/// K = 1, 8, 16 and their cost per delivered message.
pub fn simulator(cfg: MicroConfig, tracer: &mut Tracer, tally: &mut Tally) -> Figures {
    let root = tracer.open("bench.simulator", None, 0);
    let d = DualCube::new(cfg.n);
    let mut out = Figures::new();
    let inputs = |k: usize| -> Vec<Vec<Sum>> {
        (0..k)
            .map(|i| {
                seeded_values(i as u64, d.num_nodes())
                    .into_iter()
                    .map(Sum)
                    .collect()
            })
            .collect()
    };
    for k in [1usize, 8] {
        let lanes = inputs(k);
        let times: Vec<f64> = (0..cfg.reps)
            .map(|rep| {
                let (m, secs) =
                    tracer.timed("simulator.machine_new", Some(root), rep as u64, || {
                        Machine::with_exec(&d, lane_states(&d, &lanes), EXEC)
                    });
                drop(black_box(m));
                secs
            })
            .collect();
        out.push((
            format!("simulator.machine_new_ms.k{k}"),
            median(times) * 1e3,
            "ms",
        ));
    }

    // A bank holding every pattern of a prefix run.
    let mut bank = ScheduleBank::new();
    let lanes = inputs(1);
    let warm = batched_d_prefix_reusing(
        &d,
        &lanes,
        PrefixKind::Inclusive,
        Step5Mode::PaperFaithful,
        EXEC,
        &mut bank,
    );
    let prefix = Shape {
        op: OpKind::PrefixSum,
        n: cfg.n,
    };
    tally.record(
        if warm.metrics.schedule_misses == expected_patterns(prefix) {
            Ok(())
        } else {
            Err(format!(
                "bank warm-up compiled {} patterns",
                warm.metrics.schedule_misses
            ))
        },
    );
    let (mut adopt, mut donate) = (Vec::new(), Vec::new());
    for rep in 0..cfg.reps {
        let mut m = Machine::with_exec(&d, lane_states(&d, &lanes), EXEC);
        adopt.push(
            tracer
                .timed("simulator.adopt_schedules", Some(root), rep as u64, || {
                    m.adopt_schedules(&mut bank)
                })
                .1,
        );
        donate.push(
            tracer
                .timed("simulator.donate_schedules", Some(root), rep as u64, || {
                    m.donate_schedules(&mut bank)
                })
                .1,
        );
    }
    tally.record(if bank.len() as u64 == expected_patterns(prefix) {
        Ok(())
    } else {
        Err(format!(
            "bank holds {} patterns after adopt/donate",
            bank.len()
        ))
    });
    out.push(("simulator.adopt_us".into(), median(adopt) * 1e6, "us"));
    out.push(("simulator.donate_us".into(), median(donate) * 1e6, "us"));

    for k in [1usize, 8, 16] {
        let mut cycle = Vec::with_capacity(cfg.reps);
        let mut per_msg = Vec::with_capacity(cfg.reps);
        for rep in 0..cfg.reps {
            let mut m = Machine::with_exec(&d, vec![0u64; d.num_nodes()], EXEC);
            for _ in 0..2 {
                lane_cycle(&mut m, &d, k); // compile, then first replay
            }
            let before = m.metrics().messages;
            let ((), secs) = tracer.timed("simulator.lane_cycles", Some(root), rep as u64, || {
                for _ in 0..cfg.cycles {
                    lane_cycle(&mut m, &d, k);
                }
            });
            let messages = m.metrics().messages - before;
            tally.record(if m.metrics().schedule_misses == 1 && messages > 0 {
                Ok(())
            } else {
                Err(format!(
                    "lane cycle K={k}: {} misses, {messages} messages",
                    m.metrics().schedule_misses
                ))
            });
            cycle.push(secs / cfg.cycles as f64);
            per_msg.push(secs / messages.max(1) as f64);
        }
        out.push((
            format!("simulator.cycle_us.k{k}"),
            median(cycle) * 1e6,
            "us",
        ));
        if k != 16 {
            out.push((
                format!("simulator.ns_per_msg.k{k}"),
                median(per_msg) * 1e9,
                "ns",
            ));
        }
    }
    tracer.close(root);
    out
}

/// Topology figures: `DualCube::new(n)` and `RecDualCube::new(n − 1)`
/// construction, and the cost per node of a `linear_index` sweep over
/// all of `D_n`. Construction is cheap, so each timed span covers a
/// thousand of them.
pub fn topology(cfg: MicroConfig, tracer: &mut Tracer) -> Figures {
    const BUILDS: usize = 1000;
    let root = tracer.open("bench.topology", None, 0);
    let mut dual = Vec::with_capacity(cfg.reps);
    let mut rec = Vec::with_capacity(cfg.reps);
    let mut sweep = Vec::with_capacity(cfg.reps);
    let d = DualCube::new(cfg.n);
    for rep in 0..cfg.reps {
        let r = rep as u64;
        dual.push(
            tracer
                .timed("topology.dualcube_new", Some(root), r, || {
                    for _ in 0..BUILDS {
                        black_box(DualCube::new(black_box(cfg.n)));
                    }
                })
                .1
                / BUILDS as f64,
        );
        rec.push(
            tracer
                .timed("topology.recdualcube_new", Some(root), r, || {
                    for _ in 0..BUILDS {
                        black_box(RecDualCube::new(black_box(cfg.n - 1)));
                    }
                })
                .1
                / BUILDS as f64,
        );
        let (sum, secs) = tracer.timed("topology.linear_index", Some(root), r, || {
            let d = black_box(&d);
            (0..d.num_nodes()).map(|u| d.linear_index(u)).sum::<usize>()
        });
        black_box(sum);
        sweep.push(secs / d.num_nodes() as f64);
    }
    tracer.close(root);
    vec![
        (
            format!("topology.build_us.dualcube-d{}", cfg.n),
            median(dual) * 1e6,
            "us",
        ),
        (
            format!("topology.build_us.rec-d{}", cfg.n - 1),
            median(rec) * 1e6,
            "us",
        ),
        ("topology.linear_index_ns".into(), median(sweep) * 1e9, "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_replay_verifies_and_covers_every_realised_width() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut tracer = Tracer::new(64);
        let mut tally = Tally::default();
        let shape = Shape {
            op: OpKind::SortI64,
            n: 3,
        };
        let batches = BTreeMap::from([(2, 5.0), (3, 1.0)]);
        let core = replay_core(shape, &batches, 2, 1, &mut tracer, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        assert_eq!(
            core.ms_by_lanes.keys().copied().collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(core.run_ms, core.ms_by_lanes[&2]);
        assert_eq!((core.comm_steps, core.comp_steps), expected_steps(shape));
        // 2 cold + 3 widths × (1 warm-up + 2 reps).
        assert_eq!(tracer.durations_ns("core.batched_d_sort_reusing").len(), 11);

        let ar = Shape {
            op: OpKind::AllReduceSum,
            n: 3,
        };
        replay_core(ar, &BTreeMap::new(), 1, 1, &mut tracer, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    }

    #[test]
    fn simulator_and_topology_figures_are_positive() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = MicroConfig {
            n: 3,
            reps: 2,
            cycles: 4,
        };
        let mut tracer = Tracer::new(64);
        let mut tally = Tally::default();
        let mut figures = simulator(cfg, &mut tracer, &mut tally);
        figures.extend(topology(cfg, &mut tracer));
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        let names: Vec<&str> = figures.iter().map(|f| f.0.as_str()).collect();
        assert!(names.contains(&"simulator.cycle_us.k16"));
        assert!(names.contains(&"topology.build_us.rec-d2"));
        assert!(
            figures.iter().all(|f| f.1.is_finite() && f.1 >= 0.0),
            "{figures:?}"
        );
    }
}
