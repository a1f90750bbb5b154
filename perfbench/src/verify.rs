//! Host references and the exact counters every run is checked against.
//!
//! During a timed phase the generator reduces each output to a
//! [`digest`]; after the phase every request's reference output is
//! recomputed on the host and its digest compared, so verification
//! stays outside the timed interval without holding every output in
//! memory. Step counts are checked against the closed forms of the
//! paper's Theorems 1 and 2, and schedule misses against the number of
//! distinct communication patterns each shape compiles. The closed
//! forms are written out here rather than taken from the program, so a
//! change to the program cannot move its own yardstick.

use dc_serve::{seeded_values, OpKind, Shape};

/// Order-sensitive 64-bit digest of an output vector, length included.
pub fn digest(values: &[i64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ values.len() as u64;
    for &v in values {
        h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// The output a correct server returns for `shape` on the payload that
/// `seed` expands to: inclusive prefix sums in data-index order, the
/// keys in ascending order, or the single global sum.
pub fn reference(shape: Shape, seed: u64) -> Vec<i64> {
    let mut values = seeded_values(seed, shape.num_nodes());
    match shape.op {
        OpKind::PrefixSum => {
            let mut acc = 0i64;
            for v in &mut values {
                acc = acc.wrapping_add(*v);
                *v = acc;
            }
            values
        }
        OpKind::SortI64 => {
            values.sort_unstable();
            values
        }
        OpKind::AllReduceSum => vec![values.iter().fold(0i64, |a, &v| a.wrapping_add(v))],
    }
}

/// `(comm, comp)` steps of one run of `shape`. Prefix: Theorem 1 with
/// the paper-faithful step 5 (`2n+1`, `2n`). Sort: Theorem 2's exact
/// recurrence solution (`6n²−7n+2`, `2n²−n`). All-reduce: two cluster
/// butterflies of `n−1` rounds, each round one exchange and one fold,
/// and two cross swaps of which only the second is folded (`2n`,
/// `2n−1`).
pub fn expected_steps(shape: Shape) -> (u64, u64) {
    let n = u64::from(shape.n);
    match shape.op {
        OpKind::PrefixSum => (2 * n + 1, 2 * n),
        OpKind::SortI64 => (6 * n * n + 2 - 7 * n, 2 * n * n - n),
        OpKind::AllReduceSum => (2 * n, 2 * n - 1),
    }
}

/// Distinct communication patterns one run of `shape` compiles on a
/// cold schedule bank: prefix uses the `n−1` cluster dimensions, the
/// cross swap and the class-1 step-5 send (`n+1`); all-reduce the
/// cluster dimensions and the cross swap (`n`); sort emulates each of
/// the `2n−2` non-trivial recursive dimensions in three hops plus the
/// direct dimension 0 (`6n−5`).
pub fn expected_patterns(shape: Shape) -> u64 {
    let n = u64::from(shape.n);
    match shape.op {
        OpKind::PrefixSum => n + 1,
        OpKind::AllReduceSum => n,
        OpKind::SortI64 => 6 * n - 5,
    }
}

/// What the generator keeps of one response to verify it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    pub shape: Shape,
    pub payload_seed: u64,
    pub digest: u64,
    pub comm_steps: u64,
    pub comp_steps: u64,
    pub schedule_misses: u64,
    pub lanes: usize,
}

/// Checks one observed response against its reference. `misses` is the
/// number of schedule misses the run is allowed: the full pattern count
/// on a cold bank, 0 on a warm one.
pub fn check(obs: &Observed, max_lanes: usize, misses: u64) -> Result<(), String> {
    let what = format!(
        "{} payload seed {}",
        crate::workload::label(obs.shape),
        obs.payload_seed
    );
    if digest(&reference(obs.shape, obs.payload_seed)) != obs.digest {
        return Err(format!("{what}: output differs from the host reference"));
    }
    let (comm, comp) = expected_steps(obs.shape);
    if (obs.comm_steps, obs.comp_steps) != (comm, comp) {
        return Err(format!(
            "{what}: ran {} comm / {} comp steps, closed form is {comm} / {comp}",
            obs.comm_steps, obs.comp_steps
        ));
    }
    if obs.schedule_misses != misses {
        return Err(format!(
            "{what}: {} schedule misses, expected {misses}",
            obs.schedule_misses
        ));
    }
    if obs.lanes == 0 || obs.lanes > max_lanes {
        return Err(format!(
            "{what}: served in a batch of {} lanes, cap {max_lanes}",
            obs.lanes
        ));
    }
    Ok(())
}

/// Running count of verified operations and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure keeps its message (the first few
    /// are printed, all are counted).
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_serve::{Payload, Request, Server, ServerConfig};

    fn observed(shape: Shape, seed: u64) -> Observed {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let server = Server::start(ServerConfig::default());
        let response = server
            .call(Request {
                shape,
                payload: Payload::Seeded(seed),
            })
            .unwrap();
        server.shutdown();
        Observed {
            shape,
            payload_seed: seed,
            digest: digest(&response.output),
            comm_steps: response.metrics.comm_steps,
            comp_steps: response.metrics.comp_steps,
            schedule_misses: response.metrics.schedule_misses,
            lanes: response.lanes,
        }
    }

    const SHAPES: [Shape; 3] = [
        Shape {
            op: OpKind::PrefixSum,
            n: 3,
        },
        Shape {
            op: OpKind::SortI64,
            n: 3,
        },
        Shape {
            op: OpKind::AllReduceSum,
            n: 3,
        },
    ];

    #[test]
    fn a_correct_server_passes_every_check() {
        for shape in SHAPES {
            let obs = observed(shape, 11);
            check(&obs, 1, expected_patterns(shape)).unwrap();
        }
    }

    #[test]
    fn a_corrupted_output_is_caught() {
        let shape = SHAPES[0];
        let mut output = reference(shape, 11);
        let good = digest(&output);
        output[17] += 1;
        assert_ne!(digest(&output), good);
        output[17] -= 1;
        output.swap(3, 4);
        assert_ne!(digest(&output), good, "order matters");
        output.swap(3, 4);
        output.pop();
        assert_ne!(digest(&output), good, "length matters");

        let mut obs = observed(shape, 11);
        obs.digest ^= 1;
        assert!(check(&obs, 1, expected_patterns(shape))
            .unwrap_err()
            .contains("host reference"));
    }

    #[test]
    fn a_wrong_step_count_or_miss_count_is_caught() {
        for shape in SHAPES {
            let good = observed(shape, 3);
            let patterns = expected_patterns(shape);
            let mut obs = good;
            obs.comm_steps += 1;
            assert!(check(&obs, 1, patterns).unwrap_err().contains("comm"));
            let mut obs = good;
            obs.comp_steps -= 1;
            assert!(check(&obs, 1, patterns).unwrap_err().contains("comp"));
            assert!(check(&good, 1, 0).unwrap_err().contains("schedule misses"));
            let mut obs = good;
            obs.lanes = 2;
            assert!(check(&obs, 1, patterns).unwrap_err().contains("lanes"));
        }
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        for i in 0..20 {
            tally.record(Err(format!("bad {i}")));
        }
        assert_eq!((tally.attempted, tally.failed), (21, 20));
        assert_eq!(tally.failures.len(), 8);
    }
}
