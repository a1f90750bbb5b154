//! Workload definitions and the seeded request plan.
//!
//! Every constant of a workload (shapes and their weights, outstanding
//! requests, lane cap) arrives from `workloads.json` through the
//! command line; nothing here is derived from a measurement. The plan
//! turns the workload seed into the sequence of `(shape, payload seed)`
//! pairs the generator submits, so one seed always yields one request
//! stream.

use dc_serve::{OpKind, Shape};

/// One request shape and its share of the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeShare {
    pub shape: Shape,
    pub weight: u32,
}

/// A closed-loop workload: one generator thread keeps `outstanding`
/// requests in flight against a server batching at most `max_lanes`.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub outstanding: usize,
    pub max_lanes: usize,
    pub shapes: Vec<ShapeShare>,
}

/// Stable label of a shape, used in metric names: `prefix-sum-d8`.
pub fn label(shape: Shape) -> String {
    format!("{}-d{}", shape.op.name(), shape.n)
}

fn parse_op(name: &str) -> Result<OpKind, String> {
    [OpKind::PrefixSum, OpKind::SortI64, OpKind::AllReduceSum]
        .into_iter()
        .find(|op| op.name() == name)
        .ok_or_else(|| format!("unknown operation {name:?}"))
}

/// Parses `op:n[:weight]` items separated by commas, e.g.
/// `sort:7:1,prefix-sum:6:1`. The weight defaults to 1.
pub fn parse_shapes(spec: &str) -> Result<Vec<ShapeShare>, String> {
    let shares = spec
        .split(',')
        .map(|item| {
            let parts: Vec<&str> = item.split(':').collect();
            if !(2..=3).contains(&parts.len()) {
                return Err(format!("shape {item:?} is not op:n[:weight]"));
            }
            let op = parse_op(parts[0])?;
            let n: u32 = parts[1]
                .parse()
                .map_err(|_| format!("shape {item:?}: bad n"))?;
            if !(1..=dc_serve::MAX_N).contains(&n) {
                return Err(format!("shape {item:?}: n outside 1..={}", dc_serve::MAX_N));
            }
            let weight: u32 = match parts.get(2) {
                Some(w) => w
                    .parse()
                    .map_err(|_| format!("shape {item:?}: bad weight"))?,
                None => 1,
            };
            if weight == 0 || weight > 64 {
                return Err(format!("shape {item:?}: weight outside 1..=64"));
            }
            Ok(ShapeShare {
                shape: Shape { op, n },
                weight,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (i, a) in shares.iter().enumerate() {
        if shares[..i].iter().any(|b| b.shape == a.shape) {
            return Err(format!("shape {} listed twice", label(a.shape)));
        }
    }
    Ok(shares)
}

/// SplitMix64: a tiny, well-mixed generator whose whole state is the
/// seed, so plans are reproducible without any dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound ≥ 1); the modulo bias is below
    /// 2⁻⁵⁰ for the bounds used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The request stream of one workload and seed. Shapes are dealt from
/// a shuffled deck holding each shape `weight` times, so every deck's
/// worth of requests has the exact shares the weights ask for and only
/// the order depends on the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    rng: SplitMix64,
    deck: Vec<usize>,
    next: usize,
}

impl Plan {
    /// A plan over `shapes` drawn from `seed`. Distinct `stream`s of one
    /// seed (timed phase, warm-up, replays) never share a payload seed
    /// in practice.
    pub fn new(shapes: &[ShapeShare], seed: u64, stream: u64) -> Self {
        let deck: Vec<usize> = shapes
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i, s.weight as usize))
            .collect();
        assert!(!deck.is_empty(), "a plan needs at least one shape");
        let next = deck.len();
        Plan {
            rng: SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            deck,
            next,
        }
    }

    /// The next request: index into the workload's shapes, and the
    /// payload seed the server expands into the request's values.
    pub fn next_request(&mut self) -> (usize, u64) {
        if self.next == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i + 1);
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        let shape = self.deck[self.next];
        self.next += 1;
        (shape, self.rng.next_u64())
    }

    /// A payload seed alone, for runs whose shape is already fixed.
    pub fn next_payload(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_mixed_shape_list() {
        let shares = parse_shapes("sort:7:1,sort:6,prefix-sum:6:2,allreduce:8:1").unwrap();
        assert_eq!(shares.len(), 4);
        assert_eq!(label(shares[0].shape), "sort-d7");
        assert_eq!(shares[2].weight, 2);
        assert_eq!(label(shares[3].shape), "allreduce-d8");
        for bad in [
            "",
            "sort",
            "sort:0",
            "sort:11",
            "scan:3",
            "sort:3:0",
            "sort:3,sort:3",
        ] {
            assert!(parse_shapes(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn plans_repeat_per_seed_and_keep_exact_shares() {
        let shares = parse_shapes("sort:7,sort:6,prefix-sum:6,allreduce:8").unwrap();
        let draw = |seed| {
            let mut plan = Plan::new(&shares, seed, 0);
            (0..400).map(|_| plan.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut counts = [0usize; 4];
        for (shape, _) in draw(5) {
            counts[shape] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }
}
