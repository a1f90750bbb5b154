//! The load generator: set-up, warm-up and the closed loop.
//!
//! One generator thread keeps a workload's `outstanding` requests in
//! flight against a `Server` with one worker on the sequential backend,
//! so the load uses two threads in all. Each reply is awaited in
//! submission order before the next request goes out. A request's
//! latency is the duration of its `Server::submit` call plus the
//! queue and service times the server stamped on its `Response`, so
//! time a finished reply spends waiting for the generator to collect
//! it is never counted.

use crate::trace::{SpanId, Tracer};
use crate::verify::{check, digest, expected_patterns, Observed, Tally};
use crate::workload::{label, Plan, Workload};
use dc_serve::{Payload, Request, Response, Server, ServerConfig, Shape, StatsSnapshot, Ticket};
use dc_simulator::ExecMode;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Plan stream of the warm-up requests (timed requests use stream 0).
const WARMUP_STREAM: u64 = 1;

/// The server every workload runs against.
pub fn server_config(wl: &Workload) -> ServerConfig {
    ServerConfig::default()
        .workers(1)
        .max_lanes(wl.max_lanes)
        .exec(ExecMode::Sequential)
}

fn observe(shape: Shape, payload_seed: u64, response: &Response) -> Observed {
    Observed {
        shape,
        payload_seed,
        digest: digest(&response.output),
        comm_steps: response.metrics.comm_steps,
        comp_steps: response.metrics.comp_steps,
        schedule_misses: response.metrics.schedule_misses,
        lanes: response.lanes,
    }
}

/// A started, warmed server and the set-up times that produced it.
pub struct Ready {
    pub server: Server,
    /// Seconds per set-up; the first counts from process start.
    pub setup_s: Vec<f64>,
}

/// Sets the workload up `repeats` times: start a server and send one
/// request of every shape, which compiles every pattern the workload
/// uses. All but the last server are shut down again; the last one is
/// returned for the timed phase. Warm-up replies are verified after
/// each set-up's clock stops, including that each compiled exactly the
/// shape's pattern count.
pub fn set_up(
    wl: &Workload,
    seed: u64,
    repeats: usize,
    first_start: Instant,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Ready {
    assert!(repeats >= 1, "at least one set-up");
    let mut setup_s = Vec::with_capacity(repeats);
    let mut server = None;
    for r in 0..repeats {
        let t0 = if r == 0 { first_start } else { Instant::now() };
        let root = tracer.as_mut().map(|t| t.open("bench.setup", None, 0));
        let mut plan = Plan::new(&wl.shapes, seed, WARMUP_STREAM);
        let started = match tracer.as_mut() {
            Some(t) => t.span("serve.start", root, 0, || Server::start(server_config(wl))),
            None => Server::start(server_config(wl)),
        };
        let mut warmed = Vec::with_capacity(wl.shapes.len());
        for share in &wl.shapes {
            let payload_seed = plan.next_payload();
            let request = Request {
                shape: share.shape,
                payload: Payload::Seeded(payload_seed),
            };
            let reply = match tracer.as_mut() {
                Some(t) => t.span("serve.call", root, 0, || started.call(request)),
                None => started.call(request),
            };
            warmed.push((share.shape, payload_seed, reply));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root);
        }
        for (shape, payload_seed, reply) in warmed {
            tally.record(match reply {
                Ok(response) => check(
                    &observe(shape, payload_seed, &response),
                    wl.max_lanes,
                    expected_patterns(shape),
                ),
                Err(rejected) => Err(format!("warm-up {} rejected: {rejected}", label(shape))),
            });
        }
        if r + 1 < repeats {
            started.shutdown();
        } else {
            server = Some(started);
        }
    }
    Ready {
        server: server.expect("the last set-up keeps its server"),
        setup_s,
    }
}

/// One completed request of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub obs: Observed,
    pub submit: Duration,
    pub queued: Duration,
    pub service: Duration,
    /// When the generator collected the reply, from the phase start.
    pub done: Duration,
}

impl Sample {
    /// From the start of `Server::submit` to the server's completion.
    pub fn latency(&self) -> Duration {
        self.submit + self.queued + self.service
    }
}

/// Everything a timed phase produced.
pub struct LoopRun {
    pub samples: Vec<Sample>,
    /// From the first submit to the last reply collected.
    pub elapsed: Duration,
    pub rejections: Vec<String>,
    /// Most requests the generator ever had in flight.
    pub max_in_flight: usize,
    /// Threads of this process, and server worker threads among them,
    /// while the loop held its full load.
    pub threads: Option<usize>,
    pub worker_threads: Option<usize>,
    /// Server counters at the start and end of the phase.
    pub before: StatsSnapshot,
    pub after: StatsSnapshot,
}

impl LoopRun {
    pub fn throughput_rps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Verifies every reply of the phase; timed runs must hit the warm
    /// banks, so any schedule miss is a failure.
    pub fn verify(&self, wl: &Workload, tally: &mut Tally) {
        for s in &self.samples {
            tally.record(check(&s.obs, wl.max_lanes, 0));
        }
        for r in &self.rejections {
            tally.record(Err(r.clone()));
        }
    }
}

/// Threads of the calling process, from `/proc/self/status`.
pub fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Threads of the calling process named after the server's workers
/// (`dc-serve-worker-<i>`, which the kernel truncates to 15 bytes).
pub fn worker_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("dc-serve-worker"))
            .count(),
    )
}

/// Runs the closed loop for `seconds`: submits until `outstanding`
/// requests are in flight, waits for the oldest, repeats. No request is
/// submitted after the deadline; those in flight then are drained and
/// counted.
pub fn closed_loop(
    server: &Server,
    wl: &Workload,
    plan: &mut Plan,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> LoopRun {
    struct InFlight {
        ticket: Ticket,
        shape: Shape,
        payload_seed: u64,
        submit: Duration,
        id: u64,
    }
    let before = server.stats();
    let root: Option<SpanId> = tracer.as_mut().map(|t| t.open("bench.timed", None, 0));
    let mut samples = Vec::new();
    let mut rejections = Vec::new();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(wl.outstanding);
    let mut max_in_flight = 0;
    let (mut threads, mut workers) = (None, None);
    let mut next_id = 1u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        while in_flight.len() < wl.outstanding && Instant::now() < deadline {
            let (index, payload_seed) = plan.next_request();
            let shape = wl.shapes[index].shape;
            let request = Request {
                shape,
                payload: Payload::Seeded(payload_seed),
            };
            let id = next_id;
            next_id += 1;
            let t0 = Instant::now();
            let submitted = match tracer.as_mut() {
                Some(t) => t.span("serve.submit", root, id, || server.submit(request)),
                None => server.submit(request),
            };
            let submit = t0.elapsed();
            match submitted {
                Ok(ticket) => in_flight.push_back(InFlight {
                    ticket,
                    shape,
                    payload_seed,
                    submit,
                    id,
                }),
                Err(rejected) => rejections.push(format!("{} rejected: {rejected}", label(shape))),
            }
            max_in_flight = max_in_flight.max(in_flight.len());
        }
        if threads.is_none() && in_flight.len() == wl.outstanding {
            threads = process_threads();
            workers = worker_threads();
        }
        let Some(next) = in_flight.pop_front() else {
            break;
        };
        let response = match tracer.as_mut() {
            Some(t) => t.span("serve.wait", root, next.id, || next.ticket.wait()),
            None => next.ticket.wait(),
        };
        samples.push(Sample {
            obs: observe(next.shape, next.payload_seed, &response),
            submit: next.submit,
            queued: response.queued,
            service: response.service,
            done: start.elapsed(),
        });
    }
    let elapsed = start.elapsed();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    LoopRun {
        samples,
        elapsed,
        rejections,
        max_in_flight,
        threads,
        worker_threads: workers,
        before,
        after: server.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::parse_shapes;

    fn tiny(outstanding: usize, shapes: &str) -> Workload {
        Workload {
            name: "test".into(),
            outstanding,
            max_lanes: 4,
            shapes: parse_shapes(shapes).unwrap(),
        }
    }

    #[test]
    fn generator_never_exceeds_its_outstanding_count_or_its_threads() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for outstanding in [1, 3] {
            let wl = tiny(outstanding, "prefix-sum:3,sort:3");
            let mut tally = Tally::default();
            let ready = set_up(&wl, 9, 2, Instant::now(), &mut tally, None);
            let mut plan = Plan::new(&wl.shapes, 9, 0);
            let run = closed_loop(&ready.server, &wl, &mut plan, 0.2, None);
            ready.server.shutdown();
            assert_eq!(run.max_in_flight, outstanding);
            assert!(run.samples.len() > outstanding);
            assert!(run.samples.iter().all(|s| s.obs.lanes <= outstanding));
            run.verify(&wl, &mut tally);
            assert_eq!(tally.failed, 0, "{:?}", tally.failures);
            // The load is this test's thread plus one server worker: two
            // threads, within a 2-core host.
            if let Some(workers) = run.worker_threads {
                assert_eq!(workers, 1);
            }
            let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
            assert!(server_config(&wl).workers < cores.max(2));
        }
    }

    #[test]
    fn warm_up_compiles_every_pattern_then_the_loop_only_hits() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let wl = tiny(2, "prefix-sum:3,allreduce:3,sort:2");
        let mut tally = Tally::default();
        let ready = set_up(&wl, 4, 1, Instant::now(), &mut tally, None);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        let mut plan = Plan::new(&wl.shapes, 4, 0);
        let run = closed_loop(&ready.server, &wl, &mut plan, 0.1, None);
        ready.server.shutdown();
        let patterns: u64 = wl.shapes.iter().map(|s| expected_patterns(s.shape)).sum();
        assert_eq!(run.before.schedule_misses, patterns);
        assert_eq!(run.after.schedule_misses, patterns);
        assert!(run.after.schedule_hits > run.before.schedule_hits);
        run.verify(&wl, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    }

    #[test]
    fn latency_adds_submit_queue_and_service() {
        let s = Sample {
            obs: Observed {
                shape: Shape {
                    op: dc_serve::OpKind::PrefixSum,
                    n: 1,
                },
                payload_seed: 0,
                digest: 0,
                comm_steps: 0,
                comp_steps: 0,
                schedule_misses: 0,
                lanes: 1,
            },
            submit: Duration::from_micros(5),
            queued: Duration::from_micros(100),
            service: Duration::from_micros(900),
            done: Duration::ZERO,
        };
        assert_eq!(s.latency(), Duration::from_micros(1005));
    }
}
