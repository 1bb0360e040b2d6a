//! Overload drills: work that cannot finish by its deadline must be
//! refused at admission (structured `overloaded` errors, never stalls),
//! expired work must be dropped at dequeue without running the DP, a
//! slow-loris client must not stall other connections — and every plan
//! that *is* served stays bit-identical to offline planning.
//!
//! Deadlines in the admission drills are multiples of a plan time
//! measured here, offline, so the drills mean the same on any host.
//!
//! The storm's burst sizes and the slow-loris stalls come from the
//! deterministic client-event schedule in `madpipe_sim::chaos`
//! (`ClientEvent`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::{ServeConfig, Server};
use madpipe_sim::{ChaosStream, ClientEvent};

/// Heavier than the integration family (more layers) so one plan costs
/// real worker time and a pipelined burst builds a standing queue.
fn chain(seed: u64) -> Chain {
    chain_sized(seed, 8, format!("storm{seed}"))
}

/// `n_layers` layers of [`chain`]'s cost profile: more layers, a
/// costlier plan.
fn chain_sized(seed: u64, n_layers: u64, name: String) -> Chain {
    let layers = (0..n_layers)
        .map(|i| {
            let x = ((seed * 37 + i * 11) % 17 + 1) as f64;
            Layer::new(
                format!("l{i}"),
                1e-3 * x,
                2e-3 * x,
                1 << 20,
                (2 + (i + seed) % 4) << 20,
            )
        })
        .collect();
    Chain::new(name, 1 << 20, layers).unwrap()
}

/// The fixed-cost chain of the admission drills: every request plans
/// [`chain`]`(FIXED)`'s layers under its own name.
const FIXED: u64 = 10;

/// Deadlines in the admission drills, in measured plan times.
const DEADLINE_PLANS: u32 = 5;

/// Median wall time of five offline plans of the fixed-cost chain.
fn offline_plan_time() -> Duration {
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            madpipe_plan(&chain(FIXED), &platform(), &PlannerConfig::default())
                .expect("offline plan");
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[2]
}

fn platform() -> Platform {
    Platform::gb(4, 2, 12.0).unwrap()
}

fn plan_line(chain: &Chain, platform: &Platform) -> String {
    Value::Object(vec![
        ("cmd".into(), Value::Str("plan".into())),
        ("chain".into(), chain.to_json()),
        (
            "platform".into(),
            Value::Object(vec![
                ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
                ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
            ]),
        ),
    ])
    .to_string_compact()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> Value {
    let (mut stream, mut reader) = connect(addr);
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Value::parse(response.trim()).expect("response is JSON")
}

/// Write a whole batch, then read one response per line (the reactor
/// answers pipelined requests in order).
fn pipeline(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    batch: &[String],
) -> Vec<Value> {
    let mut payload = String::new();
    for line in batch {
        payload.push_str(line);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).unwrap();
    batch
        .iter()
        .map(|_| {
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            Value::parse(response.trim()).expect("response is JSON")
        })
        .collect()
}

fn serve_counter(addr: std::net::SocketAddr, name: &str) -> u64 {
    let v = roundtrip(addr, r#"{"cmd":"metrics"}"#);
    let text = v.field("metrics").unwrap().as_str().unwrap();
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn error_kind(v: &Value) -> Option<String> {
    v.field("error")
        .ok()?
        .field("kind")
        .ok()?
        .as_str()
        .ok()
        .map(str::to_string)
}

/// Every ok response must carry a period bit-identical to offline
/// planning of the same seed; overload verdicts must be structured.
fn check_response(v: &Value, seed: u64, oracle: &mut HashMap<u64, u64>) -> &'static str {
    if v.field("ok").unwrap() == &Value::Bool(true) {
        let bits = oracle.entry(seed).or_insert_with(|| {
            madpipe_plan(&chain(seed), &platform(), &PlannerConfig::default())
                .expect("offline plan")
                .period()
                .to_bits()
        });
        let served = v
            .field("plan")
            .unwrap()
            .field("period")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(
            served.to_bits(),
            *bits,
            "seed {seed}: storm-served plan diverged from offline"
        );
        "ok"
    } else {
        match error_kind(v).as_deref() {
            Some("overloaded") => "shed",
            Some("timeout") => "timeout",
            other => panic!(
                "unexpected storm error kind {other:?}: {}",
                v.to_string_compact()
            ),
        }
    }
}

/// Storm request `n`: the fixed-cost chain under its own name, a
/// distinct instance (names are part of the cache key) with exactly the
/// same planning cost.
fn storm_line(n: u64) -> String {
    plan_line(&chain_sized(FIXED, 8, format!("storm-{n}")), &platform())
}

#[test]
fn a_burst_past_the_deadline_is_shed_at_admission() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_entries: 256,
        timeout: offline_plan_time() * DEADLINE_PLANS,
        queue_depth: 64,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // One warm plan gives the daemon its mean plan time; until then it
    // has nothing to judge a queue by and admits everything.
    let (mut stream, mut reader) = connect(addr);
    pipeline(&mut stream, &mut reader, &[storm_line(0)]);

    // 48 distinct same-cost instances at once: one worker can finish
    // about five of them by the deadline, and admission should refuse
    // the rest up front instead of letting them time out in the queue.
    let burst: Vec<String> = (1..=48).map(storm_line).collect();
    let responses = pipeline(&mut stream, &mut reader, &burst);
    let mut oracle = HashMap::new();
    let outcomes: Vec<&str> = responses
        .iter()
        .map(|v| check_response(v, FIXED, &mut oracle))
        .collect();
    let count = |what: &str| outcomes.iter().filter(|o| **o == what).count();
    let shed = count("shed");
    assert!(
        shed >= burst.len() / 2,
        "most of a burst past the deadline is refused at admission \
         (ok {}, shed {shed}, timeout {})",
        count("ok"),
        count("timeout"),
    );
    assert!(
        serve_counter(addr, "madpipe_serve_shed_overload") >= shed as u64,
        "refusals are accounted in serve.shed.overload"
    );
    assert!(count("ok") > 0, "the head of the burst is still served");

    server.shutdown();
    server.join();
}

#[test]
fn sustained_storm_sheds_instead_of_stalling_and_recovers_after_drain() {
    // A deadline of five plan times: behind a queue five deep, a
    // newcomer cannot finish in time, on this host or any other.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1, // one worker: arrivals outpace service by design
        cache_entries: 256,
        timeout: offline_plan_time() * DEADLINE_PLANS,
        queue_depth: 512,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Burst sizes come from the frozen client-event schedule.
    let bursts: Vec<usize> = ChaosStream::client_events(0xC0FFEE, 48)
        .into_iter()
        .filter_map(|e| match e {
            ClientEvent::OverloadStorm { burst } => Some(burst),
            ClientEvent::SlowLoris { .. } => None,
        })
        .collect();
    assert!(bursts.len() >= 8, "schedule yields enough storms");

    // Two closed-loop feeders share the one worker, so each other's
    // batches keep the queue standing while their own submits arrive.
    // Every request is a unique instance of the same cost: no cache
    // hits, every admitted job runs the DP.
    let next_seed = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(3);
    let outcomes: Vec<(u64, &'static str)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_feeder| {
                let next_seed = &next_seed;
                let bursts = &bursts;
                scope.spawn(move || {
                    let mut oracle = HashMap::new();
                    let mut tallies = Vec::new();
                    let (mut stream, mut reader) = connect(addr);
                    for (round, burst) in bursts.iter().cycle().enumerate() {
                        if Instant::now() >= deadline || round >= 24 {
                            break;
                        }
                        let seeds: Vec<u64> = (0..*burst)
                            .map(|_| next_seed.fetch_add(1, Ordering::Relaxed))
                            .collect();
                        let batch: Vec<String> = seeds.iter().map(|s| storm_line(*s)).collect();
                        let responses = pipeline(&mut stream, &mut reader, &batch);
                        for (seed, v) in seeds.iter().zip(&responses) {
                            tallies.push((*seed, check_response(v, FIXED, &mut oracle)));
                        }
                        // Stop early once shedding is observed plus a
                        // little extra load for good measure.
                        if tallies.iter().filter(|(_, o)| *o == "shed").count() > 4 {
                            break;
                        }
                    }
                    tallies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let count = |what: &str| outcomes.iter().filter(|(_, o)| *o == what).count();
    assert!(count("ok") > 0, "the storm still gets work done");
    assert!(
        count("shed") > 0,
        "a storm whose queue outlasts the deadline must be shed at admission \
         (ok {}, shed {}, timeout {})",
        count("ok"),
        count("shed"),
        count("timeout"),
    );
    assert!(
        serve_counter(addr, "madpipe_serve_shed_overload") >= count("shed") as u64,
        "shed responses are accounted in serve.shed.overload"
    );

    // Recovery: once the queue drains, admission opens again — a fresh
    // instance plans fine, first try, no shedding residue.
    for _ in 0..200 {
        let h = roundtrip(addr, r#"{"cmd":"health"}"#);
        let depth = h
            .field("health")
            .unwrap()
            .field("queue_depth")
            .unwrap()
            .as_u64()
            .unwrap();
        if depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let fresh = next_seed.fetch_add(1, Ordering::Relaxed);
    let v = roundtrip(addr, &storm_line(fresh));
    assert_eq!(
        v.field("ok").unwrap(),
        &Value::Bool(true),
        "post-storm request must be admitted again: {}",
        v.to_string_compact()
    );

    server.shutdown();
    server.join();
}

#[test]
fn expired_work_is_dropped_at_dequeue_without_running_the_dp() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_entries: 64,
        // A deadline shorter than the queue the burst builds: the tail
        // of the burst *must* expire while waiting.
        timeout: Duration::from_millis(2),
        queue_depth: 64,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // The daemon has timed no plan yet, so admission lets the whole
    // burst in; a 128-layer head keeps the one worker busy until every
    // deadline behind it has passed: its plan takes 60-140 ms in a
    // release build (0.4 s in debug), 30 deadlines or more.
    let head = plan_line(&chain_sized(1000, 128, "head".into()), &platform());
    let batch: Vec<String> = std::iter::once(head.clone())
        .chain((1001..1024u64).map(|s| plan_line(&chain(s), &platform())))
        .collect();
    let (mut stream, mut reader) = connect(addr);
    let responses = pipeline(&mut stream, &mut reader, &batch);
    let timeouts = responses
        .iter()
        .filter(|v| error_kind(v).as_deref() == Some("timeout"))
        .count();
    assert!(
        timeouts > 0,
        "a 24-deep burst against a 2 ms deadline must expire its tail"
    );
    // The client sees the timeouts at the deadline; the worker reaches
    // the tail only once the head's plan is done.
    let waited = Instant::now();
    let expired = loop {
        let expired = serve_counter(addr, "madpipe_serve_shed_expired");
        if expired > 0 || waited.elapsed() > Duration::from_secs(30) {
            break expired;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        expired > 0,
        "expired jobs are dropped at dequeue and counted (serve.shed.expired)"
    );
    // Dropped-at-dequeue means the DP never ran for them: plans counted
    // stay below the batch size by at least the expired count.
    let plans = serve_counter(addr, "madpipe_serve_plans");
    assert!(
        plans + expired <= batch.len() as u64,
        "expired work must not also burn a DP run (plans {plans}, expired {expired})"
    );
    // The premise: the worker planned the head to the end rather than
    // dropping it. Its own 2 ms deadline passed while it planned, so the
    // burst got a timeout for it; asked again, it is answered with the
    // plan the worker cached.
    let again = roundtrip(addr, &head);
    assert_eq!(
        (again.field("ok").unwrap(), again.field("cached").ok()),
        (&Value::Bool(true), Some(&Value::Bool(true))),
        "the head is answered with a plan, not a timeout (plans {plans}, expired {expired}): {}",
        again.to_string_compact()
    );

    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_clients_do_not_stall_the_reactor() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Loris stalls come from the frozen client-event schedule.
    let stalls: Vec<u64> = ChaosStream::client_events(0xC0FFEE, 48)
        .into_iter()
        .filter_map(|e| match e {
            ClientEvent::SlowLoris { stall_ms } => Some(stall_ms),
            ClientEvent::OverloadStorm { .. } => None,
        })
        .take(3)
        .collect();
    assert!(!stalls.is_empty(), "schedule yields a loris");

    std::thread::scope(|scope| {
        // Each loris dribbles a *valid* request, a few bytes at a time,
        // holding its connection (and a reactor slot) open throughout.
        let lorises: Vec<_> = stalls
            .iter()
            .enumerate()
            .map(|(i, stall)| {
                scope.spawn(move || {
                    let line = plan_line(&chain(2000 + i as u64), &platform());
                    let (mut stream, mut reader) = connect(addr);
                    let bytes = line.as_bytes();
                    for fragment in bytes.chunks(bytes.len() / 8 + 1) {
                        stream.write_all(fragment).unwrap();
                        stream.flush().unwrap();
                        std::thread::sleep(Duration::from_millis(*stall));
                    }
                    stream.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("loris answered");
                    Value::parse(response.trim()).expect("loris response is JSON")
                })
            })
            .collect();

        // Meanwhile ordinary clients must sail through: the dribbling
        // connections own reactor slots, not the reactor's event loop.
        let started = Instant::now();
        for i in 0..10u64 {
            let v = roundtrip(addr, &plan_line(&chain(3000 + i), &platform()));
            assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "normal traffic stalled behind a slow loris: {elapsed:?}"
        );

        // The loris requests themselves, reassembled, answer fine.
        for loris in lorises {
            let v = loris.join().unwrap();
            assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
        }
    });

    server.shutdown();
    server.join();
}
