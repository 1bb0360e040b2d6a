//! End-to-end tests of the planning daemon: concurrent clients, cache
//! hits bit-identical to solo planning, malformed-request survival, and
//! graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::{ServeConfig, Server};

/// A small deterministic instance family: same shape, seed-dependent
/// timings, fast enough to plan many times in a test.
fn instance(seed: u64) -> (Chain, Platform) {
    let layers = (0..6)
        .map(|i| {
            let x = ((seed * 37 + i * 11) % 17 + 1) as f64;
            Layer::new(
                format!("l{i}"),
                1e-3 * x,
                2e-3 * x,
                1 << 20,
                (4 + (i + seed) % 4) << 20,
            )
        })
        .collect();
    let chain = Chain::new(format!("net{seed}"), 1 << 20, layers).unwrap();
    let platform = Platform::gb(4, 2, 12.0).unwrap();
    (chain, platform)
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

/// One round trip on a fresh connection.
fn roundtrip(addr: std::net::SocketAddr, line: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Value::parse(response.trim()).expect("response is JSON")
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        panic_marker: None,
        ..ServeConfig::default()
    })
    .expect("bind")
}

fn counter(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn concurrent_clients_get_plans_bit_identical_to_solo_planning() {
    let server = start_server();
    let addr = server.local_addr();

    // 3 distinct instances over 8 concurrent clients; every client
    // checks its responses against an in-process plan of the same
    // instance, down to the f64 bits of the period.
    let instances: Vec<(Chain, Platform)> = (0..3).map(instance).collect();
    let expected: Vec<f64> = instances
        .iter()
        .map(|(c, p)| {
            madpipe_plan(c, p, &PlannerConfig::default())
                .expect("solo plan")
                .period()
        })
        .collect();

    std::thread::scope(|scope| {
        for client in 0..8usize {
            let instances = &instances;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3usize {
                    let which = (client + round) % instances.len();
                    let (chain, platform) = &instances[which];
                    let v = roundtrip(addr, &plan_line(chain, platform));
                    assert_eq!(
                        v.field("ok").unwrap(),
                        &Value::Bool(true),
                        "client {client} round {round}: {}",
                        v.to_string_compact()
                    );
                    let period = v
                        .field("plan")
                        .unwrap()
                        .field("period")
                        .unwrap()
                        .as_f64()
                        .unwrap();
                    assert_eq!(
                        period.to_bits(),
                        expected[which].to_bits(),
                        "served plan must be bit-identical to solo planning"
                    );
                }
            });
        }
    });

    // 8 clients × 3 rounds over 3 instances: at most one miss per
    // distinct instance can *compute* fresh work per worker, everything
    // else must be a hit somewhere. Verify through the counters.
    let metrics = roundtrip(addr, r#"{"cmd":"metrics"}"#);
    let text = metrics
        .field("metrics")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let hits = counter(&text, "madpipe_serve_cache_hits");
    let misses = counter(&text, "madpipe_serve_cache_misses");
    let plan_requests = counter(&text, "madpipe_serve_requests_plan");
    assert_eq!(plan_requests, 24);
    assert_eq!(hits + misses, plan_requests, "every request hits or misses");
    assert!(misses >= 3, "each distinct instance misses at least once");
    assert!(hits > 0, "repeats must be served from cache");

    server.shutdown();
    server.join();
}

#[test]
fn repeat_requests_are_counter_verified_cache_hits() {
    let server = start_server();
    let addr = server.local_addr();
    let (chain, platform) = instance(9);
    let line = plan_line(&chain, &platform);

    let first = roundtrip(addr, &line);
    assert_eq!(first.field("cached").unwrap(), &Value::Bool(false));
    let second = roundtrip(addr, &line);
    assert_eq!(second.field("cached").unwrap(), &Value::Bool(true));
    assert_eq!(
        first.field("plan").unwrap().to_string_compact(),
        second.field("plan").unwrap().to_string_compact(),
        "cached response must be byte-identical"
    );
    assert_eq!(server.registry().counter("serve.cache.hits"), 1);
    assert_eq!(server.registry().counter("serve.cache.misses"), 1);

    // The same instance in GiB units and different key order is the
    // same canonical instance → another hit.
    let gib = (1u64 << 30) as f64;
    let alt = line.replace(
        &format!(
            r#""n_gpus":4,"memory_bytes":{},"bandwidth_bytes":{}"#,
            platform.memory_bytes,
            Value::Float(platform.bandwidth).to_string_compact()
        ),
        &format!(
            r#""bandwidth_gb":{},"memory_gb":2.0,"n_gpus":4"#,
            Value::Float(platform.bandwidth / gib).to_string_compact()
        ),
    );
    assert_ne!(alt, line, "replacement must apply");
    let third = roundtrip(addr, &alt);
    assert_eq!(
        third.field("cached").unwrap(),
        &Value::Bool(true),
        "unit-normalized request must hit: {}",
        third.to_string_compact()
    );
    assert_eq!(server.registry().counter("serve.cache.hits"), 2);

    server.shutdown();
    server.join();
}

#[test]
fn malformed_and_invalid_requests_never_kill_the_server() {
    let server = start_server();
    let addr = server.local_addr();

    // Garbage, unknown command, missing fields: structured errors.
    for (line, kind) in [
        ("this is not json", "malformed"),
        (r#"{"cmd":"explode"}"#, "malformed"),
        (r#"{"cmd":"plan"}"#, "malformed"),
    ] {
        let v = roundtrip(addr, line);
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(false), "{line}");
        assert_eq!(
            v.field("error").unwrap().field("kind").unwrap().as_str(),
            Ok(kind),
            "{line}"
        );
    }

    // A NaN cannot be written in JSON, but 1e999 parses to +inf — the
    // validation layer must reject it with a descriptive message.
    let (chain, platform) = instance(1);
    let inf_line =
        plan_line(&chain, &platform).replace("\"forward_time\":", "\"forward_time\":1e999,\"x\":");
    let v = roundtrip(addr, &inf_line);
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(false));
    let err = v.field("error").unwrap();
    assert_eq!(err.field("kind").unwrap().as_str(), Ok("invalid"));
    let msg = err.field("message").unwrap().as_str().unwrap();
    assert!(msg.contains("finite"), "descriptive error, got: {msg}");

    // Negative timing straight from JSON.
    let neg_line =
        plan_line(&chain, &platform).replacen("\"backward_time\":", "\"backward_time\":-", 1);
    let v = roundtrip(addr, &neg_line);
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(false));

    // Several bad lines then a good one on a single connection — the
    // connection and the server both survive.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let good = plan_line(&chain, &platform);
    stream
        .write_all(format!("garbage\n\n{{\"cmd\":\"nope\"}}\n{good}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        lines.push(Value::parse(l.trim()).unwrap());
    }
    assert_eq!(lines[0].field("ok").unwrap(), &Value::Bool(false));
    assert_eq!(lines[1].field("ok").unwrap(), &Value::Bool(false));
    assert_eq!(
        lines[2].field("ok").unwrap(),
        &Value::Bool(true),
        "good request after garbage must still be served"
    );

    assert!(server.registry().counter("serve.errors.malformed") >= 3);
    assert!(server.registry().counter("serve.errors.invalid") >= 2);

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_request_drains_gracefully() {
    let server = start_server();
    let addr = server.local_addr();
    let (chain, platform) = instance(2);

    // In-flight request completes, then drain.
    let v = roundtrip(addr, &plan_line(&chain, &platform));
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));

    let ack = roundtrip(addr, r#"{"cmd":"shutdown"}"#);
    assert_eq!(ack.field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(ack.field("draining").unwrap(), &Value::Bool(true));
    assert!(server.is_draining());
    // join() returning proves the acceptor, connections and workers all
    // exited; afterwards the port no longer accepts work.
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_survives() {
    let server = start_server();
    let addr = server.local_addr();
    let (chain, platform) = instance(4);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // Stream > 1 MiB without a newline: the server must reject it while
    // it is still arriving, not buffer it all.
    let junk = vec![b'x'; 600 << 10];
    stream.write_all(&junk).unwrap();
    stream.write_all(&junk).unwrap();
    let mut reader = BufReader::new(stream);
    let mut l = String::new();
    reader.read_line(&mut l).expect("rejection arrives early");
    let v = Value::parse(l.trim()).unwrap();
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(false));
    let err = v.field("error").unwrap();
    assert_eq!(err.field("kind").unwrap().as_str(), Ok("malformed"));
    assert!(err
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("exceeds"));

    // Finish the oversized line, then a good request on the *same*
    // connection: the tail of the junk is discarded, the request served.
    let stream = reader.get_mut();
    stream.write_all(b"tail-of-junk\n").unwrap();
    let good = plan_line(&chain, &platform);
    stream.write_all(format!("{good}\n").as_bytes()).unwrap();
    let mut l = String::new();
    reader.read_line(&mut l).unwrap();
    let v = Value::parse(l.trim()).unwrap();
    assert_eq!(
        v.field("ok").unwrap(),
        &Value::Bool(true),
        "request after oversized line must be served: {}",
        v.to_string_compact()
    );
    assert_eq!(server.registry().counter("serve.errors.oversized"), 1);

    server.shutdown();
    server.join();
}

#[test]
fn health_reports_workers_and_queue() {
    let server = start_server();
    let addr = server.local_addr();
    let v = roundtrip(addr, r#"{"cmd":"health"}"#);
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
    let h = v.field("health").unwrap();
    assert_eq!(h.field("draining").unwrap(), &Value::Bool(false));
    assert_eq!(h.field("workers_alive").unwrap(), &Value::UInt(2));
    assert_eq!(h.field("workers_configured").unwrap(), &Value::UInt(2));
    assert_eq!(h.field("queue_depth").unwrap(), &Value::UInt(0));
    assert_eq!(h.field("queue_capacity").unwrap(), &Value::UInt(64));
    assert_eq!(h.field("cached_plans").unwrap(), &Value::UInt(0));
    assert_eq!(h.field("panics").unwrap(), &Value::UInt(0));
    assert_eq!(h.field("respawns").unwrap(), &Value::UInt(0));

    server.shutdown();
    server.join();
}

#[test]
fn health_right_after_start_counts_every_worker() {
    // Workers are counted on the spawning thread, so no scheduling delay
    // of the worker threads can make a fresh daemon under-report.
    for round in 0..50 {
        let server = start_server();
        let v = roundtrip(server.local_addr(), r#"{"cmd":"health"}"#);
        let h = v.field("health").unwrap();
        assert_eq!(
            h.field("workers_alive").unwrap(),
            &Value::UInt(2),
            "round {round}"
        );
        server.shutdown();
        server.join();
    }
}

/// Turn a plan line into a replan line carrying `fault`.
fn replan_line(chain: &Chain, platform: &Platform, fault_json: &str) -> String {
    plan_line(chain, platform).replacen(
        r#""cmd":"plan""#,
        &format!(r#""cmd":"replan","fault":{fault_json}"#),
        1,
    )
}

#[test]
fn replan_matches_offline_planning_and_unifies_with_the_plan_cache() {
    let server = start_server();
    let addr = server.local_addr();
    let (chain, platform) = instance(5);

    let v = roundtrip(
        addr,
        &replan_line(&chain, &platform, r#"{"kind":"gpu_loss","count":1}"#),
    );
    assert_eq!(
        v.field("ok").unwrap(),
        &Value::Bool(true),
        "{}",
        v.to_string_compact()
    );
    let served = v
        .field("plan")
        .unwrap()
        .field("period")
        .unwrap()
        .as_f64()
        .unwrap();

    // The degraded plan must be bit-identical to offline planning on the
    // surviving platform.
    let survivor = Platform::new(3, platform.memory_bytes, platform.bandwidth).unwrap();
    let offline = madpipe_plan(&chain, &survivor, &PlannerConfig::default()).unwrap();
    assert_eq!(served.to_bits(), offline.period().to_bits());

    // The replan object reports the fault and a non-positive delta.
    let replan = v.field("replan").unwrap();
    assert_eq!(
        replan
            .field("fault")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str(),
        Ok("gpu_loss")
    );
    assert_eq!(
        replan.field("platform").unwrap().field("n_gpus").unwrap(),
        &Value::UInt(3)
    );
    let delta = replan.field("throughput_delta").unwrap().as_f64().unwrap();
    assert!(delta <= 1e-12, "GPU loss raised throughput by {delta}");

    // Cache unification, both directions: the replan left the baseline
    // AND the survivor in the cache, so a direct plan of either is a
    // hit; and a second replan is answered fully from cache.
    let direct = roundtrip(addr, &plan_line(&chain, &survivor));
    assert_eq!(
        direct.field("cached").unwrap(),
        &Value::Bool(true),
        "direct plan of the survivor must hit the replan-derived entry"
    );
    let direct_base = roundtrip(addr, &plan_line(&chain, &platform));
    assert_eq!(direct_base.field("cached").unwrap(), &Value::Bool(true));
    let again = roundtrip(
        addr,
        &replan_line(&chain, &platform, r#"{"kind":"gpu_loss","count":1}"#),
    );
    assert_eq!(again.field("cached").unwrap(), &Value::Bool(true));
    assert_eq!(
        again
            .field("replan")
            .unwrap()
            .field("baseline")
            .unwrap()
            .field("cached")
            .unwrap(),
        &Value::Bool(true)
    );
    assert_eq!(server.registry().counter("serve.requests.replan"), 2);
    assert_eq!(server.registry().counter("replan.fault.gpu_loss"), 2);

    // An inapplicable fault is a structured `invalid`, not a crash.
    let lethal = roundtrip(
        addr,
        &replan_line(&chain, &platform, r#"{"kind":"gpu_loss","count":4}"#),
    );
    assert_eq!(lethal.field("ok").unwrap(), &Value::Bool(false));
    assert_eq!(
        lethal
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str(),
        Ok("invalid")
    );

    server.shutdown();
    server.join();
}

#[test]
fn ping_and_metrics_commands() {
    let server = start_server();
    let addr = server.local_addr();
    let pong = roundtrip(addr, r#"{"cmd":"ping"}"#);
    assert_eq!(pong.field("pong").unwrap(), &Value::Bool(true));
    let metrics = roundtrip(addr, r#"{"cmd":"metrics"}"#);
    let text = metrics.field("metrics").unwrap().as_str().unwrap();
    assert!(
        text.contains("madpipe_serve_requests"),
        "prometheus dump must include serve counters: {text}"
    );
    server.shutdown();
    server.join();
}

/// Regression: the worker must build its probe session under the
/// request's policy spec. A default-built session refuses non-default
/// requests with `PolicyMismatch`, which used to surface as a `plan`
/// error for every `--recompute`/`--weights` request over the wire.
#[test]
fn policy_requests_plan_and_match_solo_planning() {
    use madpipe_model::{PolicySpec, RecomputeMode, WeightPolicy};

    let server = start_server();
    let addr = server.local_addr();
    let (chain, platform) = instance(1);

    let policy = PolicySpec {
        recompute: RecomputeMode::Always,
        weights: WeightPolicy::TwoBw,
    };
    let cfg = PlannerConfig {
        policy,
        ..PlannerConfig::default()
    };
    let expected = madpipe_plan(&chain, &platform, &cfg).expect("solo policy plan");

    let mut line = plan_line(&chain, &platform);
    line.truncate(line.len() - 1); // drop the closing `}`
    line.push_str(r#", "config": {"recompute": "always", "weights": "2bw"}}"#);
    let v = roundtrip(addr, &line);
    assert_eq!(
        v.field("ok").unwrap(),
        &Value::Bool(true),
        "policy plan failed: {}",
        v.to_string_compact()
    );
    let plan = v.field("plan").unwrap();
    let period = plan.field("period").unwrap().as_f64().unwrap();
    assert_eq!(
        period.to_bits(),
        expected.period().to_bits(),
        "served policy plan must be bit-identical to solo planning"
    );
    // Per-stage policies ride the wire.
    for stage in plan.field("stages").unwrap().as_array().unwrap() {
        assert_eq!(stage.field("activation").unwrap().as_str(), Ok("recompute"));
        assert_eq!(stage.field("weights").unwrap().as_str(), Ok("2bw"));
    }
    // The same instance under the default policy is a different cache
    // entry with a different (or absent) plan — never an alias.
    let default = roundtrip(addr, &plan_line(&chain, &platform));
    if default.field("ok").unwrap() == &Value::Bool(true) {
        let p = default
            .field("plan")
            .unwrap()
            .field("period")
            .unwrap()
            .as_f64()
            .unwrap();
        let solo = madpipe_plan(&chain, &platform, &PlannerConfig::default())
            .expect("solo default plan")
            .period();
        assert_eq!(p.to_bits(), solo.to_bits());
    }
    server.shutdown();
    server.join();
}
