//! Protocol-framing tests for the reactor: the wire patterns a
//! pipelining client produces. Partial reads, several requests in one
//! TCP segment, one request smeared over many segments, an oversized
//! line in the middle of a pipeline — in every case responses come back
//! complete, in request order, on a connection that survives. Repeats of
//! one instance on an uncached daemon are each planned afresh, to the
//! offline plan's bytes. A client that keeps its socket full does not
//! shut out the daemon's other connections, or new ones.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::protocol::plan_response;
use madpipe_serve::{plan_to_json, ServeConfig, Server};

/// Same deterministic instance family as the integration tests.
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

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Value {
    let mut l = String::new();
    reader.read_line(&mut l).expect("read response");
    assert!(!l.is_empty(), "server hung up mid-pipeline");
    Value::parse(l.trim()).expect("response is JSON")
}

/// The f64 bits of the served period — the tag that proves response `i`
/// answers request `i` (distinct instances have distinct periods).
fn served_period_bits(v: &Value) -> u64 {
    v.field("plan")
        .unwrap()
        .field("period")
        .unwrap()
        .as_f64()
        .unwrap()
        .to_bits()
}

/// Offline ground truth for the same instance.
fn offline_period_bits(chain: &Chain, platform: &Platform) -> u64 {
    madpipe_plan(chain, platform, &PlannerConfig::default())
        .expect("offline plan")
        .period()
        .to_bits()
}

#[test]
fn many_requests_in_one_segment_are_answered_in_order() {
    let server = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // Two rounds of 3 distinct plans, each round written as ONE payload:
    // the reactor must split the segment into lines and answer each, in
    // order. The rounds are separated by a read barrier — within one
    // pipelined batch a repeat may race its original to the cache (both
    // workers plan concurrently), but once round 1's responses are back
    // the cache holds every instance, so round 2 must be all hits.
    let instances: Vec<(Chain, Platform)> = (0..3).map(instance).collect();
    for round in 0..2 {
        let mut payload = String::new();
        let mut expect = Vec::new();
        for (chain, platform) in &instances {
            payload.push_str(&plan_line(chain, platform));
            payload.push('\n');
            expect.push(offline_period_bits(chain, platform));
        }
        stream.write_all(payload.as_bytes()).unwrap();

        for (i, bits) in expect.iter().enumerate() {
            let v = read_json(&mut reader);
            assert_eq!(
                v.field("ok").unwrap(),
                &Value::Bool(true),
                "round {round} response {i}: {}",
                v.to_string_compact()
            );
            assert_eq!(
                served_period_bits(&v),
                *bits,
                "round {round} response {i} out of order"
            );
            if round > 0 {
                assert_eq!(
                    v.field("cached").unwrap(),
                    &Value::Bool(true),
                    "second round must be cache hits"
                );
            }
        }
    }
    assert_eq!(server.registry().counter("serve.requests.plan"), 6);

    server.shutdown();
    server.join();
}

#[test]
fn a_request_split_across_segments_is_reassembled() {
    let server = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());
    let (chain, platform) = instance(11);
    let line = plan_line(&chain, &platform);
    let bytes = line.as_bytes();

    // Dribble the request in 7 segments with pauses — the reactor sees
    // many partial reads and must buffer until the newline lands.
    for chunk in bytes.chunks(bytes.len() / 7 + 1) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    stream.write_all(b"\n").unwrap();

    let v = read_json(&mut reader);
    assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(
        served_period_bits(&v),
        offline_period_bits(&chain, &platform)
    );

    server.shutdown();
    server.join();
}

#[test]
fn pipeline_tail_split_across_segments_still_answers_in_order() {
    let server = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());
    let (a, p) = instance(21);
    let (b, _) = instance(22);

    // Segment 1 carries request A complete plus the first half of B;
    // segment 2 the rest of B. Two in-order responses.
    let line_a = plan_line(&a, &p);
    let line_b = plan_line(&b, &p);
    let cut = line_b.len() / 2;
    stream
        .write_all(format!("{line_a}\n{}", &line_b[..cut]).as_bytes())
        .unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(10));
    stream
        .write_all(format!("{}\n", &line_b[cut..]).as_bytes())
        .unwrap();

    let first = read_json(&mut reader);
    let second = read_json(&mut reader);
    assert_eq!(served_period_bits(&first), offline_period_bits(&a, &p));
    assert_eq!(served_period_bits(&second), offline_period_bits(&b, &p));

    server.shutdown();
    server.join();
}

#[test]
fn oversized_line_mid_pipeline_is_rejected_and_the_rest_served() {
    let server = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());
    let (chain, platform) = instance(31);
    let good = plan_line(&chain, &platform);

    // good request → ping → a 1.5 MiB junk line → another good request,
    // all pipelined in one write. Expected responses, in order: the
    // plan, the pong, a malformed rejection, the plan again (as a cache
    // hit) — and the connection survives throughout.
    let junk = "x".repeat(3 << 19);
    let payload = format!("{good}\n{{\"cmd\":\"ping\"}}\n{junk}\n{good}\n");
    stream.write_all(payload.as_bytes()).unwrap();

    let first = read_json(&mut reader);
    assert_eq!(first.field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(
        served_period_bits(&first),
        offline_period_bits(&chain, &platform)
    );

    let pong = read_json(&mut reader);
    assert_eq!(pong.field("pong").unwrap(), &Value::Bool(true));

    let rejected = read_json(&mut reader);
    assert_eq!(rejected.field("ok").unwrap(), &Value::Bool(false));
    let err = rejected.field("error").unwrap();
    assert_eq!(err.field("kind").unwrap().as_str(), Ok("malformed"));
    assert!(err
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("exceeds"));

    let last = read_json(&mut reader);
    assert_eq!(
        last.field("ok").unwrap(),
        &Value::Bool(true),
        "request after the oversized line must be served: {}",
        last.to_string_compact()
    );
    assert_eq!(
        served_period_bits(&last),
        offline_period_bits(&chain, &platform)
    );
    assert_eq!(server.registry().counter("serve.errors.oversized"), 1);

    // With the pipeline drained the instance is certainly cached — the
    // connection that swallowed an oversized line still serves hits.
    stream.write_all(format!("{good}\n").as_bytes()).unwrap();
    let hit = read_json(&mut reader);
    assert_eq!(hit.field("cached").unwrap(), &Value::Bool(true));

    server.shutdown();
    server.join();
}

#[test]
fn interleaved_commands_pipeline_in_order() {
    let server = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());
    let (chain, platform) = instance(41);
    let good = plan_line(&chain, &platform);

    // Control commands and planning interleave; the plan is slow (a
    // worker computes it) while ping/health are answered inline by the
    // reactor — yet the responses must come back in request order, not
    // completion order.
    let payload = format!("{{\"cmd\":\"ping\"}}\n{good}\n{{\"cmd\":\"health\"}}\n{good}\n");
    stream.write_all(payload.as_bytes()).unwrap();

    let pong = read_json(&mut reader);
    assert_eq!(pong.field("pong").unwrap(), &Value::Bool(true));
    let plan = read_json(&mut reader);
    assert_eq!(plan.field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(plan.field("cached").unwrap(), &Value::Bool(false));
    let health = read_json(&mut reader);
    assert!(
        health.field("health").is_ok(),
        "third response must be the health report, got {}",
        health.to_string_compact()
    );
    // The repeated plan pipelines with the first, so the two workers may
    // compute it concurrently — cached is not asserted here, only order
    // and bit-identity.
    let repeat = read_json(&mut reader);
    assert_eq!(repeat.field("ok").unwrap(), &Value::Bool(true));
    assert_eq!(
        served_period_bits(&repeat),
        offline_period_bits(&chain, &platform)
    );

    // Drained, the instance must be a hit.
    stream.write_all(format!("{good}\n").as_bytes()).unwrap();
    let hit = read_json(&mut reader);
    assert_eq!(hit.field("cached").unwrap(), &Value::Bool(true));

    server.shutdown();
    server.join();
}

#[test]
fn an_uncached_daemon_plans_every_repeat_afresh_to_the_offline_bytes() {
    // With the cache off, every repeat of one instance is a new plan: the
    // same line pipelined 8 times on one connection, then sent once from
    // each of two connections at the same time.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 0,
        timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .expect("bind");
    let (chain, platform) = instance(7);
    let line = format!("{}\n", plan_line(&chain, &platform));
    let offline = madpipe_plan(&chain, &platform, &PlannerConfig::default()).expect("offline");
    let expected = plan_response(&plan_to_json(&offline), false);
    let read_raw = |reader: &mut BufReader<TcpStream>| {
        let mut l = String::new();
        reader.read_line(&mut l).expect("read response");
        l.trim_end().to_string()
    };

    let (mut stream, mut reader) = connect(server.local_addr());
    stream.write_all(line.repeat(8).as_bytes()).unwrap();
    for i in 0..8 {
        assert_eq!(read_raw(&mut reader), expected, "pipelined response {i}");
    }

    let mut clients: Vec<_> = (0..2).map(|_| connect(server.local_addr())).collect();
    for (stream, _) in &mut clients {
        stream.write_all(line.as_bytes()).unwrap();
    }
    for (i, (_, reader)) in clients.iter_mut().enumerate() {
        assert_eq!(read_raw(reader), expected, "connection {i}");
    }
    assert_eq!(server.registry().counter("serve.plans"), 10);
    server.shutdown();
    server.join();
}

#[test]
fn a_thousand_hits_in_one_payload_pass_flow_control_in_order() {
    // 1,000 hit lines written as one payload: far past MAX_INFLIGHT (256)
    // and many 16 KiB reads, so the reactor must stop reading at the
    // in-flight bound, resume as slots retire, and parse lines that
    // straddle its reads. Every answer is the cached plan's bytes.
    let server = start_server();
    let (chain, platform) = instance(11);
    let line = format!("{}\n", plan_line(&chain, &platform));
    let offline = madpipe_plan(&chain, &platform, &PlannerConfig::default()).expect("offline");
    let expected = plan_response(&plan_to_json(&offline), true);

    let (mut stream, mut reader) = connect(server.local_addr());
    stream.write_all(line.as_bytes()).unwrap();
    assert_eq!(
        read_json(&mut reader).field("cached").unwrap(),
        &Value::Bool(false)
    );

    const HITS: usize = 1_000;
    let payload = line.repeat(HITS);
    assert!(payload.len() > 32 * 1024, "the payload spans many reads");
    let writer = std::thread::spawn(move || stream.write_all(payload.as_bytes()).unwrap());
    for i in 0..HITS {
        let mut l = String::new();
        reader.read_line(&mut l).expect("read response");
        assert_eq!(l.trim_end(), expected, "pipelined hit {i}");
    }
    writer.join().unwrap();
    assert_eq!(server.registry().counter("serve.cache.hits"), HITS as u64);

    server.shutdown();
    server.join();
}

/// The daemon's counters as of this `metrics` request, as
/// `(serve.requests, serve.reactor.polls)`.
fn counted(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> (u64, u64) {
    stream.write_all(b"{\"cmd\":\"metrics\"}\n").unwrap();
    let v = read_json(reader);
    let text = v.field("metrics").unwrap().as_str().unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{name} in the metrics"))
    };
    (
        counter("madpipe_serve_requests"),
        counter("madpipe_serve_reactor_polls"),
    )
}

#[test]
fn a_connection_streaming_a_backlog_does_not_shut_out_the_others() {
    // One connection streams 1.25 MiB of junk lines in one write (each is
    // answered `malformed`; a reader thread drains the answers). A pass
    // works through at most MAX_INFLIGHT (256) lines of a connection, far
    // fewer than the 2,048 one 16 KiB read of 8-byte lines brings in, so
    // the daemon works off a backlog for hundreds of passes. An idle
    // connection and a new one ask for `metrics` while it does: both must
    // be served before the backlog is gone, and the reactor must have
    // polled the other sockets between its passes, at least once per two
    // passes' worth of lines. A reactor that polls only after a pass that
    // did nothing reads no other socket, and accepts nothing, until the
    // backlog is answered or a read comes up short.
    const LINE: &str = "xxxxxxx\n";
    const LINES: u64 = 5 << 15; // 1.25 MiB
    const MAX_INFLIGHT: u64 = madpipe_serve::reactor::MAX_INFLIGHT as u64;
    let server = start_server();
    let addr = server.local_addr();
    let answers_within = |stream: &TcpStream| {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
    };
    let (mut idle, mut idle_reader) = connect(addr);
    answers_within(&idle);
    let (before, polls_before) = counted(&mut idle, &mut idle_reader); // accepted, then quiet

    let (mut stream, mut answers) = connect(addr);
    let drainer = std::thread::spawn(move || {
        let mut sink = Vec::new();
        answers.read_to_end(&mut sink).map(|_| sink)
    });
    stream
        .write_all(LINE.repeat(LINES as usize).as_bytes())
        .unwrap();

    let (seen, _) = counted(&mut idle, &mut idle_reader);
    assert!(
        seen < before + LINES,
        "the idle connection was served only after the backlog: {seen} requests"
    );
    let (mut fresh, mut fresh_reader) = connect(addr);
    answers_within(&fresh);
    let (seen, _) = counted(&mut fresh, &mut fresh_reader);
    assert!(
        seen < before + LINES,
        "the new connection was served only after the backlog: {seen} requests"
    );

    stream.shutdown(Shutdown::Write).unwrap();
    let answers = drainer.join().unwrap().expect("drain the junk answers");
    let answered = answers.split(|b| *b == b'\n').filter(|l| !l.is_empty());
    assert_eq!(answered.count() as u64, LINES, "every junk line answered");
    let (_, polls) = counted(&mut idle, &mut idle_reader);
    assert!(
        polls - polls_before >= LINES / MAX_INFLIGHT / 2,
        "{} polls while {LINES} lines were worked off",
        polls - polls_before
    );
    server.shutdown();
    server.join();
}
