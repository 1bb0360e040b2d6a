//! The reactor's system calls per request, read from its own counters
//! (`serve.reactor.{polls,accepts,reads,writes}`, folded into the
//! registry by a `health` request). A sequential cache hit needs three:
//! the `poll` that reports its line, the `read` of it and the `write` of
//! the answer. Counts repeat exactly whatever the host's speed, so the
//! bound is a hard gate: a reactor that retries sockets `poll` did not
//! report fails it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::{ServeConfig, Server};

const HITS: u64 = 1_000;

/// Calls per hit the reactor may make, and calls it may make besides:
/// the `health` lines that bracket the hits and a poll timeout or two.
const PER_HIT: u64 = 3;
const SLACK: u64 = 32;

fn plan_line() -> String {
    let layers = (0..6)
        .map(|i| {
            Layer::new(
                format!("l{i}"),
                1e-3 * (i + 1) as f64,
                2e-3,
                1 << 20,
                4 << 20,
            )
        })
        .collect();
    let chain = Chain::new("syscalls", 1 << 20, layers).unwrap();
    let platform = Platform::gb(4, 2, 12.0).unwrap();
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

/// The reactor's call counters, as of the `health` request just answered.
#[derive(Debug, Clone, Copy)]
struct Calls {
    polls: u64,
    accepts: u64,
    reads: u64,
    writes: u64,
}

fn calls(server: &Server, stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Calls {
    assert!(roundtrip(stream, reader, r#"{"cmd":"health"}"#).contains(r#""ok":true"#));
    let counter = |kind: &str| server.registry().counter(&format!("serve.reactor.{kind}"));
    Calls {
        polls: counter("polls"),
        accepts: counter("accepts"),
        reads: counter("reads"),
        writes: counter("writes"),
    }
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response
}

#[test]
fn a_sequential_cache_hit_costs_three_system_calls() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let line = plan_line();
    let planned = roundtrip(&mut stream, &mut reader, &line);
    assert!(planned.contains(r#""cached":false"#), "{planned}");
    let hit = planned.replacen(r#""cached":false"#, r#""cached":true"#, 1);

    let before = calls(&server, &mut stream, &mut reader);
    for i in 0..HITS {
        assert_eq!(roundtrip(&mut stream, &mut reader, &line), hit, "hit {i}");
    }
    let after = calls(&server, &mut stream, &mut reader);

    let delta = |f: fn(&Calls) -> u64| f(&after) - f(&before);
    let (polls, accepts, reads, writes) = (
        delta(|c| c.polls),
        delta(|c| c.accepts),
        delta(|c| c.reads),
        delta(|c| c.writes),
    );
    let report =
        format!("{HITS} hits: {polls} polls, {accepts} accepts, {reads} reads, {writes} writes");
    println!("{report}");
    // Every hit needs its line read and its answer written; the counters
    // must see them.
    assert!(reads >= HITS && writes >= HITS, "{report}");
    assert_eq!(accepts, 0, "no connection arrived: {report}");
    assert!(
        polls + accepts + reads + writes <= PER_HIT * HITS + SLACK,
        "more than {PER_HIT} calls per hit: {report}"
    );

    server.shutdown();
    server.join();
}
