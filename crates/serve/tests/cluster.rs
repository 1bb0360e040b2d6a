//! Cluster-mode tests: the consistent-hash router's forwarding and
//! rollups, and a whole-daemon kill from the cluster chaos schedule —
//! in every case, every served plan stays f64-bit-identical to offline
//! `madpipe plan`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use madpipe_core::{madpipe_plan, PlannerConfig};
use madpipe_json::{ToJson, Value};
use madpipe_model::{Chain, Layer, Platform};
use madpipe_serve::{canonical_instance, Ring, Router, RouterConfig, ServeConfig, Server};
use madpipe_sim::{ChaosStream, ClusterEvent};

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
    assert!(!response.is_empty(), "server hung up");
    Value::parse(response.trim()).expect("response is JSON")
}

fn served_period_bits(v: &Value) -> u64 {
    v.field("plan")
        .unwrap()
        .field("period")
        .unwrap()
        .as_f64()
        .unwrap()
        .to_bits()
}

fn offline_period_bits(chain: &Chain, platform: &Platform) -> u64 {
    madpipe_plan(chain, platform, &PlannerConfig::default())
        .expect("offline plan")
        .period()
        .to_bits()
}

fn start_daemon() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_entries: 64,
        timeout: Duration::from_secs(60),
        queue_depth: 64,
        panic_marker: None,
        ..ServeConfig::default()
    })
    .expect("bind daemon")
}

fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn router_forwards_by_canonical_key_and_rolls_up_the_cluster() {
    let daemons: Vec<Server> = (0..3).map(|_| start_daemon()).collect();
    let backends: Vec<String> = daemons.iter().map(|d| d.local_addr().to_string()).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backends.clone(),
        timeout: Duration::from_secs(30),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr();

    // First pass computes, second pass must hit — the ring sends the
    // same canonical instance to the same daemon both times.
    let instances: Vec<(Chain, Platform)> = (0..6).map(instance).collect();
    for (chain, platform) in &instances {
        let v = roundtrip(raddr, &plan_line(chain, platform));
        assert_eq!(
            v.field("ok").unwrap(),
            &Value::Bool(true),
            "{}",
            v.to_string_compact()
        );
        assert_eq!(v.field("cached").unwrap(), &Value::Bool(false));
        assert_eq!(served_period_bits(&v), offline_period_bits(chain, platform));
    }
    for (chain, platform) in &instances {
        let v = roundtrip(raddr, &plan_line(chain, platform));
        assert_eq!(
            v.field("cached").unwrap(),
            &Value::Bool(true),
            "repeat must land on the same daemon's cache: {}",
            v.to_string_compact()
        );
        assert_eq!(served_period_bits(&v), offline_period_bits(chain, platform));
    }
    assert_eq!(router.registry().counter("router.forwarded"), 12);
    assert_eq!(router.registry().counter("router.failover"), 0);

    // Health rollup sees all three daemons.
    let health = roundtrip(raddr, r#"{"cmd":"health"}"#);
    let h = health.field("health").unwrap();
    assert_eq!(h.field("cluster").unwrap(), &Value::Bool(true));
    assert_eq!(h.field("alive").unwrap(), &Value::UInt(3));
    assert_eq!(h.field("configured").unwrap(), &Value::UInt(3));
    let Value::Array(per_daemon) = h.field("daemons").unwrap() else {
        panic!("daemons must be an array");
    };
    assert_eq!(per_daemon.len(), 3);

    // Metrics rollup sums the daemons' counters: 12 plan requests and
    // 6 hits + 6 misses across the cluster, however the ring spread them.
    let metrics = roundtrip(raddr, r#"{"cmd":"metrics"}"#);
    let text = metrics
        .field("metrics")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(
        metric(&text, "madpipe_cluster_daemons_reporting"),
        Some(3.0)
    );
    assert_eq!(
        metric(&text, "madpipe_cluster_daemons_configured"),
        Some(3.0)
    );
    assert_eq!(metric(&text, "madpipe_serve_requests_plan"), Some(12.0));
    assert_eq!(metric(&text, "madpipe_serve_cache_hits"), Some(6.0));
    assert_eq!(metric(&text, "madpipe_serve_cache_misses"), Some(6.0));
    assert!(
        metric(&text, "madpipe_router_forwarded").is_some(),
        "rollup must include the router's own counters: {text}"
    );

    router.shutdown();
    router.join();
    for d in daemons {
        d.shutdown();
        d.join();
    }
}

#[test]
fn daemon_kill_from_the_chaos_schedule_fails_over_and_converges() {
    let mut daemons: Vec<Option<Server>> = (0..3).map(|_| Some(start_daemon())).collect();
    let backends: Vec<String> = daemons
        .iter()
        .map(|d| d.as_ref().unwrap().local_addr().to_string())
        .collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backends.clone(),
        timeout: Duration::from_secs(30),
        breaker_open: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr();

    // The victim comes out of the deterministic cluster chaos schedule —
    // the same draw the CI drill would replay on a red run.
    let victim = ChaosStream::cluster_events(0x00AD_51BE, 64, 2, 3)
        .into_iter()
        .find_map(|e| match e {
            ClusterEvent::DaemonKill { daemon } => Some(daemon),
            _ => None,
        })
        .expect("64 cluster events include a daemon kill");

    // Pick instances the ring assigns to the victim and to survivors,
    // using the very ring the router built (same backends, same vnodes).
    // The ports are the OS's, and for some triples the victim's vnodes
    // cover only a few percent of the ring: 64 seeds found none of its
    // instances for about 0.4% of random triples, 4096 for none of
    // 20,000 (EXPERIMENTS.md, "Cold plans divide once per divisor").
    let ring = Ring::new(&backends, RouterConfig::default().vnodes);
    let owner = |chain: &Chain, platform: &Platform| {
        ring.candidates(&canonical_instance(
            chain,
            platform,
            &PlannerConfig::default(),
        ))[0]
    };
    let victim_owned = (0..4096u64)
        .map(instance)
        .find(|(c, p)| owner(c, p) == victim)
        .expect("some instance hashes to the victim");
    let survivor_owned = (0..4096u64)
        .map(instance)
        .find(|(c, p)| owner(c, p) != victim)
        .expect("some instance hashes to a survivor");

    // Warm both while the cluster is whole.
    for (c, p) in [&victim_owned, &survivor_owned] {
        let v = roundtrip(raddr, &plan_line(c, p));
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
    }

    // Kill the victim daemon outright.
    let dead = daemons[victim].take().unwrap();
    dead.shutdown();
    dead.join();

    // The victim's keys fail over to the next ring candidate, which
    // never saw them: it plans the key once (`cached:false`), then
    // serves the repeat from its own cache — both bit-identical to
    // offline. Survivor-owned keys still hit.
    let victim_bits = offline_period_bits(&victim_owned.0, &victim_owned.1);
    for cached in [false, true] {
        let v = roundtrip(raddr, &plan_line(&victim_owned.0, &victim_owned.1));
        assert_eq!(
            v.field("ok").unwrap(),
            &Value::Bool(true),
            "request owned by the dead daemon must fail over: {}",
            v.to_string_compact()
        );
        assert_eq!(
            v.field("cached").unwrap(),
            &Value::Bool(cached),
            "{}",
            v.to_string_compact()
        );
        assert_eq!(served_period_bits(&v), victim_bits);
    }
    assert!(router.registry().counter("router.failover") >= 1);
    assert!(router.registry().counter("router.backend_errors") >= 1);
    let v = roundtrip(raddr, &plan_line(&survivor_owned.0, &survivor_owned.1));
    assert_eq!(v.field("cached").unwrap(), &Value::Bool(true));

    // The cluster converges: rollups settle at 2 alive of 3 configured.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = roundtrip(raddr, r#"{"cmd":"health"}"#);
        let h = health.field("health").unwrap();
        assert_eq!(h.field("configured").unwrap(), &Value::UInt(3));
        if h.field("alive").unwrap() == &Value::UInt(2) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never converged: {}",
            health.to_string_compact()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = roundtrip(raddr, r#"{"cmd":"metrics"}"#);
    let text = metrics
        .field("metrics")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(
        metric(&text, "madpipe_cluster_daemons_reporting"),
        Some(2.0)
    );

    router.shutdown();
    router.join();
    for d in daemons.into_iter().flatten() {
        d.shutdown();
        d.join();
    }
}
