//! Subcommand implementations.

use std::path::PathBuf;

use madpipe_bench::{
    baseline, chains_for, fig6, fig7, fig8, paper_chains, plan_speed, run_cells, summary,
    GridConfig,
};
use madpipe_core::{
    certify_plan, compare, madpipe_plan, madpipe_plan_with_stats, replan, CertifyConfig,
    PlannerConfig,
};
use madpipe_dnn::profile::Profile;
use madpipe_dnn::{networks, GpuModel, RandomChainConfig};
use madpipe_json::Value;
use madpipe_model::{
    Chain, Platform, PlatformFault, PolicySpec, RecomputeMode, UnitSequence, WeightPolicy,
};
use madpipe_obs::{Trace, PLANNER_PID};
use madpipe_schedule::gantt;
use madpipe_sim::{replay, simulate_eager, EagerConfig, FaultSpec};

use crate::args::{parse, Args};

const USAGE: &str = "\
madpipe — memory-aware pipelined model parallelism planner

USAGE:
  madpipe networks
      List the built-in networks with profile summaries.
  madpipe plan <network> [--gpus P] [--memory-gb M] [--bandwidth-gb B]
               [--batch N] [--image S] [--profile FILE]
               [--gpu-model v100|a100|rtx3090] [--max-layers N]
               [--recompute never|always|auto] [--weights 3w|2bw]
               [--threads N] [--stats] [--trace-out FILE] [--periods N]
               [--metrics-out FILE] [--stats-json FILE]
      Plan with MadPipe and the PipeDream baseline, print both.
      --recompute lets every stage drop its interior activations and
      recompute them in the backward phase: `always` forces it, `auto`
      lets the DP pick per stage (default `never`, the paper's model);
      --weights 2bw holds two weight versions (2BW-style) instead of the
      default three. Both flags change the stage memory/time model, so
      non-default plans are certified under the same policy.
      --threads evaluates independent probes in parallel (default 1);
      --stats prints planner counters and the probe timeline;
      --trace-out writes a Chrome/Perfetto trace of the planner spans
      plus the scheduled pattern (memory and link counter tracks, N
      periods); --metrics-out writes a Prometheus-style metrics dump;
      --stats-json writes the full PlannerStats payload as JSON.
  madpipe gantt <network> [same flags as plan]
      Print the ASCII Gantt chart of the MadPipe schedule.
  madpipe simulate <network> [same flags as plan] [--batches N]
      Replay the MadPipe schedule and run the eager 1F1B policy.
  madpipe profile <network> [--batch N] [--image S] --out FILE
      Write the synthetic profile (per-layer costs) as JSON.
  madpipe hybrid <network> [same flags as plan]
      Search replica-group counts for hybrid data+model parallelism.
  madpipe trace <network> [same flags as plan] [--periods N] --out FILE
      Export the MadPipe schedule as Chrome-trace JSON (chrome://tracing
      or https://ui.perfetto.dev).
  madpipe certify <network> [same flags as plan] [--periods K] [--jitter J]
               [--trials N] [--headroom H] [--chrome-trace FILE] [--stats]
               [--trace-out FILE] [--metrics-out FILE]
      Differentially certify the MadPipe plan: analytic checker vs. the
      zero-fault replay over K periods, exact cross-check on tiny
      instances, and timing-fault injection reporting jitter/bandwidth
      robustness margins (--jitter caps the probed amplitude; it and
      --headroom must be finite and non-negative). Exits nonzero on any
      disagreement.
      --chrome-trace writes just the schedule timeline; --trace-out also
      includes the planner/certifier spans; --metrics-out as in plan.
  madpipe validate-trace <trace.json> [--expect-spans a,b,c]
               [--metrics FILE]
      Re-parse an emitted trace — a Chrome document, a flight-recorder
      JSONL dump, or a trace-merge artifact — with the vendored JSON
      parser and check its structural invariants, including distributed
      span links: every `parent` id must be defined by some span, with
      no cycles (the CI artifact gate). Fails if any span named in
      --expect-spans is absent; --metrics additionally validates a
      Prometheus-style dump.
  madpipe trace-merge <dump.jsonl|trace.json>.. --out FILE
      Stitch per-process trace artifacts (flight-recorder dumps and/or
      Chrome documents) into one cluster-wide Chrome trace: each input
      becomes its own named process (pid = input order, label = file
      stem), timestamps rebase to the earliest event, and the
      distributed trace/span/parent ids survive verbatim — so router →
      daemon → worker → DP parent links span processes. The merged
      document is validated before it is written.
  madpipe top [--addr HOST:PORT] [--interval-ms T] [--once]
      Live cluster dashboard: polls `health` and `metrics` on ADDR
      (default the router, 127.0.0.1:4830; a single daemon works too)
      every T ms (default 1000) and renders per-daemon rows — alive,
      workers, queue depth, req/s since the last frame, cache hit
      ratio, flight-recorder drops — plus cluster-wide p50/p95/p99
      request latency reconstructed from the summed histogram buckets.
      --once prints a single frame and exits (no screen clearing).
  madpipe bench-baseline [--out FILE] [--baseline FILE] [--tolerance T]
               [--time-factor F] [--threads N] [--stats-json FILE]
      Run the fixed smoke benchmark grid plus the tight-memory policy
      pair (mlp12 on 4 × 2 GB GPUs, default vs --recompute auto
      --weights 2bw), write the results as JSON to FILE (default
      BENCH_smoke.json), and — when --baseline is given — gate against
      the committed reference: periods within T (default 0.10
      relative), planning time within F× (default 5), no certification
      regressions. The policy pair always gates: the default cell must
      stay infeasible and its 2BW twin must plan and certify.
      --stats-json writes per-cell PlannerStats payloads.
  madpipe bench-plan-speed [--out FILE] [--baseline FILE] [--repeat N]
               [--time-factor F]
      Measure MadPipe planning time over the 42-cell ResNet-50 fig6
      slice (N repeats per cell, default 3; medians recorded), write the
      results as JSON to FILE (default BENCH_plan_speed.json), and —
      when --baseline is given — gate against the committed reference:
      achieved periods bit-identical, DP time (phase1+fallback+refine)
      within F× (default 1.25).
  madpipe experiments <fig6|fig7|fig8|summary|all> [--full] [--threads N]
               [--out DIR]
      Regenerate the paper's figures (text + CSV under DIR, default
      ./results). --full runs the paper's complete grid.
  madpipe replan <network> --fault SPEC [same flags as plan]
      Degraded-mode replanning: plan the healthy platform, apply the
      fault, replan on the survivor and report the throughput delta.
      SPEC is gpu-loss:N (lose N GPUs), memory:F (every GPU loses
      fraction F of memory) or link:F (links slow by fraction F),
      with F in (0, 1). The degraded plan is bit-identical to
      `madpipe plan` on the surviving platform.
  madpipe serve [--addr HOST:PORT] [--threads N] [--cache-entries N]
               [--cache-bytes B] [--timeout-ms T] [--shed-target-ms T]
               [--shed-window-ms T] [--journal FILE] [--peers A,B,..]
               [--gossip-ms T] [--gossip-entries K] [--flight-dump FILE]
      Run the planning daemon: newline-delimited JSON requests
      ({\"cmd\":\"plan\"|\"replan\"|\"metrics\"|\"health\"|\"ping\"|\"shutdown\"}),
      served by an event-driven reactor (pipelined requests answered in
      order), a sharded LRU cache keyed by the canonical instance, N
      planner workers (default 2), per-request deadline T ms (default
      30000). The worker queue is deadline-ordered (earliest first);
      jobs whose deadline passed while queued are dropped at dequeue
      without running the DP (`serve.shed.expired`), and a CoDel-style
      admission gate sheds a growing fraction of new misses with a
      structured `overloaded` error (`serve.shed.overload`) whenever
      the minimum queue sojourn stays above --shed-target-ms (default
      off) for a full --shed-window-ms (default 100). Workers are
      supervised: a panicking request gets a structured `internal`
      error and the worker is respawned; `health` reports queue depth,
      worker liveness, shed counts and journal stats. --journal appends
      every freshly planned entry to a checksummed JSONL file and
      replays it on startup — the warmed cache serves plans
      byte-identical to the pre-restart daemon, a torn tail from a
      mid-append crash is tolerated, and a clean drain compacts the
      file to the live cache. --cache-bytes caps the cache's resident
      plan bytes (0 = entries-only). --peers names sibling daemons to
      gossip the K hottest cache entries to (default 8) every T ms
      (default 500) — peers warm their caches with the shipped plans
      verbatim, so warmed answers stay bit-identical. Prints
      `listening on ADDR` once live; drains gracefully on SIGTERM,
      SIGINT or a shutdown request. Default address 127.0.0.1:4835;
      --cache-entries 0 disables the cache. --flight-dump writes the
      always-on flight-recorder ring (recent spans/counters) as JSONL
      on exit — panics inside a worker dump it immediately.
  madpipe route --backends A,B,.. [--addr HOST:PORT] [--vnodes N]
               [--timeout-ms T] [--probe-timeout-ms T]
               [--breaker-threshold N] [--breaker-open-ms T]
               [--flight-dump FILE]
      Run the cluster router: a consistent-hash ring (N vnodes per
      backend, default 64) keyed on the canonical instance string routes
      each plan/replan to its owning daemon and fails over around dead
      ones. Each backend sits behind a circuit breaker: N consecutive
      failures (default 3) open it for T ms (default 500), an open
      breaker is skipped outright, and recovery goes through a single
      half-open probe request that closes the breaker on success.
      Failovers past the first attempt draw from a retry budget that
      refills at ~10% of forwarded traffic, so a sick cluster can't be
      swamped by retries. `health` and `metrics` answer cluster-wide
      rollups across all backends (histogram buckets are summed per
      bucket, so quantiles reconstruct cluster-wide) using the shorter
      --probe-timeout-ms (default 2000) per backend probe; `health`
      reports each backend's breaker state. A request line carrying a
      `trace` field is forwarded with its `parent` rewritten to the
      router's own `router.forward` span, linking the daemon's spans
      under the router hop. Prints `routing on ADDR -> N backends` once
      live; drains like serve. Default address 127.0.0.1:4830;
      --flight-dump as in serve.
  madpipe loadgen [--addr HOST:PORT[,HOST:PORT..]] [--connections N]
               [--requests M] [--pipeline D] [--instances K] [--seed S]
               [--rate R] [--timeout-ms T] [--max-retries R]
               [--floor FILE] [--expect-hits] [--trace]
      Load client for the daemon: N connections × M requests over K
      mixed instances; prints ok/cache_hit/shed/timeout/error counts,
      p50/p95/p99 latency, hit rate, retries and the server's serve.*
      counters. Closed-loop by default; --rate R switches to an
      open-loop arrival process pacing R requests/s across the
      connections, with latency charged from each request's *scheduled*
      send time, so server backlog shows up in the quantiles instead of
      being hidden by coordinated omission. --addr may list several
      daemons (connection i targets addr i mod len); --pipeline D keeps
      D requests in flight per connection (batched writes, in-order
      reads). Transient transport failures are retried up to R times
      (default 3) with capped jittered backoff; shed (`overloaded`,
      `unavailable`) and `timeout` verdicts are structured outcomes,
      not transport errors. --floor gates the run against a committed
      BENCH_serve_speed.json throughput baseline; --expect-hits exits
      nonzero unless every request succeeded and the server reports
      both cache hits and misses (the CI smoke gate). --trace injects a
      unique distributed trace id into every request (the root of the
      cluster-wide trace) and reports how many responses echoed a span
      back.

All <network> slots also accept `synthetic` (--layers N, --seed S): a
reproducible random CNN-profile chain. All planning commands accept
--recompute/--weights as described under `plan`.

Defaults: --gpus 4, --memory-gb 8, --bandwidth-gb 12, --batch 8,
--image 1000.";

pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let args = parse(
        argv,
        &["full", "quiet", "stats", "expect-hits", "trace", "once"],
    )?;
    match args.positional.first().map(String::as_str) {
        Some("networks") => cmd_networks(),
        Some("plan") => cmd_plan(&args),
        Some("replan") => cmd_replan(&args),
        Some("gantt") => cmd_gantt(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("profile") => cmd_profile(&args),
        Some("experiments") => cmd_experiments(&args),
        Some("hybrid") => cmd_hybrid(&args),
        Some("trace") => cmd_trace(&args),
        Some("certify") => cmd_certify(&args),
        Some("validate-trace") => cmd_validate_trace(&args),
        Some("trace-merge") => cmd_trace_merge(&args),
        Some("top") => cmd_top(&args),
        Some("bench-baseline") => cmd_bench_baseline(&args),
        Some("bench-plan-speed") => cmd_bench_plan_speed(&args),
        Some("serve") => cmd_serve(&args),
        Some("route") => cmd_route(&args),
        Some("loadgen") => cmd_loadgen(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn load_chain(args: &Args) -> Result<Chain, String> {
    if let Some(path) = args.raw("profile") {
        let p = Profile::load(path).map_err(|e| format!("loading profile {path}: {e}"))?;
        return Ok(p.chain);
    }
    let name = args.positional.get(1).ok_or("missing <network> argument")?;
    let batch = args.get_or("batch", 8u64)?;
    let image = args.get_or("image", 1000u64)?;
    if name == "synthetic" {
        let cfg = RandomChainConfig {
            layers: args.get_or("layers", 12usize)?,
            ..RandomChainConfig::default()
        };
        let seed = args.get_or("seed", 42u64)?;
        let chain = madpipe_dnn::random_chain(&cfg, seed);
        return Ok(match args.get::<usize>("max-layers")? {
            Some(cap) => madpipe_dnn::coarsen(&chain, cap),
            None => chain,
        });
    }
    let spec = networks::by_name(name).ok_or_else(|| {
        format!(
            "unknown network `{name}` (try: resnet50, resnet101, resnet152, inception, densenet121, vgg16, or `synthetic` with --layers/--seed)"
        )
    })?;
    let gpu = match args.raw("gpu-model") {
        Some(g) => GpuModel::by_name(g).ok_or_else(|| format!("unknown GPU model `{g}`"))?,
        None => GpuModel::default(),
    };
    let chain = spec
        .profile(batch, image, &gpu)
        .map_err(|e| e.to_string())?;
    Ok(match args.get::<usize>("max-layers")? {
        Some(cap) => madpipe_dnn::coarsen(&chain, cap),
        None => chain,
    })
}

/// Enable the span tracer when any command-line flag wants a trace file,
/// so the subsequent planning/certification calls record their spans.
fn arm_tracer(args: &Args) -> bool {
    let wanted = args.raw("trace-out").is_some();
    if wanted {
        madpipe_obs::set_enabled(true);
    }
    wanted
}

/// Write the collected planner spans — plus, when a plan exists, the
/// schedule timeline with its memory/link counter tracks — as one
/// Chrome/Perfetto trace. Disables the tracer.
fn write_trace(
    out: &str,
    chain: &Chain,
    platform: &Platform,
    plan: Option<&madpipe_core::MadPipePlan>,
    periods: usize,
) -> Result<(), String> {
    // Build the schedule timeline first, while the tracer is still on,
    // so the replay behind it contributes its `sim.replay` span.
    let schedule = plan.map(|plan| {
        madpipe_sim::schedule_trace(
            chain,
            platform,
            &plan.allocation,
            &plan.schedule.pattern,
            periods,
        )
    });
    madpipe_obs::set_enabled(false);
    let spans = madpipe_obs::drain_spans();
    let mut trace = Trace::new();
    trace.process_name(PLANNER_PID, "planner");
    trace.add_spans(PLANNER_PID, &spans);
    if let Some(schedule) = schedule {
        trace.extend(schedule);
    }
    std::fs::write(out, trace.render_chrome()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out} ({} planner spans{})",
        spans.len(),
        if plan.is_some() {
            format!(" + {periods}-period schedule timeline")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Write a Prometheus-style metrics dump for `--metrics-out`.
fn write_metrics(out: &str, stats: &madpipe_core::PlannerStats) -> Result<(), String> {
    std::fs::write(out, stats.metrics.to_prometheus())
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Write the full `PlannerStats` JSON payload for `--stats-json`.
fn write_stats_json(out: &str, stats: &madpipe_core::PlannerStats) -> Result<(), String> {
    std::fs::write(out, stats.to_json().to_string_pretty())
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Parse `--recompute never|always|auto` and `--weights 3w|2bw` into
/// the planner's policy space (both default to the paper's model).
fn policy_spec(args: &Args) -> Result<PolicySpec, String> {
    let mut spec = PolicySpec::default();
    if let Some(r) = args.raw("recompute") {
        spec.recompute = RecomputeMode::parse(r).map_err(|e| format!("--recompute: {e}"))?;
    }
    if let Some(w) = args.raw("weights") {
        spec.weights = WeightPolicy::parse(w).map_err(|e| format!("--weights: {e}"))?;
    }
    Ok(spec)
}

/// The shared `PlannerConfig` for planning commands: threads + policy.
fn planner_config(args: &Args) -> Result<PlannerConfig, String> {
    Ok(PlannerConfig {
        threads: args.get_or("threads", 1usize)?.max(1),
        policy: policy_spec(args)?,
        ..PlannerConfig::default()
    })
}

fn load_platform(args: &Args) -> Result<Platform, String> {
    let p = args.get_or("gpus", 4usize)?;
    let m = args.get_or("memory-gb", 8u64)?;
    let b = args.get_or("bandwidth-gb", 12.0f64)?;
    Platform::gb(p, m, b).map_err(|e| e.to_string())
}

fn cmd_networks() -> Result<(), String> {
    let gpu = GpuModel::default();
    println!(
        "{:<14} {:>7} {:>12} {:>14} {:>14}",
        "network", "layers", "U(1,L) ms", "weights MB", "sum act MB"
    );
    for spec in networks::all_networks() {
        let chain = spec.profile(8, 1000, &gpu).map_err(|e| e.to_string())?;
        let weights: u64 = chain.weight_bytes(0..chain.len());
        let acts: u64 = chain.stored_activation_bytes(0..chain.len());
        println!(
            "{:<14} {:>7} {:>12.1} {:>14.1} {:>14.1}",
            chain.name(),
            chain.len(),
            chain.total_compute_time() * 1e3,
            weights as f64 / 1e6,
            acts as f64 / 1e6,
        );
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    println!(
        "{}: {} layers, U(1,L) = {:.1} ms | P = {}, M = {:.0} GB, beta = {:.0} GB/s",
        chain.name(),
        chain.len(),
        chain.total_compute_time() * 1e3,
        platform.n_gpus,
        platform.memory_bytes as f64 / (1u64 << 30) as f64,
        platform.bandwidth / (1u64 << 30) as f64,
    );
    let planner = planner_config(args)?;
    arm_tracer(args);
    let cmp = compare(&chain, &platform, &planner);
    match &cmp.madpipe {
        Ok(plan) => {
            println!(
                "MadPipe   : {:.1} ms/batch ({:.2} img/s at batch 8), phase-1 estimate {:.1} ms",
                plan.period() * 1e3,
                8.0 * plan.throughput(),
                plan.phase1.period * 1e3
            );
            for s in plan.allocation.stages() {
                let tag = if s.policy.is_default() {
                    String::new()
                } else {
                    format!(
                        "  [{}, {}]",
                        s.policy.activation.as_str(),
                        s.policy.weights.as_str()
                    )
                };
                println!(
                    "    layers {:>3}..{:<3} -> GPU {}{tag}",
                    s.layers.start, s.layers.end, s.gpu
                );
            }
        }
        Err(e) => println!("MadPipe   : infeasible ({e})"),
    }
    match &cmp.pipedream {
        Ok(plan) => println!(
            "PipeDream : {:.1} ms/batch, DP prediction {:.1} ms, {} stages",
            plan.period() * 1e3,
            plan.outcome.predicted_period * 1e3,
            plan.outcome.partition.len()
        ),
        Err(e) => println!("PipeDream : infeasible ({e})"),
    }
    if let Some(r) = cmp.ratio() {
        println!("ratio (PipeDream/MadPipe): {r:.3}  (>1 means MadPipe wins)");
    }
    if args.has("stats") {
        let stats = &cmp.stats;
        println!("planner   : {}", stats.summary());
        println!(
            "  phases  : phase1 {:.3}s, fallback {:.3}s, refine {:.3}s, schedule {:.3}s",
            stats.phase1_seconds,
            stats.fallback_seconds,
            stats.refine_seconds,
            stats.schedule_seconds
        );
        println!(
            "  dp      : memo hits {}, load prunes {}, memory prunes {}",
            stats.dp.memo_hits, stats.dp.load_prunes, stats.dp.memory_prunes
        );
        println!(
            "  {:<12} {:>12} {:>8} {:>12} {:>8} {:>10}",
            "probe", "T-hat ms", "special", "period ms", "states", "answer"
        );
        for p in &stats.probes {
            let answer = if p.cached {
                "cached"
            } else if p.pruned {
                "pruned"
            } else {
                "solved"
            };
            let period = if p.period.is_finite() {
                format!("{:.3}", p.period * 1e3)
            } else {
                "inf".to_string()
            };
            println!(
                "  {:<12} {:>12.3} {:>8} {:>12} {:>8} {:>10}",
                p.source.to_string(),
                p.t_hat * 1e3,
                p.use_special,
                period,
                p.states,
                answer
            );
        }
    }
    if let Some(out) = args.raw("trace-out") {
        let periods = args.get_or("periods", 6usize)?;
        write_trace(out, &chain, &platform, cmp.madpipe.as_ref().ok(), periods)?;
    }
    if let Some(out) = args.raw("metrics-out") {
        write_metrics(out, &cmp.stats)?;
    }
    if let Some(out) = args.raw("stats-json") {
        write_stats_json(out, &cmp.stats)?;
    }
    Ok(())
}

fn cmd_replan(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let spec = args
        .raw("fault")
        .ok_or("replan requires --fault SPEC (gpu-loss:N, memory:F or link:F with F in (0, 1))")?;
    let fault = PlatformFault::parse_spec(spec).map_err(|e| e.to_string())?;
    let planner = planner_config(args)?;
    let out = replan(&chain, &platform, fault, &planner).map_err(|e| e.to_string())?;

    let gb = (1u64 << 30) as f64;
    println!(
        "{}: {} layers | healthy P = {}, M = {:.0} GB, beta = {:.0} GB/s",
        chain.name(),
        chain.len(),
        platform.n_gpus,
        platform.memory_bytes as f64 / gb,
        platform.bandwidth / gb,
    );
    println!(
        "fault    : {} -> surviving P = {}, M = {:.1} GB, beta = {:.1} GB/s",
        out.fault,
        out.degraded_platform.n_gpus,
        out.degraded_platform.memory_bytes as f64 / gb,
        out.degraded_platform.bandwidth / gb,
    );
    match &out.baseline {
        Ok(plan) => println!(
            "baseline : {:.1} ms/batch ({:.2} batches/s)",
            plan.period() * 1e3,
            plan.throughput()
        ),
        Err(e) => println!("baseline : infeasible ({e})"),
    }
    match &out.degraded {
        Ok(plan) => {
            println!(
                "degraded : {:.1} ms/batch ({:.2} batches/s)",
                plan.period() * 1e3,
                plan.throughput()
            );
            for s in plan.allocation.stages() {
                println!(
                    "    layers {:>3}..{:<3} -> GPU {}",
                    s.layers.start, s.layers.end, s.gpu
                );
            }
        }
        Err(e) => println!("degraded : infeasible ({e})"),
    }
    match (out.throughput_delta(), out.period_ratio()) {
        (Some(delta), Some(ratio)) => println!(
            "delta    : throughput {:+.1}%, period x{:.3}",
            delta * 100.0,
            ratio
        ),
        _ => println!("delta    : unavailable (one side is infeasible)"),
    }
    if args.has("stats") {
        println!("baseline planner: {}", out.baseline_stats.summary());
        println!("degraded planner: {}", out.degraded_stats.summary());
    }
    Ok(())
}

fn cmd_gantt(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let plan = madpipe_plan(&chain, &platform, &planner_config(args)?)
        .map_err(|e| format!("planning failed: {e}"))?;
    let seq = UnitSequence::from_allocation(&chain, &platform, &plan.allocation);
    print!("{}", gantt::render(&seq, &plan.schedule.pattern, 100));
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let batches = args.get_or("batches", 100usize)?;
    let plan = madpipe_plan(&chain, &platform, &planner_config(args)?)
        .map_err(|e| format!("planning failed: {e}"))?;
    let planned = replay(
        &chain,
        &platform,
        &plan.allocation,
        &plan.schedule.pattern,
        batches,
        &FaultSpec::zero(),
    );
    println!(
        "replay   : period {:.1} ms (analytic {:.1} ms), peak {:.2} GB, violation: {}",
        planned.period * 1e3,
        plan.period() * 1e3,
        planned.max_peak_bytes() as f64 / (1u64 << 30) as f64,
        planned.memory_violation
    );
    let eager = simulate_eager(
        &chain,
        &platform,
        &plan.allocation,
        &EagerConfig {
            batches,
            depth: None,
        },
    );
    println!(
        "eager1F1B: period {:.1} ms, peak {:.2} GB, violation: {}",
        eager.period * 1e3,
        eager.max_peak_bytes() as f64 / (1u64 << 30) as f64,
        eager.memory_violation
    );
    Ok(())
}

fn cmd_hybrid(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let hybrid = madpipe_core::best_hybrid(&chain, &platform, &planner_config(args)?)
        .map_err(|e| format!("no hybrid configuration plans: {e}"))?;
    println!(
        "best hybrid for {} on {} GPUs: {} replica group(s) x {} GPUs",
        chain.name(),
        platform.n_gpus,
        hybrid.replicas,
        hybrid.group_gpus
    );
    println!(
        "  group period {:.1} ms, all-reduce bottleneck {:.2} ms, effective {:.1} ms",
        hybrid.plan.period() * 1e3,
        hybrid.allreduce_time * 1e3,
        hybrid.effective_period * 1e3
    );
    println!(
        "  aggregate throughput: {:.2} batches/s",
        hybrid.throughput()
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let periods = args.get_or("periods", 6usize)?;
    let out: PathBuf = args.raw("out").ok_or("trace requires --out FILE")?.into();
    let plan = madpipe_plan(&chain, &platform, &planner_config(args)?)
        .map_err(|e| format!("planning failed: {e}"))?;
    let json = madpipe_sim::schedule_trace(
        &chain,
        &platform,
        &plan.allocation,
        &plan.schedule.pattern,
        periods,
    )
    .render_chrome();
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} periods of a {:.1} ms pattern)",
        out.display(),
        periods,
        plan.period() * 1e3
    );
    Ok(())
}

/// `--name` parsed as a finite, non-negative number.
fn finite_non_negative(args: &Args, name: &str, default: f64) -> Result<f64, String> {
    let x = args.get_or(name, default)?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!(
            "invalid value for --{name}: {x} (must be finite and non-negative)"
        ))
    }
}

fn cmd_certify(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let platform = load_platform(args)?;
    let planner = planner_config(args)?;
    let cfg = CertifyConfig {
        periods: args.get_or("periods", CertifyConfig::default().periods)?,
        jitter_cap: finite_non_negative(args, "jitter", CertifyConfig::default().jitter_cap)?,
        trials: args.get_or("trials", CertifyConfig::default().trials)?,
        headroom: finite_non_negative(args, "headroom", CertifyConfig::default().headroom)?,
        ..CertifyConfig::default()
    };
    arm_tracer(args);
    let (plan, mut stats) = madpipe_plan_with_stats(&chain, &platform, &planner);
    let plan = plan.map_err(|e| format!("planning failed: {e}"))?;

    println!(
        "certifying {} on P = {}, M = {:.0} GB, beta = {:.0} GB/s ({} replay periods)",
        chain.name(),
        platform.n_gpus,
        platform.memory_bytes as f64 / (1u64 << 30) as f64,
        platform.bandwidth / (1u64 << 30) as f64,
        cfg.periods,
    );
    let cert = certify_plan(&chain, &platform, &plan, &cfg);
    cert.record(&mut stats);

    let gb = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    if let Some(a) = &cert.analytic {
        println!(
            "analytic : period {:.3} ms, peak {:.2} GB, pipeline depth {}",
            a.period * 1e3,
            gb(a.gpu_peak_bytes.iter().copied().max().unwrap_or(0)),
            a.max_shift
        );
    }
    if let Some(r) = &cert.replay {
        println!(
            "replay   : period {:.3} ms, peak {:.2} GB over {} batches",
            r.period * 1e3,
            gb(r.gpu_peak_bytes.iter().copied().max().unwrap_or(0)),
            r.batches
        );
    }
    match &cert.exact {
        Some(x) => println!(
            "exact    : optimum {:.3} ms, plan/optimum ratio {:.4}",
            x.exact_period * 1e3,
            x.ratio
        ),
        None => println!("exact    : skipped (instance above the exact-solver gate)"),
    }
    println!(
        "margins  : jitter {:.3} (cap {:.2}), bandwidth degradation {:.3} (cap {:.2})",
        cert.jitter_margin, cfg.jitter_cap, cert.beta_margin, cfg.beta_cap
    );

    if let Some(out) = args.raw("chrome-trace") {
        let json = madpipe_sim::schedule_trace(
            &chain,
            &platform,
            &plan.allocation,
            &plan.schedule.pattern,
            cfg.periods.min(12),
        )
        .render_chrome();
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    if let Some(out) = args.raw("trace-out") {
        write_trace(out, &chain, &platform, Some(&plan), cfg.periods.min(12))?;
    }
    if let Some(out) = args.raw("metrics-out") {
        write_metrics(out, &stats)?;
    }
    if args.has("stats") {
        println!("planner  : {}", stats.summary());
    }

    if cert.passed() {
        println!("PASS: checker, replay, and fault injection agree");
        Ok(())
    } else {
        for f in &cert.failures {
            eprintln!("FAIL: {f}");
        }
        Err(format!(
            "certification failed with {} disagreement(s)",
            cert.failures.len()
        ))
    }
}

fn cmd_validate_trace(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing <trace.json> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let s =
        madpipe_obs::validate::validate_trace_text(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} events ({} spans, {} span names, {} counter tracks), horizon {:.3} ms",
        s.events,
        s.spans,
        s.span_names.len(),
        s.counter_tracks.len(),
        s.max_ts_us / 1e3,
    );
    for (track, peak) in &s.counter_peaks {
        println!("  peak {track}: {peak}");
    }
    if let Some(expected) = args.raw("expect-spans") {
        let missing: Vec<&str> = expected
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty() && !s.span_names.contains(*n))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{path}: missing expected span(s) {} (present: {:?})",
                missing.join(", "),
                s.span_names
            ));
        }
        println!("  all expected spans present: {expected}");
    }
    if let Some(mpath) = args.raw("metrics") {
        let text = std::fs::read_to_string(mpath).map_err(|e| format!("reading {mpath}: {e}"))?;
        let n = madpipe_obs::validate::validate_prometheus(&text)
            .map_err(|e| format!("{mpath}: {e}"))?;
        println!("{mpath}: {n} valid metric samples");
    }
    Ok(())
}

fn cmd_trace_merge(args: &Args) -> Result<(), String> {
    let inputs = &args.positional[1..];
    if inputs.is_empty() {
        return Err("trace-merge needs at least one input artifact".into());
    }
    let out = args.raw("out").ok_or("trace-merge requires --out FILE")?;
    let mut labeled: Vec<(String, String)> = Vec::with_capacity(inputs.len());
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let label = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        labeled.push((label, text));
    }
    let merged = madpipe_obs::merge_traces(&labeled)?;
    let text = merged.to_string_pretty();
    // Validate before writing: a merged artifact with broken parent
    // links would only fail later, in someone else's validate-trace.
    let s = madpipe_obs::validate::validate_chrome(&text).map_err(|e| format!("merged: {e}"))?;
    std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} processes, {} events ({} spans, {} cross-linked), horizon {:.3} ms",
        labeled.len(),
        s.events,
        s.spans,
        s.linked_spans,
        s.max_ts_us / 1e3,
    );
    Ok(())
}

/// One request/response exchange against a daemon or router (used by
/// `madpipe top` for its `health`/`metrics` polls).
fn probe_line(addr: &str, line: &str, timeout: std::time::Duration) -> Result<Value, String> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    Value::parse(response.trim()).map_err(|e| format!("bad response JSON: {e}"))
}

/// Render one latency quantile for `madpipe top`. An idle cluster has
/// all-zero histogram buckets, for which no quantile is defined
/// ([`madpipe_obs::quantile_from_buckets`] returns NaN) — render `-`
/// instead of a raw NaN.
fn latency_cell(ms: f64) -> String {
    if ms.is_finite() {
        format!("{ms:.2} ms")
    } else {
        "-".to_string()
    }
}

/// One `madpipe top` frame: per-daemon rows from the health rollup plus
/// cluster-wide latency quantiles from the summed histogram buckets.
fn top_frame(
    addr: &str,
    timeout: std::time::Duration,
    previous: &mut std::collections::HashMap<String, (u64, std::time::Instant)>,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let health = probe_line(addr, r#"{"cmd":"health"}"#, timeout)?;
    let body = health.field("health").map_err(|e| format!("health: {e}"))?;
    // A router rollup carries a `daemons` array; a single daemon is its
    // own one-row cluster.
    let daemons: Vec<(String, bool, String, Value)> = match body.get("daemons") {
        Some(list) => list
            .as_array()
            .map_err(|e| format!("daemons: {e}"))?
            .iter()
            .map(|d| {
                let name = d
                    .get("addr")
                    .and_then(|a| a.as_str().ok())
                    .unwrap_or("?")
                    .to_string();
                let ok = d.get("ok") == Some(&Value::Bool(true));
                let breaker = d
                    .get("breaker")
                    .and_then(|b| b.as_str().ok())
                    .unwrap_or("-")
                    .to_string();
                (
                    name,
                    ok,
                    breaker,
                    d.get("health").cloned().unwrap_or(Value::Null),
                )
            })
            .collect(),
        // A direct daemon has no router in front of it, hence no breaker.
        None => vec![(addr.to_string(), true, "-".into(), body.clone())],
    };
    let uint = |v: &Value, key: &str| v.get(key).and_then(|x| x.as_u64().ok()).unwrap_or(0);
    let now = std::time::Instant::now();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>5} {:>8} {:>6} {:>9} {:>6} {:>8} {:>9} {:>9}",
        "daemon", "up", "workers", "queue", "req/s", "hit%", "dropped", "shed", "breaker"
    );
    for (name, ok, breaker, h) in &daemons {
        if !ok {
            let _ = writeln!(
                out,
                "{name:<22} {:>5} — unreachable (breaker {breaker})",
                "DOWN"
            );
            continue;
        }
        let requests = uint(h, "requests");
        let rate = match previous.insert(name.clone(), (requests, now)) {
            Some((prev, at)) if now > at && requests >= prev => {
                (requests - prev) as f64 / (now - at).as_secs_f64()
            }
            _ => 0.0,
        };
        let hits = uint(h, "cache_hits") as f64;
        let misses = uint(h, "cache_misses") as f64;
        let hit_pct = if hits + misses > 0.0 {
            100.0 * hits / (hits + misses)
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<22} {:>5} {:>5}/{:<2} {:>6} {:>9.1} {:>6.1} {:>8} {:>9} {:>9}",
            name,
            "up",
            uint(h, "workers_alive"),
            uint(h, "workers_configured"),
            uint(h, "queue_depth"),
            rate,
            hit_pct,
            uint(h, "events_dropped"),
            uint(h, "shed_expired") + uint(h, "shed_overload"),
            breaker,
        );
    }
    // Cluster-wide request-latency quantiles, reconstructed from the
    // (router-summed) cumulative `_bucket` series.
    let metrics = probe_line(addr, r#"{"cmd":"metrics"}"#, timeout)?;
    if let Ok(text) = metrics.field("metrics").and_then(Value::as_str) {
        if let Ok(histograms) = madpipe_obs::validate::histogram_buckets(text) {
            if let Some(buckets) = histograms.get("madpipe_serve_request_seconds") {
                let q = |p: f64| latency_cell(1e3 * madpipe_obs::quantile_from_buckets(buckets, p));
                let _ = writeln!(
                    out,
                    "latency   : p50 {}, p95 {}, p99 {} (cluster, {} requests)",
                    q(0.50),
                    q(0.95),
                    q(0.99),
                    buckets.iter().map(|(_, n)| n).sum::<u64>(),
                );
            }
        }
    }
    Ok(out)
}

fn cmd_top(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let addr = args.raw("addr").unwrap_or("127.0.0.1:4830").to_string();
    let interval = std::time::Duration::from_millis(args.get_or("interval-ms", 1_000u64)?.max(100));
    let timeout = std::time::Duration::from_millis(args.get_or("timeout-ms", 5_000u64)?.max(1));
    let once = args.has("once");
    let mut previous = std::collections::HashMap::new();
    loop {
        let frame = top_frame(&addr, timeout, &mut previous)?;
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame: a crude but dependency-free
        // full-screen refresh.
        print!(
            "\x1b[2J\x1b[Hmadpipe top — {addr} (refresh {} ms)\n\n{frame}",
            interval.as_millis()
        );
        std::io::stdout().flush().ok();
        std::thread::sleep(interval);
    }
}

fn cmd_bench_baseline(args: &Args) -> Result<(), String> {
    let grid = baseline::smoke_grid();
    let cells = baseline::smoke_cells();
    let threads = args.get_or("threads", 0usize)?;
    let out: PathBuf = args.raw("out").unwrap_or("BENCH_smoke.json").into();
    eprintln!("running the {}-cell smoke grid...", cells.len());
    let mut networks: Vec<String> = cells.iter().map(|c| c.network.clone()).collect();
    networks.sort();
    networks.dedup();
    let chains = chains_for(&networks, grid.batch, grid.image_size);
    let results = run_cells(&chains, &cells, &PlannerConfig::default(), threads, true);
    let records: Vec<baseline::BaselineRecord> = results.iter().map(Into::into).collect();
    baseline::save(&records, &out).map_err(|e| e.to_string())?;
    println!("wrote {} ({} cells)", out.display(), records.len());

    let flip_violations = baseline::tight_cell_flip_violations(&records);
    if !flip_violations.is_empty() {
        for v in &flip_violations {
            eprintln!("FAIL: {v}");
        }
        return Err(format!(
            "tight-memory policy flip check failed with {} violation(s)",
            flip_violations.len()
        ));
    }

    if let Some(path) = args.raw("stats-json") {
        let doc = Value::Array(
            results
                .iter()
                .map(|r| {
                    Value::Object(vec![
                        ("network".into(), Value::Str(r.cell.network.clone())),
                        ("p".into(), Value::UInt(r.cell.p as u64)),
                        ("m_gb".into(), Value::UInt(r.cell.m_gb)),
                        ("beta_gb".into(), Value::Float(r.cell.beta_gb)),
                        ("stats".into(), r.stats.to_json()),
                    ])
                })
                .collect(),
        );
        std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(uncertified) = records
        .iter()
        .find(|r| r.madpipe.is_some() && r.certified != Some(true))
    {
        return Err(format!(
            "{} P={} M={}GB: plan exists but did not certify",
            uncertified.network, uncertified.p, uncertified.m_gb
        ));
    }

    let Some(base_path) = args.raw("baseline") else {
        return Ok(());
    };
    let reference = baseline::load(base_path)?;
    let tolerance = args.get_or("tolerance", 0.10f64)?;
    let time_factor = args.get_or("time-factor", 5.0f64)?;
    let violations = baseline::compare_baselines(&records, &reference, tolerance, time_factor);
    if violations.is_empty() {
        println!(
            "baseline check PASS vs {base_path} (period tolerance {:.0}%, time factor {time_factor}x)",
            tolerance * 100.0
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        Err(format!(
            "baseline check failed with {} violation(s) vs {base_path}",
            violations.len()
        ))
    }
}

fn cmd_bench_plan_speed(args: &Args) -> Result<(), String> {
    let grid = plan_speed::plan_speed_grid();
    let repeats = args.get_or("repeat", 3usize)?;
    let out: PathBuf = args.raw("out").unwrap_or("BENCH_plan_speed.json").into();
    eprintln!(
        "timing the {}-cell plan-speed grid ({repeats} repeats per cell)...",
        grid.cells().len()
    );
    let records = plan_speed::run_plan_speed(&grid, &PlannerConfig::default(), repeats);
    plan_speed::save(&records, &out).map_err(|e| e.to_string())?;
    let dp_total: f64 = records.iter().map(|r| r.dp_seconds).sum();
    println!(
        "wrote {} ({} cells, {:.2} s median DP time total)",
        out.display(),
        records.len(),
        dp_total
    );

    let Some(base_path) = args.raw("baseline") else {
        return Ok(());
    };
    let reference = plan_speed::load(base_path)?;
    let time_factor = args.get_or("time-factor", 1.25f64)?;
    let violations = plan_speed::compare_plan_speed(&records, &reference, time_factor);
    if violations.is_empty() {
        println!(
            "plan-speed check PASS vs {base_path} (periods bit-identical, DP time factor {time_factor}x)"
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        Err(format!(
            "plan-speed check failed with {} violation(s) vs {base_path}",
            violations.len()
        ))
    }
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let chain = load_chain(args)?;
    let batch = args.get_or("batch", 8u64)?;
    let image = args.get_or("image", 1000u64)?;
    let out: PathBuf = args.raw("out").ok_or("profile requires --out FILE")?.into();
    let profile = Profile {
        batch,
        image_size: image,
        gpu: Some(GpuModel::default()),
        chain,
    };
    profile.save(&out).map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    Ok(())
}

fn cmd_experiments(args: &Args) -> Result<(), String> {
    let which = args.positional.get(1).map(String::as_str).unwrap_or("all");
    let grid = if args.has("full") {
        GridConfig::full()
    } else {
        GridConfig::quick()
    };
    let threads = args.get_or("threads", 0usize)?;
    let out_dir: PathBuf = args.raw("out").unwrap_or("results").into();
    let quiet = args.has("quiet");

    // Figure 6 needs a dense memory axis for ResNet-50 only; figures 7
    // and 8 use the full network grid. Evaluate the union of cells once.
    let mut grid6 = grid.clone();
    grid6.networks = vec!["resnet50".into()];
    if !args.has("full") {
        grid6.m_values = (3..=16).collect();
    }
    let mut cells = grid.cells();
    for c in grid6.cells() {
        if !cells.contains(&c) {
            cells.push(c);
        }
    }

    // "Below the leftmost point": re-plan the tightest fig6 memory
    // points under recompute + 2BW weight versioning, plus one grid
    // step below the paper's axis where the default model is typically
    // infeasible. These render as policy-tagged rows in the fig6 panels.
    let policy = PolicySpec {
        recompute: RecomputeMode::Auto,
        weights: WeightPolicy::TwoBw,
    };
    let m_min = grid6.m_values.iter().copied().min().unwrap_or(3);
    for &p in &grid6.p_values {
        for &beta_gb in &grid6.beta_values {
            for m_gb in [m_min.saturating_sub(1), m_min] {
                if m_gb == 0 {
                    continue;
                }
                let cell = madpipe_bench::Cell {
                    network: "resnet50".into(),
                    p,
                    m_gb,
                    beta_gb,
                    policy,
                };
                if !cells.contains(&cell) {
                    cells.push(cell);
                }
            }
        }
    }

    eprintln!(
        "running {} cells on the {} grid ({} threads)...",
        cells.len(),
        if args.has("full") { "full" } else { "quick" },
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    let chains = paper_chains(&grid);
    let planner = PlannerConfig::default();
    let results = run_cells(&chains, &cells, &planner, threads, !quiet);

    let total_planning: f64 = results.iter().map(|r| r.planning_seconds).sum();
    let total_solves: usize = results.iter().map(|r| r.dp_solves()).sum();
    let total_saved: usize = results.iter().map(|r| r.dp_probes_saved()).sum();
    eprintln!(
        "planning time over all cells: {total_planning:.1} s \
         ({total_solves} DP solves, {total_saved} probes saved by reuse)"
    );

    let emit = |name: &str, text: String, table: madpipe_bench::csv::Table| -> Result<(), String> {
        println!("{text}");
        let path = out_dir.join(format!("{name}.csv"));
        table.save(&path).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    };

    if which == "fig6" || which == "all" {
        let (text, table) = fig6::generate(&results);
        emit("fig6_resnet50_periods", text, table)?;
    }
    if which == "fig7" || which == "all" {
        let (text, table) = fig7::generate(&results);
        emit("fig7_ratio_gmean", text, table)?;
    }
    if which == "fig8" || which == "all" {
        let (text, table) = fig8::generate(&results);
        emit("fig8_speedups", text, table)?;
    }
    if which == "summary" || which == "all" {
        let (text, table) = summary::generate(&results);
        emit("summary", text, table)?;
    }
    if !["fig6", "fig7", "fig8", "summary", "all"].contains(&which) {
        return Err(format!("unknown experiment `{which}`"));
    }
    Ok(())
}

/// Split a comma-separated `--flag a,b,c` into its entries.
fn comma_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let cfg = madpipe_serve::ServeConfig {
        addr: args.raw("addr").unwrap_or("127.0.0.1:4835").to_string(),
        threads: args.get_or("threads", 2usize)?.max(1),
        cache_entries: args.get_or("cache-entries", 256usize)?,
        timeout: std::time::Duration::from_millis(args.get_or("timeout-ms", 30_000u64)?.max(1)),
        queue_depth: args.get_or("queue-depth", 0usize)?,
        panic_marker: None,
        peers: args.raw("peers").map(comma_list).unwrap_or_default(),
        gossip_interval: std::time::Duration::from_millis(args.get_or("gossip-ms", 500u64)?.max(1)),
        gossip_entries: args.get_or("gossip-entries", 8usize)?,
        flight_dump: args.raw("flight-dump").map(str::to_string),
        journal: args.raw("journal").map(str::to_string),
        cache_bytes: args.get_or("cache-bytes", 0usize)?,
        shed_target: std::time::Duration::from_millis(args.get_or("shed-target-ms", 0u64)?),
        shed_window: std::time::Duration::from_millis(
            args.get_or("shed-window-ms", 100u64)?.max(1),
        ),
    };
    madpipe_serve::install_signal_handlers();
    let server = madpipe_serve::Server::start(cfg).map_err(|e| format!("bind: {e}"))?;
    // The smoke harness waits for this exact line before firing load.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    while !server.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining...");
    server.shutdown();
    server.join();
    eprintln!("drained, exiting");
    Ok(())
}

fn cmd_route(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let backends = args
        .raw("backends")
        .map(comma_list)
        .filter(|b| !b.is_empty())
        .ok_or("route needs --backends HOST:PORT[,HOST:PORT..]")?;
    let n = backends.len();
    let cfg = madpipe_serve::RouterConfig {
        addr: args.raw("addr").unwrap_or("127.0.0.1:4830").to_string(),
        backends,
        vnodes: args.get_or("vnodes", 64usize)?.max(1),
        timeout: std::time::Duration::from_millis(args.get_or("timeout-ms", 60_000u64)?.max(1)),
        probe_timeout: std::time::Duration::from_millis(
            args.get_or("probe-timeout-ms", 2_000u64)?.max(1),
        ),
        breaker_threshold: args.get_or("breaker-threshold", 3u32)?.max(1),
        breaker_open: std::time::Duration::from_millis(args.get_or("breaker-open-ms", 500u64)?),
        flight_dump: args.raw("flight-dump").map(str::to_string),
    };
    madpipe_serve::install_signal_handlers();
    let router = madpipe_serve::Router::start(cfg).map_err(|e| format!("bind: {e}"))?;
    // The cluster smoke harness waits for this exact line.
    println!("routing on {} -> {n} backends", router.local_addr());
    std::io::stdout().flush().ok();
    while !router.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining...");
    router.shutdown();
    router.join();
    eprintln!("drained, exiting");
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let cfg = madpipe_bench::loadgen::LoadgenConfig {
        addrs: comma_list(args.raw("addr").unwrap_or("127.0.0.1:4835")),
        connections: args.get_or("connections", 4usize)?.max(1),
        requests_per_conn: args.get_or("requests", 16usize)?.max(1),
        pipeline_depth: args.get_or("pipeline", 1usize)?.max(1),
        instances: args.get_or("instances", 4usize)?.max(1),
        seed: args.get_or("seed", 42u64)?,
        timeout: std::time::Duration::from_millis(args.get_or("timeout-ms", 60_000u64)?.max(1)),
        max_retries: args.get_or("max-retries", 3usize)?,
        rate: args.get_or("rate", 0.0f64)?.max(0.0),
        trace: args.has("trace"),
    };
    let report = madpipe_bench::loadgen::run(&cfg)?;
    println!("{report}");
    if let Some(path) = args.raw("floor") {
        let baseline = madpipe_bench::loadgen::ServeSpeedBaseline::load(path)?;
        println!("{}", baseline.check(&report)?);
    }
    let metrics = madpipe_bench::loadgen::fetch_metrics(&cfg.addrs[0], cfg.timeout)?;
    let serve_lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("madpipe_serve_") && !l.starts_with('#'))
        .collect();
    println!("server serve.* counters:");
    for line in &serve_lines {
        println!("  {line}");
    }
    if args.has("expect-hits") {
        let counter = |name: &str| -> u64 {
            serve_lines
                .iter()
                .find(|l| {
                    l.strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with(' '))
                })
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let hits = counter("madpipe_serve_cache_hits");
        let misses = counter("madpipe_serve_cache_misses");
        let failed = report.errors + report.shed + report.timeouts;
        if failed > 0 {
            return Err(format!(
                "{failed} of {} requests failed ({} error, {} shed, {} timeout)",
                report.total, report.errors, report.shed, report.timeouts
            ));
        }
        if hits == 0 || misses == 0 {
            return Err(format!(
                "expected both cache hits and misses, server reports hits={hits} misses={misses}"
            ));
        }
        println!("expect-hits: ok (hits={hits}, misses={misses})");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_cells_never_render_a_raw_nan() {
        // An idle cluster's all-zero histogram yields a NaN quantile;
        // the dashboard must print `-`, not `NaN ms`.
        let empty: Vec<(f64, u64)> = vec![];
        let idle = latency_cell(1e3 * madpipe_obs::quantile_from_buckets(&empty, 0.99));
        assert_eq!(idle, "-");
        assert_eq!(latency_cell(f64::NAN), "-");
        assert_eq!(latency_cell(f64::INFINITY), "-");
        assert_eq!(latency_cell(1.234), "1.23 ms");
    }

    #[test]
    fn policy_flags_parse_into_the_planner_config() {
        let argv: Vec<String> = [
            "plan",
            "resnet50",
            "--recompute",
            "auto",
            "--weights",
            "2bw",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse(&argv, &[]).unwrap();
        let spec = policy_spec(&args).unwrap();
        assert_eq!(spec.recompute, RecomputeMode::Auto);
        assert_eq!(spec.weights, WeightPolicy::TwoBw);

        // Defaults reproduce the paper's model exactly.
        let bare = parse(&["plan".to_string()], &[]).unwrap();
        assert!(policy_spec(&bare).unwrap().is_default());

        // Bad values are reported, not silently defaulted.
        let bad: Vec<String> = ["plan", "--recompute", "sometimes"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(policy_spec(&parse(&bad, &[]).unwrap()).is_err());
    }
}
