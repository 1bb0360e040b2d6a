//! Per-layer figures of a traced run.
//!
//! Three sources, all read in-process:
//!
//! * the daemon's always-on flight recorder, which stamps a span per
//!   layer of a served request — `serve.request` (parse to response
//!   queued for writing), `serve.queue.wait` and `serve.worker`. Only
//!   events carrying one of the benchmark's trace ids count, so set-up
//!   traffic is ignored;
//! * the planner's global span tracer, switched on for the traced run,
//!   warm-up included: `plan.total`, its phases and every `dp.solve`;
//! * the benchmark's own clocks around serve-path calls it repeats
//!   client-side ([`ServeClocks`]) and around plan certification.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use madpipe_json::Value;
use madpipe_obs::flight::FlightKind;
use madpipe_serve::{PlanCache, Request};

#[derive(Default)]
pub struct LayerLog {
    /// `serve.request` duration by trace id.
    request_us: HashMap<u64, f64>,
    queue_us: Vec<f64>,
    worker_us: Vec<f64>,
    plan_us: Vec<f64>,
    /// Summed duration of every other planner span, by name.
    phase_us: HashMap<&'static str, f64>,
    dp_solve_us: Vec<f64>,
}

impl LayerLog {
    /// Move everything the flight recorder and the span tracer hold into
    /// the log. Call often enough that the ring does not lap.
    pub fn absorb(&mut self) {
        for e in madpipe_obs::flight::drain() {
            if e.kind != FlightKind::Span || e.trace == 0 {
                continue;
            }
            match e.name {
                "serve.request" => {
                    self.request_us.insert(e.trace, e.dur_us);
                }
                "serve.queue.wait" => self.queue_us.push(e.dur_us),
                "serve.worker" => self.worker_us.push(e.dur_us),
                _ => {}
            }
        }
        for s in madpipe_obs::drain_spans() {
            match s.name {
                "plan.total" => self.plan_us.push(s.dur_us),
                "dp.solve" => self.dp_solve_us.push(s.dur_us),
                name => *self.phase_us.entry(name).or_default() += s.dur_us,
            }
        }
    }

    /// Drop whatever was recorded so far (set-up traffic).
    pub fn discard() {
        madpipe_obs::flight::drain();
        madpipe_obs::drain_spans();
    }

    /// Per-layer metrics `(name, value, unit)`. `rtt` pairs each traced
    /// request's id with its client round trip (µs), `clocks` and
    /// `certify_us` are the benchmark's own clocks, `counters` the
    /// daemon's counter deltas over the run.
    pub fn metrics(
        &self,
        rtt: &[(u64, f64)],
        clocks: &ServeClocks,
        certify_us: &[f64],
        counters: &Counters,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |us: f64| us / 1e3;
        let rtts: Vec<f64> = rtt.iter().map(|&(_, r)| r).collect();
        let wire: Vec<f64> = rtt
            .iter()
            .filter_map(|(id, r)| self.request_us.get(id).map(|s| r - s))
            .collect();
        let server: Vec<f64> = self.request_us.values().copied().collect();
        let plans = self.plan_us.len().max(1) as f64;
        let per_plan = |name: &str| ms(self.phase_us.get(name).copied().unwrap_or(0.0) / plans);
        vec![
            ("client_rtt_ms", ms(median(&rtts)), "ms"),
            ("server_request_ms", ms(median(&server)), "ms"),
            ("wire_ms", ms(median(&wire)), "ms"),
            ("parse_ms", ms(median(&clocks.parse_us)), "ms"),
            ("lookup_ms", ms(median(&clocks.lookup_us)), "ms"),
            ("serialize_ms", ms(median(&clocks.serialize_us)), "ms"),
            ("queue_wait_ms", ms(median(&self.queue_us)), "ms"),
            ("worker_ms", ms(median(&self.worker_us)), "ms"),
            ("plan_ms", ms(median(&self.plan_us)), "ms"),
            ("phase1_ms", per_plan("plan.phase1.bisect"), "ms"),
            ("fallback_ms", per_plan("plan.fallback.contiguous"), "ms"),
            ("refine_ms", per_plan("plan.refine.grid"), "ms"),
            ("schedule_ms", per_plan("plan.phase2.schedule"), "ms"),
            ("dp_solve_ms", ms(median(&self.dp_solve_us)), "ms"),
            ("certify_ms", ms(median(certify_us)), "ms"),
            ("requests", rtt.len() as f64, "count"),
            ("cache_hits", counters.cache_hits as f64, "count"),
            ("cache_misses", counters.cache_misses as f64, "count"),
            ("plans", counters.plans as f64, "count"),
            (
                "dp_solves_per_plan",
                self.dp_solve_us.len() as f64 / plans,
                "count",
            ),
        ]
    }
}

/// The benchmark's clocks around the serve-path calls the daemon makes
/// for every request, repeated client-side on each traced request line:
/// parsing it (`madpipe_serve::parse_line`, which also builds the cache
/// key), looking its key up in a `PlanCache` that holds what the
/// daemon's holds, and rendering the response (`plan_response`).
pub struct ServeClocks {
    cache: PlanCache,
    pub parse_us: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub serialize_us: Vec<f64>,
}

/// What [`ServeClocks::request`] found out about a request line.
pub struct Lookup {
    canonical: String,
    plan: Option<Arc<Value>>,
}

impl ServeClocks {
    pub fn new() -> Self {
        Self {
            cache: PlanCache::new(1024),
            parse_us: Vec::new(),
            lookup_us: Vec::new(),
            serialize_us: Vec::new(),
        }
    }

    /// Time parsing `line` and looking up its cache key.
    pub fn request(&mut self, line: &str) -> Result<Lookup, String> {
        let t0 = Instant::now();
        let parsed = madpipe_serve::parse_line(line);
        self.parse_us.push(micros(t0));
        let canonical = match parsed {
            Ok((Request::Plan(req), _)) => req.canonical,
            Ok(_) => return Err("not a plan request".into()),
            Err(e) => return Err(e.message),
        };
        let t0 = Instant::now();
        let plan = self.cache.get(&canonical);
        self.lookup_us.push(micros(t0));
        Ok(Lookup { canonical, plan })
    }

    /// Time rendering the response to a looked-up request. On a miss the
    /// plan comes from the daemon's `response` and is cached first.
    pub fn response(&mut self, lookup: Lookup, response: &str) -> Result<(), String> {
        let cached = lookup.plan.is_some();
        let plan = match lookup.plan {
            Some(plan) => plan,
            None => {
                let v = Value::parse(response).map_err(|e| e.to_string())?;
                let plan = Arc::new(v.field("plan").map_err(|e| e.to_string())?.clone());
                self.cache.insert(lookup.canonical, Arc::clone(&plan));
                plan
            }
        };
        let t0 = Instant::now();
        let line = madpipe_serve::protocol::plan_response(&plan, cached);
        self.serialize_us.push(micros(t0));
        std::hint::black_box(line);
        Ok(())
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The daemon's counters the benchmark reads, as deltas over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub plans: u64,
}

impl Counters {
    pub fn read(registry: &madpipe_obs::Registry) -> Self {
        Self {
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            plans: registry.counter("serve.plans"),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            plans: self.plans - before.plans,
        }
    }
}

/// Nearest-rank quantile `q` of `values` (0 for an empty set).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half of `values` (all of them when fewer than
/// four): unmoved by a few outliers, yet it averages a slow stretch and a
/// fast one instead of picking whichever covers more than half.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}
