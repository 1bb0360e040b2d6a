//! The NDJSON wire protocol of `madpipe serve` and the canonical form of
//! a planning instance.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. A request names its command in `cmd`:
//!
//! * `{"cmd":"plan","chain":{…},"platform":{…},"config":{…}}` — plan the
//!   instance; `config` is optional. The platform accepts either byte
//!   units (`memory_bytes`, `bandwidth_bytes`) or GiB units (`memory_gb`,
//!   `bandwidth_gb`); both normalize to bytes before planning *and*
//!   before cache keying, so the same instance expressed in different
//!   units is one cache entry.
//! * `{"cmd":"replan","chain":{…},"platform":{…},"fault":{…},"config":{…}}`
//!   — degraded-mode replanning: `platform` is the *healthy* platform,
//!   `fault` one of `{"kind":"gpu_loss","count":N}`,
//!   `{"kind":"memory_reduction","fraction":F}` or
//!   `{"kind":"link_slowdown","fraction":F}`. The server derives the
//!   surviving platform, plans both sides (through the same cache and
//!   worker pool as `plan`, so the degraded plan is bit-identical to a
//!   `plan` request on the survivor) and reports the throughput delta.
//! * `{"cmd":"metrics"}` — returns the Prometheus text dump of the
//!   server's registry in `metrics`.
//! * `{"cmd":"health"}` — supervision probe: worker liveness, queue
//!   depth, panic/respawn counters, cache size, drain state.
//! * `{"cmd":"ping"}` — liveness probe.
//! * `{"cmd":"gossip","entries":[{"key":…,"plan":…},…]}` — peer-to-peer
//!   cache warming: a peer daemon ships its hottest canonical keys with
//!   their rendered plans. The receiver inserts the ones it does not
//!   already hold and acknowledges with applied/refreshed counts. At
//!   most [`MAX_GOSSIP_ENTRIES`] entries per request.
//! * `{"cmd":"shutdown"}` — ask the server to drain and exit.
//!
//! Responses are `{"ok":true,…}` or
//! `{"ok":false,"error":{"kind":…,"message":…}}`. A bad request never
//! kills the connection, let alone the server.
//!
//! # Distributed trace context
//!
//! Any request line may carry two optional string fields, `trace` (an
//! end-to-end trace id) and `parent` (the caller's span id), both 16
//! lower-hex digits of a nonzero `u64`. A traced hop stamps its own
//! spans with that context into the flight recorder, rewrites the
//! fields when it forwards (the router becomes the daemon's `parent`),
//! and echoes `"trace"`/`"span"` back on its response so the caller can
//! correlate. Untraced lines — no `trace` field — are forwarded and
//! answered byte-identically to a build without tracing; the context is
//! advisory and never fails a request.

use madpipe_core::{MadPipePlan, PlannerConfig};
use madpipe_json::{FromJson, ToJson, Value};
use madpipe_model::{Chain, Platform, PlatformFault};

/// A structured protocol-level error: `kind` is a small closed set a
/// client can switch on, `message` says what actually went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    pub kind: &'static str,
    pub message: String,
}

impl ServeError {
    /// The request was not a JSON object with a known `cmd`.
    pub fn malformed(message: impl Into<String>) -> Self {
        Self {
            kind: "malformed",
            message: message.into(),
        }
    }

    /// The request parsed but its values are unusable (NaN timings,
    /// zero-GPU platform, …).
    pub fn invalid(message: impl Into<String>) -> Self {
        Self {
            kind: "invalid",
            message: message.into(),
        }
    }

    /// The worker queue is full.
    pub fn overloaded() -> Self {
        Self {
            kind: "overloaded",
            message: "worker queue full, retry later".into(),
        }
    }

    /// The deadline elapsed while the request waited for (or sat in)
    /// the worker pool.
    pub fn timeout() -> Self {
        Self {
            kind: "timeout",
            message: "request deadline exceeded".into(),
        }
    }

    /// The server is draining and accepts no new planning work.
    pub fn unavailable() -> Self {
        Self {
            kind: "unavailable",
            message: "server is draining".into(),
        }
    }

    /// The instance is valid but the planner found no plan.
    pub fn plan(message: impl Into<String>) -> Self {
        Self {
            kind: "plan",
            message: message.into(),
        }
    }

    /// A worker died (panicked) while serving the request. The request
    /// was isolated; the pool survives and the worker is respawned.
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            kind: "internal",
            message: message.into(),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub enum Request {
    Plan(Box<PlanRequest>),
    Replan(Box<ReplanRequest>),
    Gossip(Vec<GossipEntry>),
    Metrics,
    Health,
    Ping,
    Shutdown,
}

/// Cap on entries in one gossip request: gossip is advisory cache
/// warming, never a bulk-transfer channel, and the cap bounds what one
/// hostile line can make the receiver buffer.
pub const MAX_GOSSIP_ENTRIES: usize = 64;

/// One gossiped cache entry: a canonical instance key and its rendered
/// plan (the same `Value` a `plan` response carries).
#[derive(Debug)]
pub struct GossipEntry {
    pub key: String,
    pub plan: Value,
}

/// A fully validated planning instance plus its canonical cache key.
#[derive(Debug)]
pub struct PlanRequest {
    pub chain: Chain,
    pub platform: Platform,
    pub cfg: PlannerConfig,
    /// Compact render of the key-sorted, unit-normalized instance. The
    /// full string is the cache map key (hashes only pick the shard), so
    /// a hash collision can never serve the wrong plan.
    pub canonical: String,
}

/// A validated replanning request: the healthy (baseline) instance, the
/// fault, and the derived surviving instance. Both sides carry their own
/// canonical key, so each is cached exactly as an equivalent `plan`
/// request would be — a replan-derived degraded plan and a direct plan
/// of the survivor are one cache entry.
#[derive(Debug)]
pub struct ReplanRequest {
    pub fault: PlatformFault,
    pub baseline: PlanRequest,
    pub degraded: PlanRequest,
}

/// Distributed trace context found on a request line: the end-to-end
/// trace id plus the caller's span id (0 = this hop is the trace root).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    pub trace: u64,
    pub parent: u64,
}

/// Parse one request line together with its optional trace context.
/// The context is `Some` only when the line carries a valid nonzero
/// `trace` hex id; a malformed context is ignored (tracing is advisory,
/// it never fails a request), and the single JSON parse is shared with
/// command dispatch.
pub fn parse_line(line: &str) -> Result<(Request, Option<TraceContext>), ServeError> {
    let v = Value::parse(line).map_err(|e| ServeError::malformed(format!("bad JSON: {e}")))?;
    let hex_field = |key: &str| -> u64 {
        v.get(key)
            .and_then(|t| t.as_str().ok())
            .and_then(madpipe_obs::parse_hex_id)
            .unwrap_or(0)
    };
    let ctx = match hex_field("trace") {
        0 => None,
        trace => Some(TraceContext {
            trace,
            parent: hex_field("parent"),
        }),
    };
    Ok((request_of_value(&v)?, ctx))
}

/// Parse one request line. Returns a structured error instead of
/// panicking on anything a client could possibly send.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    parse_line(line).map(|(req, _)| req)
}

fn request_of_value(v: &Value) -> Result<Request, ServeError> {
    let cmd = v
        .get("cmd")
        .ok_or_else(|| ServeError::malformed("missing field `cmd`"))?
        .as_str()
        .map_err(|_| ServeError::malformed("`cmd` must be a string"))?;
    match cmd {
        "plan" => Ok(Request::Plan(Box::new(parse_plan_request(v)?))),
        "replan" => Ok(Request::Replan(Box::new(parse_replan_request(v)?))),
        "gossip" => Ok(Request::Gossip(parse_gossip_request(v)?)),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::malformed(format!("unknown cmd `{other}`"))),
    }
}

fn parse_replan_request(v: &Value) -> Result<ReplanRequest, ServeError> {
    let baseline = parse_plan_request(v)?;
    let fault_v = v
        .get("fault")
        .ok_or_else(|| ServeError::malformed("replan request needs `fault`"))?;
    let fault = PlatformFault::from_json(fault_v)
        .map_err(|e| ServeError::malformed(format!("fault: {e}")))?;
    // An inapplicable fault (losing every GPU, fraction outside (0,1))
    // parsed fine but names no surviving platform: `invalid`.
    let surviving = fault
        .apply(&baseline.platform)
        .map_err(|e| ServeError::invalid(e.to_string()))?;
    let canonical = canonical_instance(&baseline.chain, &surviving, &baseline.cfg);
    let degraded = PlanRequest {
        chain: baseline.chain.clone(),
        platform: surviving,
        cfg: baseline.cfg,
        canonical,
    };
    Ok(ReplanRequest {
        fault,
        baseline,
        degraded,
    })
}

fn parse_gossip_request(v: &Value) -> Result<Vec<GossipEntry>, ServeError> {
    let entries = v
        .get("entries")
        .ok_or_else(|| ServeError::malformed("gossip request needs `entries`"))?
        .as_array()
        .map_err(|_| ServeError::malformed("gossip `entries` must be an array"))?;
    if entries.len() > MAX_GOSSIP_ENTRIES {
        return Err(ServeError::malformed(format!(
            "gossip carries {} entries, cap is {MAX_GOSSIP_ENTRIES}",
            entries.len()
        )));
    }
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let key = e
                .field("key")
                .and_then(Value::as_str)
                .map_err(|_| ServeError::malformed(format!("gossip entry {i}: bad `key`")))?;
            if key.is_empty() {
                return Err(ServeError::malformed(format!(
                    "gossip entry {i}: empty `key`"
                )));
            }
            let plan = e
                .field("plan")
                .map_err(|_| ServeError::malformed(format!("gossip entry {i}: missing `plan`")))?;
            if !matches!(plan, Value::Object(_)) {
                return Err(ServeError::malformed(format!(
                    "gossip entry {i}: `plan` must be an object"
                )));
            }
            Ok(GossipEntry {
                key: key.to_string(),
                plan: plan.clone(),
            })
        })
        .collect()
}

fn parse_plan_request(v: &Value) -> Result<PlanRequest, ServeError> {
    let chain_v = v
        .get("chain")
        .ok_or_else(|| ServeError::malformed("plan request needs `chain`"))?;
    // `Chain::from_json` runs `Chain::new`, which rejects NaN, infinite
    // and negative layer timings with a message naming the layer.
    let chain =
        Chain::from_json(chain_v).map_err(|e| ServeError::invalid(format!("chain: {e}")))?;
    let platform_v = v
        .get("platform")
        .ok_or_else(|| ServeError::malformed("plan request needs `platform`"))?;
    let platform = platform_from_json(platform_v)?;
    let cfg = config_from_json(v.get("config"))?;
    let canonical = canonical_instance(&chain, &platform, &cfg);
    Ok(PlanRequest {
        chain,
        platform,
        cfg,
        canonical,
    })
}

/// Bytes in one GiB, for the `*_gb` convenience units.
const GIB: f64 = (1u64 << 30) as f64;

/// Platform from JSON, accepting byte or GiB units and normalizing to
/// bytes. `Platform::new` then enforces positivity and finiteness.
fn platform_from_json(v: &Value) -> Result<Platform, ServeError> {
    let n_gpus = v
        .field("n_gpus")
        .and_then(Value::as_u64)
        .map_err(|e| ServeError::invalid(format!("platform: {e}")))? as usize;
    let memory_bytes = match (v.get("memory_bytes"), v.get("memory_gb")) {
        (Some(b), _) => b
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("platform memory_bytes: {e}")))?,
        (None, Some(g)) => {
            let gb = g
                .as_f64()
                .map_err(|e| ServeError::invalid(format!("platform memory_gb: {e}")))?;
            if !(gb.is_finite() && gb > 0.0) {
                return Err(ServeError::invalid(format!(
                    "platform memory_gb must be positive and finite, got {gb}"
                )));
            }
            (gb * GIB) as u64
        }
        (None, None) => {
            return Err(ServeError::invalid(
                "platform needs `memory_bytes` or `memory_gb`",
            ))
        }
    };
    let bandwidth = match (v.get("bandwidth_bytes"), v.get("bandwidth_gb")) {
        (Some(b), _) => b
            .as_f64()
            .map_err(|e| ServeError::invalid(format!("platform bandwidth_bytes: {e}")))?,
        (None, Some(g)) => {
            g.as_f64()
                .map_err(|e| ServeError::invalid(format!("platform bandwidth_gb: {e}")))?
                * GIB
        }
        (None, None) => {
            return Err(ServeError::invalid(
                "platform needs `bandwidth_bytes` or `bandwidth_gb`",
            ))
        }
    };
    Platform::new(n_gpus, memory_bytes, bandwidth)
        .map_err(|e| ServeError::invalid(format!("platform: {e}")))
}

/// Planner config from the optional `config` object. Only the stable
/// knobs are exposed; everything else keeps the `madpipe plan` defaults
/// so cached plans are bit-identical to the CLI's.
fn config_from_json(v: Option<&Value>) -> Result<PlannerConfig, ServeError> {
    let mut cfg = PlannerConfig::default();
    let Some(v) = v else { return Ok(cfg) };
    if matches!(v, Value::Null) {
        return Ok(cfg);
    }
    if let Some(r) = v.get("refine_probes") {
        cfg.refine_probes = r
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config refine_probes: {e}")))?
            as usize;
    }
    if let Some(t) = v.get("threads") {
        cfg.threads = t
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config threads: {e}")))?
            .clamp(1, 64) as usize;
    }
    if let Some(i) = v.get("iterations") {
        cfg.algorithm1.iterations = i
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config iterations: {e}")))?
            .clamp(1, 64) as usize;
    }
    if let Some(r) = v.get("recompute") {
        let s = r
            .as_str()
            .map_err(|e| ServeError::invalid(format!("config recompute: {e}")))?;
        cfg.policy.recompute = madpipe_model::RecomputeMode::parse(s)
            .map_err(|e| ServeError::invalid(format!("config recompute: {e}")))?;
    }
    if let Some(w) = v.get("weights") {
        let s = w
            .as_str()
            .map_err(|e| ServeError::invalid(format!("config weights: {e}")))?;
        cfg.policy.weights = madpipe_model::WeightPolicy::parse(s)
            .map_err(|e| ServeError::invalid(format!("config weights: {e}")))?;
    }
    Ok(cfg)
}

/// Recursively sort every object's keys. Arrays keep their order (layer
/// order is meaningful).
pub fn sort_keys(v: Value) -> Value {
    match v {
        Value::Object(mut fields) => {
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, val)| (k, sort_keys(val)))
                    .collect(),
            )
        }
        Value::Array(items) => Value::Array(items.into_iter().map(sort_keys).collect()),
        other => other,
    }
}

/// The canonical form of a planning instance: rebuilt from the *typed*
/// chain/platform/config (so units are already normalized to bytes and
/// derived state is dropped), keys recursively sorted, rendered compact.
/// Two requests meaning the same instance — whatever key order or units
/// they used on the wire — produce byte-identical canonical strings.
pub fn canonical_instance(chain: &Chain, platform: &Platform, cfg: &PlannerConfig) -> String {
    let inst = Value::Object(vec![
        ("chain".into(), chain.to_json()),
        (
            "config".into(),
            Value::Object(vec![
                (
                    "iterations".into(),
                    Value::UInt(cfg.algorithm1.iterations as u64),
                ),
                (
                    "recompute".into(),
                    Value::Str(cfg.policy.recompute.as_str().into()),
                ),
                (
                    "refine_probes".into(),
                    Value::UInt(cfg.refine_probes as u64),
                ),
                ("threads".into(), Value::UInt(cfg.threads as u64)),
                (
                    "weights".into(),
                    Value::Str(cfg.policy.weights.as_str().into()),
                ),
            ]),
        ),
        (
            "platform".into(),
            Value::Object(vec![
                ("bandwidth_bytes".into(), Value::Float(platform.bandwidth)),
                ("memory_bytes".into(), Value::UInt(platform.memory_bytes)),
                ("n_gpus".into(), Value::UInt(platform.n_gpus as u64)),
            ]),
        ),
    ]);
    sort_keys(inst).to_string_compact()
}

/// Render a plan as its response JSON. `period`, `phase1_period` and
/// `throughput` round-trip f64 bit-exactly through the vendored writer,
/// so clients can compare plans for bit-identity.
pub fn plan_to_json(plan: &MadPipePlan) -> Value {
    Value::Object(vec![
        ("period".into(), Value::Float(plan.period())),
        ("phase1_period".into(), Value::Float(plan.phase1.period)),
        ("throughput".into(), Value::Float(plan.throughput())),
        (
            "stages".into(),
            Value::Array(
                plan.allocation
                    .stages()
                    .iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("start".into(), Value::UInt(s.layers.start as u64)),
                            ("end".into(), Value::UInt(s.layers.end as u64)),
                            ("gpu".into(), Value::UInt(s.gpu as u64)),
                            (
                                "activation".into(),
                                Value::Str(s.policy.activation.as_str().into()),
                            ),
                            (
                                "weights".into(),
                                Value::Str(s.policy.weights.as_str().into()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `{"ok":true,"cached":…,"plan":…}` as one line (no trailing newline).
pub fn plan_response(plan: &Value, cached: bool) -> String {
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("cached".into(), Value::Bool(cached)),
        ("plan".into(), plan.clone()),
    ])
    .to_string_compact()
}

/// `{"ok":true,"cached":…,"plan":…,"replan":{…}}` as one line: the
/// degraded plan is the payload (`plan`/`cached` mean exactly what they
/// mean in a `plan` response, for the *surviving* platform), and the
/// `replan` object carries the fault, the surviving platform and the
/// baseline comparison. Deltas are derived from the two rendered plans,
/// so they agree bit-for-bit with what a client would compute itself.
pub fn replan_response(
    fault: &PlatformFault,
    degraded_platform: &Platform,
    baseline: &Value,
    baseline_cached: bool,
    degraded: &Value,
    degraded_cached: bool,
) -> String {
    let f64_of = |plan: &Value, field: &str| -> f64 {
        plan.field(field)
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let base_period = f64_of(baseline, "period");
    let deg_period = f64_of(degraded, "period");
    let replan = Value::Object(vec![
        ("fault".into(), fault.to_json()),
        (
            "platform".into(),
            Value::Object(vec![
                (
                    "bandwidth_bytes".into(),
                    Value::Float(degraded_platform.bandwidth),
                ),
                (
                    "memory_bytes".into(),
                    Value::UInt(degraded_platform.memory_bytes),
                ),
                (
                    "n_gpus".into(),
                    Value::UInt(degraded_platform.n_gpus as u64),
                ),
            ]),
        ),
        (
            "baseline".into(),
            Value::Object(vec![
                ("period".into(), Value::Float(base_period)),
                (
                    "throughput".into(),
                    Value::Float(f64_of(baseline, "throughput")),
                ),
                ("cached".into(), Value::Bool(baseline_cached)),
            ]),
        ),
        (
            "period_ratio".into(),
            Value::Float(deg_period / base_period),
        ),
        (
            "throughput_delta".into(),
            Value::Float(base_period / deg_period - 1.0),
        ),
    ]);
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("cached".into(), Value::Bool(degraded_cached)),
        ("plan".into(), degraded.clone()),
        ("replan".into(), replan),
    ])
    .to_string_compact()
}

/// `{"ok":false,"error":{…}}` as one line.
pub fn error_response(err: &ServeError) -> String {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str(err.kind.into())),
                ("message".into(), Value::Str(err.message.clone())),
            ]),
        ),
    ])
    .to_string_compact()
}

/// `{"ok":true,<key>:<text>}` for metrics/ping/shutdown acknowledgments.
pub fn ok_response(key: &str, value: Value) -> String {
    Value::Object(vec![("ok".into(), Value::Bool(true)), (key.into(), value)]).to_string_compact()
}

/// Render a gossip request line (no trailing newline) from cache
/// entries. The sender truncates to [`MAX_GOSSIP_ENTRIES`] so the line
/// always parses on a well-behaved receiver.
pub fn gossip_line(entries: &[(String, std::sync::Arc<Value>)]) -> String {
    let items = entries
        .iter()
        .take(MAX_GOSSIP_ENTRIES)
        .map(|(key, plan)| {
            Value::Object(vec![
                ("key".into(), Value::Str(key.clone())),
                ("plan".into(), (**plan).clone()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("cmd".into(), Value::Str("gossip".into())),
        ("entries".into(), Value::Array(items)),
    ])
    .to_string_compact()
}

/// `{"ok":true,"gossip":{"applied":…,"refreshed":…}}`: how many shipped
/// entries were new to this cache vs. already held.
pub fn gossip_response(applied: u64, already_held: u64) -> String {
    ok_response(
        "gossip",
        Value::Object(vec![
            ("applied".into(), Value::UInt(applied)),
            ("already_held".into(), Value::UInt(already_held)),
        ]),
    )
}

/// Re-render `line` with `trace`/`parent` set (replacing any inbound
/// values) — how the router forwards a traced request so its own span
/// becomes the daemon's parent. Returns `None` if the line is not a
/// JSON object; the router only calls this on lines that already parsed.
pub fn inject_context(line: &str, trace: u64, parent: u64) -> Option<String> {
    let mut v = Value::parse(line).ok()?;
    let Value::Object(fields) = &mut v else {
        return None;
    };
    let mut set = |key: &str, id: u64| {
        let value = Value::Str(madpipe_obs::hex_id(id));
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    };
    set("trace", trace);
    set("parent", parent);
    Some(v.to_string_compact())
}

/// Splice `"trace"`/`"span"` echo fields into a rendered single-line
/// response. Every response renderer above emits `{…}`, so the splice
/// lands before the closing brace; a non-object response (impossible
/// today) is left untouched rather than corrupted.
pub fn attach_trace(response: &mut String, trace: u64, span: u64) {
    if !response.ends_with('}') || response.ends_with("{}") {
        return;
    }
    response.truncate(response.len() - 1);
    response.push_str(&format!(
        ",\"trace\":\"{}\",\"span\":\"{}\"}}",
        madpipe_obs::hex_id(trace),
        madpipe_obs::hex_id(span)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_line(platform: &str) -> String {
        format!(
            concat!(
                r#"{{"cmd":"plan","chain":{{"name":"t","input_bytes":1024,"layers":["#,
                r#"{{"name":"l0","forward_time":0.001,"backward_time":0.002,"weight_bytes":1000,"activation_bytes":2000}},"#,
                r#"{{"name":"l1","forward_time":0.003,"backward_time":0.004,"weight_bytes":1000,"activation_bytes":2000}}"#,
                r#"]}},"platform":{}}}"#
            ),
            platform
        )
    }

    #[test]
    fn parses_every_command() {
        assert!(matches!(
            parse_request(r#"{"cmd":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        let line = plan_line(r#"{"n_gpus":2,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        assert!(matches!(parse_request(&line), Ok(Request::Plan(_))));
    }

    #[test]
    fn replan_requests_derive_the_surviving_instance() {
        let base = plan_line(r#"{"n_gpus":4,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        let line = base.replacen(
            r#""cmd":"plan""#,
            r#""cmd":"replan","fault":{"kind":"gpu_loss","count":1}"#,
            1,
        );
        let Ok(Request::Replan(r)) = parse_request(&line) else {
            panic!("replan must parse: {line}");
        };
        assert_eq!(r.fault, PlatformFault::GpuLoss { count: 1 });
        assert_eq!(r.baseline.platform.n_gpus, 4);
        assert_eq!(r.degraded.platform.n_gpus, 3);
        assert_ne!(r.baseline.canonical, r.degraded.canonical);
        // The degraded canonical equals a direct plan of the survivor.
        let direct = plan_line(r#"{"n_gpus":3,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        let Ok(Request::Plan(p)) = parse_request(&direct) else {
            panic!("direct plan must parse");
        };
        assert_eq!(r.degraded.canonical, p.canonical);

        // Missing or malformed fault: `malformed`; inapplicable: `invalid`.
        assert_eq!(
            parse_request(&base.replacen(r#""cmd":"plan""#, r#""cmd":"replan""#, 1))
                .unwrap_err()
                .kind,
            "malformed"
        );
        let lethal = base.replacen(
            r#""cmd":"plan""#,
            r#""cmd":"replan","fault":{"kind":"gpu_loss","count":4}"#,
            1,
        );
        let err = parse_request(&lethal).unwrap_err();
        assert_eq!(err.kind, "invalid");
        assert!(err.message.contains("no survivor"), "{}", err.message);
    }

    #[test]
    fn health_command_parses() {
        assert!(matches!(
            parse_request(r#"{"cmd":"health"}"#),
            Ok(Request::Health)
        ));
    }

    #[test]
    fn replan_response_carries_fault_and_deltas() {
        let platform = Platform::new(3, 1 << 30, 12e9).unwrap();
        let baseline = Value::Object(vec![
            ("period".into(), Value::Float(0.01)),
            ("throughput".into(), Value::Float(100.0)),
        ]);
        let degraded = Value::Object(vec![
            ("period".into(), Value::Float(0.02)),
            ("throughput".into(), Value::Float(50.0)),
        ]);
        let line = replan_response(
            &PlatformFault::GpuLoss { count: 1 },
            &platform,
            &baseline,
            true,
            &degraded,
            false,
        );
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
        assert_eq!(v.field("cached").unwrap(), &Value::Bool(false));
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
        assert_eq!(replan.field("period_ratio").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(
            replan.field("throughput_delta").unwrap().as_f64().unwrap(),
            -0.5
        );
        assert_eq!(
            replan.field("baseline").unwrap().field("cached").unwrap(),
            &Value::Bool(true)
        );
    }

    #[test]
    fn gossip_round_trips_and_enforces_caps() {
        let plan = std::sync::Arc::new(Value::Object(vec![(
            "period".into(),
            Value::Float(0.012345678901234567),
        )]));
        let entries = vec![("canonical-a".to_string(), std::sync::Arc::clone(&plan))];
        let line = gossip_line(&entries);
        assert!(!line.contains('\n'));
        let Ok(Request::Gossip(parsed)) = parse_request(&line) else {
            panic!("gossip line must parse: {line}");
        };
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].key, "canonical-a");
        // The plan survives the round trip f64-bit-exactly.
        assert_eq!(
            parsed[0].plan.field("period").unwrap().as_f64().unwrap(),
            0.012345678901234567
        );

        // Ack shape.
        let ack = Value::parse(&gossip_response(3, 1)).unwrap();
        assert_eq!(
            ack.field("gossip").unwrap().field("applied").unwrap(),
            &Value::UInt(3)
        );

        // Structural garbage is `malformed`, never a panic.
        for bad in [
            r#"{"cmd":"gossip"}"#,
            r#"{"cmd":"gossip","entries":7}"#,
            r#"{"cmd":"gossip","entries":[{"plan":{}}]}"#,
            r#"{"cmd":"gossip","entries":[{"key":"","plan":{}}]}"#,
            r#"{"cmd":"gossip","entries":[{"key":"k","plan":4}]}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().kind, "malformed", "{bad}");
        }

        // Over-cap requests are rejected whole; the sender-side builder
        // truncates so its lines always stay under the cap.
        let many: Vec<(String, std::sync::Arc<Value>)> = (0..MAX_GOSSIP_ENTRIES + 9)
            .map(|i| (format!("k{i}"), std::sync::Arc::clone(&plan)))
            .collect();
        let Ok(Request::Gossip(truncated)) = parse_request(&gossip_line(&many)) else {
            panic!("builder output must parse");
        };
        assert_eq!(truncated.len(), MAX_GOSSIP_ENTRIES);
        let over = format!(
            r#"{{"cmd":"gossip","entries":[{}]}}"#,
            (0..MAX_GOSSIP_ENTRIES + 1)
                .map(|i| format!(r#"{{"key":"k{i}","plan":{{}}}}"#))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(parse_request(&over).unwrap_err().kind, "malformed");
    }

    #[test]
    fn rejects_garbage_with_kinds() {
        assert_eq!(parse_request("not json").unwrap_err().kind, "malformed");
        assert_eq!(parse_request(r#"{"x":1}"#).unwrap_err().kind, "malformed");
        assert_eq!(
            parse_request(r#"{"cmd":"frobnicate"}"#).unwrap_err().kind,
            "malformed"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"plan"}"#).unwrap_err().kind,
            "malformed"
        );
        // ∞ can enter through JSON (`1e999` overflows to inf); it must be
        // rejected as `invalid`, naming the offending field.
        let line = plan_line(r#"{"n_gpus":2,"memory_bytes":1,"bandwidth_bytes":1e999}"#);
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.kind, "invalid");
        assert!(err.message.contains("bandwidth"), "{}", err.message);
    }

    #[test]
    fn unit_and_key_order_normalize_into_one_canonical_key() {
        let gib = super::GIB;
        let a = plan_line(r#"{"n_gpus":2,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        let b = plan_line(&format!(
            r#"{{"bandwidth_bytes":{},"memory_gb":1.0,"n_gpus":2}}"#,
            12.0 * gib
        ));
        let (Ok(Request::Plan(pa)), Ok(Request::Plan(pb))) = (parse_request(&a), parse_request(&b))
        else {
            panic!("both must parse");
        };
        assert_eq!(pa.canonical, pb.canonical);
        // The canonical form is itself valid, key-sorted JSON.
        let v = Value::parse(&pa.canonical).unwrap();
        let Value::Object(fields) = &v else {
            panic!("canonical must be an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["chain", "config", "platform"]);
    }

    #[test]
    fn config_changes_the_canonical_key() {
        let base = plan_line(r#"{"n_gpus":2,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        let with_cfg = base.replacen(
            r#","platform""#,
            r#","config":{"refine_probes":2},"platform""#,
            1,
        );
        let (Ok(Request::Plan(pa)), Ok(Request::Plan(pb))) =
            (parse_request(&base), parse_request(&with_cfg))
        else {
            panic!("both must parse");
        };
        assert_ne!(pa.canonical, pb.canonical);
    }

    #[test]
    fn trace_context_parses_injects_and_echoes() {
        // No trace field → no context, same request.
        let (req, ctx) = parse_line(r#"{"cmd":"ping"}"#).unwrap();
        assert!(matches!(req, Request::Ping));
        assert_eq!(ctx, None);

        // A valid trace id, with and without a parent.
        let (_, ctx) = parse_line(r#"{"cmd":"ping","trace":"00000000000000ab"}"#).unwrap();
        assert_eq!(
            ctx,
            Some(TraceContext {
                trace: 0xab,
                parent: 0
            })
        );
        let (_, ctx) =
            parse_line(r#"{"cmd":"ping","trace":"ab","parent":"000000000000cdef"}"#).unwrap();
        assert_eq!(
            ctx,
            Some(TraceContext {
                trace: 0xab,
                parent: 0xcdef
            })
        );

        // Malformed context is advisory garbage, never an error.
        for bad in [
            r#"{"cmd":"ping","trace":"nothex"}"#,
            r#"{"cmd":"ping","trace":7}"#,
            r#"{"cmd":"ping","trace":"0000000000000000"}"#,
        ] {
            let (req, ctx) = parse_line(bad).unwrap();
            assert!(matches!(req, Request::Ping), "{bad}");
            assert_eq!(ctx, None, "{bad}");
        }

        // Injection replaces inbound context and round-trips.
        let forwarded =
            inject_context(r#"{"cmd":"ping","trace":"ab","parent":"01"}"#, 0xab, 0x99).unwrap();
        assert!(!forwarded.contains('\n'));
        let (_, ctx) = parse_line(&forwarded).unwrap();
        assert_eq!(
            ctx,
            Some(TraceContext {
                trace: 0xab,
                parent: 0x99
            })
        );
        assert!(inject_context("not json", 1, 2).is_none());

        // Response echo splices before the closing brace and parses.
        let mut resp = ok_response("pong", Value::Bool(true));
        attach_trace(&mut resp, 0xab, 0x42);
        let v = Value::parse(&resp).unwrap();
        assert_eq!(v.field("trace").unwrap().as_str(), Ok("00000000000000ab"));
        assert_eq!(v.field("span").unwrap().as_str(), Ok("0000000000000042"));
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(true));
        // Degenerate non-object strings are left alone.
        let mut odd = "{}".to_string();
        attach_trace(&mut odd, 1, 2);
        assert_eq!(odd, "{}");
    }

    #[test]
    fn responses_are_single_lines() {
        let err = ServeError::invalid("chain: layer 0: forward_time must be finite, got NaN");
        let line = error_response(&err);
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.field("ok").unwrap(), &Value::Bool(false));
        assert_eq!(
            v.field("error").unwrap().field("kind").unwrap().as_str(),
            Ok("invalid")
        );
    }
}
