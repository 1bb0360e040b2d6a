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
//! * `{"cmd":"shutdown"}` — ask the server to drain and exit.
//!
//! Responses are `{"ok":true,…}` or
//! `{"ok":false,"error":{"kind":…,"message":…}}`. A bad request never
//! kills the connection, let alone the server. No command stores a
//! client-supplied plan: a cached plan is always one the daemon computed
//! itself (or replayed from its own journal).
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

use std::fmt::Write as _;

use madpipe_core::{MadPipePlan, PlannerConfig};
use madpipe_json::{write_f64, write_str, FromJson, ToJson, Value};
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
    Metrics,
    Health,
    Ping,
    Shutdown,
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

/// The canonical form of a planning instance, and its cache key: the
/// *typed* chain, platform and config (units already normalized to bytes,
/// derived state dropped) rendered compact, with every object's keys in
/// byte order. Two requests meaning the same instance — whatever key
/// order or units they used on the wire — produce byte-identical
/// canonical strings.
///
/// The plan journal and the router ring depend on these bytes. They are
/// written field by field with `madpipe_json`'s number and string
/// writers, and equal the compact rendering of the key-sorted tree
/// `{chain: chain.to_json(), config, platform}` (the tests pin both).
pub fn canonical_instance(chain: &Chain, platform: &Platform, cfg: &PlannerConfig) -> String {
    let mut out = String::with_capacity(256 + 192 * chain.layers().len());
    let _ = write!(
        out,
        r#"{{"chain":{{"input_bytes":{},"layers":["#,
        chain.input_bytes()
    );
    for (i, l) in chain.layers().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"activation_bytes":{},"backward_time":"#,
            l.activation_bytes
        );
        write_f64(&mut out, l.backward_time);
        out.push_str(r#","forward_time":"#);
        write_f64(&mut out, l.forward_time);
        let _ = write!(
            out,
            r#","internal_stored_bytes":{},"name":"#,
            l.internal_stored_bytes
        );
        write_str(&mut out, &l.name);
        let _ = write!(out, r#","weight_bytes":{}}}"#, l.weight_bytes);
    }
    out.push_str(r#"],"name":"#);
    write_str(&mut out, chain.name());
    let _ = write!(
        out,
        r#"}},"config":{{"iterations":{},"recompute":"#,
        cfg.algorithm1.iterations
    );
    write_str(&mut out, cfg.policy.recompute.as_str());
    let _ = write!(
        out,
        r#","refine_probes":{},"threads":{},"weights":"#,
        cfg.refine_probes, cfg.threads
    );
    write_str(&mut out, cfg.policy.weights.as_str());
    out.push_str(r#"},"platform":{"bandwidth_bytes":"#);
    write_f64(&mut out, platform.bandwidth);
    let _ = write!(
        out,
        r#","memory_bytes":{},"n_gpus":{}}}}}"#,
        platform.memory_bytes, platform.n_gpus
    );
    out
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
    let mut out = plan_envelope(plan, cached);
    out.push('}');
    out
}

/// `{"ok":true,"cached":…,"plan":…` — a plan response without its closing
/// brace, the plan rendered straight into the response buffer.
fn plan_envelope(plan: &Value, cached: bool) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(if cached {
        r#"{"ok":true,"cached":true,"plan":"#
    } else {
        r#"{"ok":true,"cached":false,"plan":"#
    });
    plan.write_compact(&mut out);
    out
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
    let mut out = plan_envelope(degraded, degraded_cached);
    out.push_str(r#","replan":"#);
    replan.write_compact(&mut out);
    out.push('}');
    out
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

    /// Recursively sort every object's keys. Arrays keep their order
    /// (layer order is meaningful).
    fn sort_keys(v: Value) -> Value {
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

    /// The oracle for `canonical_instance`: the instance as a `Value`
    /// tree (the chain through its own `to_json`), keys sorted, rendered
    /// compact. A field added to `Layer::to_json` or `Chain::to_json`
    /// shows up here and not in the direct renderer.
    fn canonical_by_tree(chain: &Chain, platform: &Platform, cfg: &PlannerConfig) -> String {
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

    fn plan_of(line: &str) -> Box<PlanRequest> {
        match parse_request(line) {
            Ok(Request::Plan(p)) => p,
            other => panic!("{line} must parse as a plan: {other:?}"),
        }
    }

    #[test]
    fn canonical_keys_match_the_golden_bytes() {
        // Escapes and non-ASCII names; an integral-float bandwidth.
        let escaped = plan_of(
            r#"{"cmd":"plan","chain":{"name":"res\"net\\50\n\r\t\u001f → é","input_bytes":4096,"layers":[{"name":"conv\"1\\a","forward_time":0.00125,"backward_time":0.0025,"weight_bytes":1000,"activation_bytes":2000},{"name":"層-λ 🚀","forward_time":3,"backward_time":4.5,"weight_bytes":0,"activation_bytes":18446744073709551615,"internal_stored_bytes":77}]},"platform":{"n_gpus":2,"memory_gb":1.5,"bandwidth_gb":12}}"#,
        );
        assert_eq!(
            escaped.canonical,
            r#"{"chain":{"input_bytes":4096,"layers":[{"activation_bytes":2000,"backward_time":0.0025,"forward_time":0.00125,"internal_stored_bytes":0,"name":"conv\"1\\a","weight_bytes":1000},{"activation_bytes":18446744073709551615,"backward_time":4.5,"forward_time":3.0,"internal_stored_bytes":77,"name":"層-λ 🚀","weight_bytes":0}],"name":"res\"net\\50\n\r\t\u001f → é"},"config":{"iterations":10,"recompute":"never","refine_probes":8,"threads":1,"weights":"3w"},"platform":{"bandwidth_bytes":12884901888.0,"memory_bytes":1610612736,"n_gpus":2}}"#
        );

        // Extreme magnitudes: Rust's `Display` writes 1e-300, the smallest
        // subnormal and f64::MAX as plain decimals, never in exponent form.
        let extreme = plan_of(
            r#"{"cmd":"plan","chain":{"name":"tiny","input_bytes":0,"layers":[{"name":"eps","forward_time":1e-300,"backward_time":5e-324,"weight_bytes":0,"activation_bytes":1},{"name":"big","forward_time":1.7976931348623157e308,"backward_time":0.1,"weight_bytes":18446744073709551615,"activation_bytes":3}]},"platform":{"n_gpus":8,"memory_bytes":18446744073709551615,"bandwidth_bytes":1.2345e9}}"#,
        );
        assert_eq!(
            extreme.canonical,
            format!(
                concat!(
                    r#"{{"chain":{{"input_bytes":0,"layers":[{{"activation_bytes":1,"backward_time":{subnormal},"#,
                    r#""forward_time":{tiny},"internal_stored_bytes":0,"name":"eps","weight_bytes":0}},"#,
                    r#"{{"activation_bytes":3,"backward_time":0.1,"forward_time":{max},"internal_stored_bytes":0,"#,
                    r#""name":"big","weight_bytes":18446744073709551615}}],"name":"tiny"}},"#,
                    r#""config":{{"iterations":10,"recompute":"never","refine_probes":8,"threads":1,"weights":"3w"}},"#,
                    r#""platform":{{"bandwidth_bytes":1234500000.0,"memory_bytes":18446744073709551615,"n_gpus":8}}}}"#,
                ),
                tiny = format!("0.{}1", "0".repeat(299)),
                subnormal = format!("0.{}5", "0".repeat(323)),
                max = format!("17976931348623157{}.0", "0".repeat(292)),
            )
        );

        // A non-default config, every object's keys sent out of order.
        let configured = plan_of(
            r#"{"platform":{"bandwidth_gb":24.5,"memory_gb":3,"n_gpus":4},"config":{"recompute":"auto","weights":"2bw","threads":4,"refine_probes":2,"iterations":9},"chain":{"layers":[{"activation_bytes":4,"weight_bytes":5,"backward_time":0.3,"forward_time":0.2,"name":"a"},{"internal_stored_bytes":12,"activation_bytes":6,"weight_bytes":7,"backward_time":1e21,"forward_time":123456.789e10,"name":"b"}],"input_bytes":10,"name":"cfg"},"cmd":"plan"}"#,
        );
        assert_eq!(
            configured.canonical,
            r#"{"chain":{"input_bytes":10,"layers":[{"activation_bytes":4,"backward_time":0.3,"forward_time":0.2,"internal_stored_bytes":0,"name":"a","weight_bytes":5},{"activation_bytes":6,"backward_time":1000000000000000000000.0,"forward_time":1234567890000000.0,"internal_stored_bytes":12,"name":"b","weight_bytes":7}],"name":"cfg"},"config":{"iterations":9,"recompute":"auto","refine_probes":2,"threads":4,"weights":"2bw"},"platform":{"bandwidth_bytes":26306674688.0,"memory_bytes":3221225472,"n_gpus":4}}"#
        );

        for p in [&escaped, &extreme, &configured] {
            assert_eq!(
                p.canonical,
                canonical_by_tree(&p.chain, &p.platform, &p.cfg)
            );
        }
    }

    #[test]
    fn names_differing_only_in_an_escaped_astral_character_get_distinct_keys() {
        // U+1F600 and U+1F601 as escaped surrogate pairs; both used to
        // decode to the same two U+FFFD and share one cache key.
        let line = |name: &str| {
            plan_line(r#"{"n_gpus":2,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#).replacen(
                r#""name":"t""#,
                &format!(r#""name":"{name}""#),
                1,
            )
        };
        let grin = plan_of(&line(r"smile\ud83d\ude00"));
        let wink = plan_of(&line(r"smile\ud83d\ude01"));
        assert_eq!(grin.chain.name(), "smile\u{1f600}");
        assert_eq!(wink.chain.name(), "smile\u{1f601}");
        assert_ne!(grin.canonical, wink.canonical);
        // The key carries the character itself, and equals the key of a
        // request that sent it unescaped.
        assert!(
            grin.canonical.contains("\"name\":\"smile\u{1f600}\""),
            "{}",
            grin.canonical
        );
        assert_eq!(grin.canonical, plan_of(&line("smile\u{1f600}")).canonical);
    }

    mod differential {
        use super::*;
        use madpipe_model::{Layer, RecomputeMode, WeightPolicy};
        use proptest::prelude::*;

        /// Name fragments: plain text, every escape the writer knows and
        /// non-ASCII characters.
        const PIECES: [&str; 12] = [
            "conv", "_", " ", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "🚀",
        ];

        fn name() -> impl Strategy<Value = String> {
            prop::collection::vec(0..PIECES.len(), 0..8)
                .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
        }

        /// Finite non-negative timings across the whole f64 range:
        /// integral values, round decimals from 1e-300 to 1e300, and
        /// arbitrary bit patterns (subnormals included).
        fn time() -> impl Strategy<Value = f64> {
            (0u32..4, any::<u64>(), 0u32..600).prop_map(|(shape, bits, exp)| match shape {
                0 => (bits % 4096) as f64,
                1 => (bits % 1000) as f64 * 10f64.powi(exp as i32 - 300),
                // Sign bit and top exponent bit clear: finite, >= 0.
                2 => f64::from_bits(bits >> 2),
                _ => [0.0, -0.0, 1e-300, 5e-324, f64::MAX][(bits % 5) as usize],
            })
        }

        /// Byte counts the chain sums into its prefixes: at most 2^57, so
        /// 128 of them never overflow.
        fn summed_bytes() -> impl Strategy<Value = u64> {
            (any::<u64>(), 7u32..64).prop_map(|(x, shift)| x >> shift)
        }

        fn layer() -> impl Strategy<Value = Layer> {
            (
                name(),
                (time(), time()),
                (summed_bytes(), summed_bytes(), summed_bytes()),
            )
                .prop_map(|(name, (f, b), (w, a, internal))| {
                    Layer::new(name, f, b, w, a).with_internal_stored(internal)
                })
        }

        fn chain() -> impl Strategy<Value = Chain> {
            (
                name(),
                summed_bytes(),
                prop::collection::vec(layer(), 1..=64),
                any::<u64>(),
                prop::bool::ANY,
            )
                .prop_map(|(name, input, mut layers, last, max)| {
                    // The last layer's output is never summed: any u64.
                    let out = &mut layers.last_mut().expect("1..=64 layers").activation_bytes;
                    *out = if max { u64::MAX } else { last };
                    Chain::new(name, input, layers).expect("finite, non-negative timings")
                })
        }

        fn platform() -> impl Strategy<Value = Platform> {
            (1usize..=64, any::<u64>(), time()).prop_map(|(n, memory, bandwidth)| {
                let bandwidth = if bandwidth > 0.0 { bandwidth } else { 1.0 };
                Platform::new(n, memory.max(1), bandwidth).expect("valid platform")
            })
        }

        fn config() -> impl Strategy<Value = PlannerConfig> {
            (
                1usize..=64,
                0usize..=16,
                1usize..=64,
                0usize..3,
                prop::bool::ANY,
            )
                .prop_map(|(iterations, refine_probes, threads, recompute, two_bw)| {
                    let mut cfg = PlannerConfig::default();
                    cfg.algorithm1.iterations = iterations;
                    cfg.refine_probes = refine_probes;
                    cfg.threads = threads;
                    cfg.policy.recompute = [
                        RecomputeMode::Never,
                        RecomputeMode::Always,
                        RecomputeMode::Auto,
                    ][recompute];
                    if two_bw {
                        cfg.policy.weights = WeightPolicy::TwoBw;
                    }
                    cfg
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn direct_rendering_equals_the_sorted_tree(
                chain in chain(),
                platform in platform(),
                cfg in config(),
            ) {
                prop_assert_eq!(
                    canonical_instance(&chain, &platform, &cfg),
                    canonical_by_tree(&chain, &platform, &cfg)
                );
            }
        }
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

    #[test]
    fn plan_and_replan_responses_render_the_envelope_tree() {
        let plan = Value::Object(vec![
            ("period".into(), Value::Float(0.25)),
            ("throughput".into(), Value::Float(4.0)),
            (
                "stages".into(),
                Value::Array(vec![Value::Str("s\"0".into())]),
            ),
        ]);
        let envelope = |cached: bool| {
            vec![
                ("ok".to_string(), Value::Bool(true)),
                ("cached".to_string(), Value::Bool(cached)),
                ("plan".to_string(), plan.clone()),
            ]
        };
        let platform = Platform::new(3, 1 << 30, 12e9).unwrap();
        let fault = PlatformFault::GpuLoss { count: 1 };
        for cached in [false, true] {
            assert_eq!(
                plan_response(&plan, cached),
                Value::Object(envelope(cached)).to_string_compact()
            );
            let replan = replan_response(&fault, &platform, &plan, !cached, &plan, cached);
            let Value::Object(mut fields) = Value::parse(&replan).unwrap() else {
                panic!("{replan}")
            };
            let tail = fields.pop().expect("a replan field");
            assert_eq!(tail.0, "replan");
            assert_eq!(fields, envelope(cached));
            let mut tree = envelope(cached);
            tree.push(tail);
            assert_eq!(replan, Value::Object(tree).to_string_compact());
        }
    }
}
