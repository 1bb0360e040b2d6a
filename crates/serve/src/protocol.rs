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
//!
//! # Decoding a request line
//!
//! [`parse_line`] reads a line once, with [`madpipe_json::Reader`], member
//! by member: the chain goes straight into its `Layer`s and `Chain::new`
//! ([`Chain::read_json`]), `platform` and `config` into a few scalar
//! slots, and no JSON tree of the line is built. It answers exactly what
//! looking every field up in a [`Value`] tree of the line answers:
//!
//! * a JSON syntax error anywhere in the line wins over any fault in a
//!   field, so such faults are held until the line has parsed whole;
//! * of several faults the one reported is the first in the order `cmd`,
//!   `chain`, `platform`, `config`, `fault` (within a chain: `name`,
//!   `input_bytes`, `layers`, then the first faulty layer's first faulty
//!   field in `Layer::to_json` order);
//! * the first of a repeated key counts, and a value that is not an
//!   object where one is expected misses every field (`missing field`),
//!   as with [`Value::get`];
//! * numbers keep [`Value::as_u64`]'s and [`Value::as_f64`]'s coercions and
//!   messages (an integral float is still a byte count).
//!
//! The tree decoder itself lives on in this module's tests as the oracle
//! a differential compares `parse_line` with, line by line, on random
//! and mutated request lines.

use std::borrow::Cow;
use std::fmt::Write as _;

use madpipe_core::{MadPipePlan, PlannerConfig};
use madpipe_json::{required, write_f64, write_str, FromJson, JsonError, Reader, ToJson, Value};
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
/// it never fails a request).
///
/// The line is read once, member by member, straight into the typed
/// request (see the module docs, "Decoding a request line"): a JSON
/// syntax error anywhere in the line wins over any fault in its fields,
/// and of several faults the one reported is the first in the order
/// `cmd`, `chain`, `platform`, `config`, `fault`.
pub fn parse_line(line: &str) -> Result<(Request, Option<TraceContext>), ServeError> {
    let mut r = Reader::new(line);
    let mut members = Members::default();
    r.object(|r, key| members.read(r, &key))
        .and_then(|_| r.finish())
        .map_err(|e| ServeError::malformed(format!("bad JSON: {e}")))?;
    let ctx = match members.trace.unwrap_or(0) {
        0 => None,
        trace => Some(TraceContext {
            trace,
            parent: members.parent.unwrap_or(0),
        }),
    };
    Ok((members.request()?, ctx))
}

/// Parse one request line. Returns a structured error instead of
/// panicking on anything a client could possibly send.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    parse_line(line).map(|(req, _)| req)
}

/// The members of a request line a request is built from, each the first
/// of its key as [`Value::get`] finds it. Faults in their values are held
/// here until the whole line has parsed.
#[derive(Default)]
struct Members<'a> {
    /// `Err` holds a value that is not a string.
    cmd: Option<Result<Cow<'a, str>, Value>>,
    chain: Option<Result<Chain, JsonError>>,
    platform: Option<[Option<Value>; 5]>,
    config: Option<[Option<Value>; 5]>,
    fault: Option<Value>,
    trace: Option<u64>,
    parent: Option<u64>,
}

/// The `platform` fields [`platform_of`] reads, in its argument order.
const PLATFORM_KEYS: [&str; 5] = [
    "n_gpus",
    "memory_bytes",
    "memory_gb",
    "bandwidth_bytes",
    "bandwidth_gb",
];

/// The `config` fields [`config_of`] reads, in its argument order.
const CONFIG_KEYS: [&str; 5] = [
    "refine_probes",
    "threads",
    "iterations",
    "recompute",
    "weights",
];

impl<'a> Members<'a> {
    /// Read the value of the member `key`.
    fn read(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), JsonError> {
        match key {
            "cmd" if self.cmd.is_none() => self.cmd = Some(r.str_or_value()?),
            "chain" if self.chain.is_none() => self.chain = Some(Chain::read_json(r)?),
            "platform" if self.platform.is_none() => self.platform = Some(r.fields(PLATFORM_KEYS)?),
            "config" if self.config.is_none() => self.config = Some(r.fields(CONFIG_KEYS)?),
            "fault" if self.fault.is_none() => self.fault = Some(r.value()?),
            "trace" if self.trace.is_none() => self.trace = Some(hex_id(r)?),
            "parent" if self.parent.is_none() => self.parent = Some(hex_id(r)?),
            _ => drop(r.value()?),
        }
        Ok(())
    }

    fn request(mut self) -> Result<Request, ServeError> {
        let cmd = match self.cmd.take() {
            None => return Err(ServeError::malformed("missing field `cmd`")),
            Some(Err(_)) => return Err(ServeError::malformed("`cmd` must be a string")),
            Some(Ok(cmd)) => cmd,
        };
        match &*cmd {
            "plan" => Ok(Request::Plan(Box::new(self.plan()?))),
            "replan" => Ok(Request::Replan(Box::new(self.replan()?))),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::malformed(format!("unknown cmd `{other}`"))),
        }
    }

    fn plan(&mut self) -> Result<PlanRequest, ServeError> {
        // `Chain::read_json` runs `Chain::new`, which rejects NaN, infinite
        // and negative layer timings with a message naming the layer.
        let chain = self
            .chain
            .take()
            .ok_or_else(|| ServeError::malformed("plan request needs `chain`"))?
            .map_err(|e| ServeError::invalid(format!("chain: {e}")))?;
        let platform = self
            .platform
            .take()
            .ok_or_else(|| ServeError::malformed("plan request needs `platform`"))?;
        let platform = platform_of(platform)?;
        let cfg = config_of(self.config.take().unwrap_or_default())?;
        let canonical = canonical_instance(&chain, &platform, &cfg);
        Ok(PlanRequest {
            chain,
            platform,
            cfg,
            canonical,
        })
    }

    fn replan(mut self) -> Result<ReplanRequest, ServeError> {
        let baseline = self.plan()?;
        let fault_v = self
            .fault
            .ok_or_else(|| ServeError::malformed("replan request needs `fault`"))?;
        let fault = PlatformFault::from_json(&fault_v)
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
}

/// A trace-context id as `madpipe_obs::parse_hex_id` reads it; 0 for
/// anything else, a value that is not a string included.
fn hex_id(r: &mut Reader<'_>) -> Result<u64, JsonError> {
    let text = r.str_or_value()?;
    Ok(text
        .ok()
        .and_then(|t| madpipe_obs::parse_hex_id(&t))
        .unwrap_or(0))
}

/// Bytes in one GiB, for the `*_gb` convenience units.
const GIB: f64 = (1u64 << 30) as f64;

/// The most refinement probes a request may ask for: each one is a DP
/// solve, so an unbounded count could hold a worker for seconds.
const MAX_REFINE_PROBES: u64 = 64;

/// Platform from its [`PLATFORM_KEYS`] fields, accepting byte or GiB
/// units and normalizing to bytes. `Platform::new` then enforces
/// positivity and finiteness.
fn platform_of(
    [n_gpus, memory_bytes, memory_gb, bandwidth_bytes, bandwidth_gb]: [Option<Value>; 5],
) -> Result<Platform, ServeError> {
    let n_gpus = required(n_gpus, "n_gpus")
        .and_then(|n| n.as_u64())
        .map_err(|e| ServeError::invalid(format!("platform: {e}")))? as usize;
    let memory_bytes = match (memory_bytes, memory_gb) {
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
    let bandwidth = match (bandwidth_bytes, bandwidth_gb) {
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

/// Planner config from the [`CONFIG_KEYS`] fields of the optional
/// `config` object (all absent when there is none, or it is not an
/// object). Only the stable knobs are exposed; everything else keeps the
/// `madpipe plan` defaults so cached plans are bit-identical to the
/// CLI's.
fn config_of(
    [refine_probes, threads, iterations, recompute, weights]: [Option<Value>; 5],
) -> Result<PlannerConfig, ServeError> {
    let mut cfg = PlannerConfig::default();
    if let Some(r) = refine_probes {
        cfg.refine_probes = r
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config refine_probes: {e}")))?
            .min(MAX_REFINE_PROBES) as usize;
    }
    if let Some(t) = threads {
        cfg.threads = t
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config threads: {e}")))?
            .clamp(1, 64) as usize;
    }
    if let Some(i) = iterations {
        cfg.algorithm1.iterations = i
            .as_u64()
            .map_err(|e| ServeError::invalid(format!("config iterations: {e}")))?
            .clamp(1, 64) as usize;
    }
    if let Some(r) = recompute {
        let s = r
            .as_str()
            .map_err(|e| ServeError::invalid(format!("config recompute: {e}")))?;
        cfg.policy.recompute = madpipe_model::RecomputeMode::parse(s)
            .map_err(|e| ServeError::invalid(format!("config recompute: {e}")))?;
    }
    if let Some(w) = weights {
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
    let mut out = String::with_capacity(512);
    plan_envelope(&mut out, cached, |out| plan.write_compact(out));
    out.push('}');
    out
}

/// Append [`plan_response`]'s line for a plan already rendered to its
/// compact JSON `plan` — how the daemon answers from its cache.
pub fn write_plan_response(out: &mut String, plan: &str, cached: bool) {
    plan_envelope(out, cached, |out| out.push_str(plan));
    out.push('}');
}

/// Append `{"ok":true,"cached":…,"plan":…` — a plan response without its
/// closing brace, `plan` writing the plan's JSON straight after it. Every
/// plan and replan response is written through here.
fn plan_envelope(out: &mut String, cached: bool, plan: impl FnOnce(&mut String)) {
    out.push_str(if cached {
        r#"{"ok":true,"cached":true,"plan":"#
    } else {
        r#"{"ok":true,"cached":false,"plan":"#
    });
    plan(out);
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
    let mut out = String::with_capacity(1024);
    plan_envelope(&mut out, degraded_cached, |out| degraded.write_compact(out));
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

    /// The tree-walking request decoder `parse_line` replaced: parse the
    /// line into a `Value`, then look every field up in the tree. It is
    /// the reference the decoder differential compares `parse_line` with.
    mod oracle {
        use super::*;
        use madpipe_model::Layer;

        pub fn parse_line(line: &str) -> Result<(Request, Option<TraceContext>), ServeError> {
            let v =
                Value::parse(line).map_err(|e| ServeError::malformed(format!("bad JSON: {e}")))?;
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
            let chain =
                chain_by_tree(chain_v).map_err(|e| ServeError::invalid(format!("chain: {e}")))?;
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

        /// The chain as `FromJson` read it from a tree.
        pub fn chain_by_tree(v: &Value) -> Result<Chain, JsonError> {
            let name = String::from_json(v.field("name")?)?;
            let input_bytes = v.field("input_bytes")?.as_u64()?;
            let layers = v
                .field("layers")?
                .as_array()?
                .iter()
                .map(layer_by_tree)
                .collect::<Result<Vec<_>, _>>()?;
            Chain::new(name, input_bytes, layers)
                .map_err(|e| JsonError::new(format!("invalid chain: {e}")))
        }

        fn layer_by_tree(v: &Value) -> Result<Layer, JsonError> {
            Ok(Layer {
                name: String::from_json(v.field("name")?)?,
                forward_time: v.field("forward_time")?.as_f64()?,
                backward_time: v.field("backward_time")?.as_f64()?,
                weight_bytes: v.field("weight_bytes")?.as_u64()?,
                activation_bytes: v.field("activation_bytes")?.as_u64()?,
                internal_stored_bytes: match v.get("internal_stored_bytes") {
                    Some(b) => b.as_u64()?,
                    None => 0,
                },
            })
        }

        fn platform_from_json(v: &Value) -> Result<Platform, ServeError> {
            let n_gpus = v
                .field("n_gpus")
                .and_then(Value::as_u64)
                .map_err(|e| ServeError::invalid(format!("platform: {e}")))?
                as usize;
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
                    .min(64) as usize;
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

    /// `parse_line` against the tree oracle on random request lines: the
    /// same request (chain, platform, config, fault, trace context and
    /// key bytes) or the same error kind and message, line by line.
    mod decoder_differential {
        use super::*;
        use proptest::prelude::*;

        /// splitmix64: a line is a pure function of its seed.
        struct Mix(u64);

        impl Mix {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }

            fn one_in(&mut self, n: usize) -> bool {
                self.below(n) == 0
            }

            fn pick<T: Clone>(&mut self, items: &[T]) -> T {
                items[self.below(items.len())].clone()
            }

            /// A name mixing plain text, every escape the writer knows,
            /// non-ASCII text and the characters `escape_text` rewrites.
            fn name(&mut self) -> String {
                const PIECES: [&str; 14] = [
                    "conv", "_", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "🚀", "😀", "/", "§",
                    "層",
                ];
                (0..self.below(6)).map(|_| self.pick(&PIECES)).collect()
            }

            /// A number written as `text` verbatim (see `NUM`).
            fn num(&mut self, text: &str) -> Value {
                Value::Str(format!("{NUM}{text}{NUM}"))
            }

            fn time(&mut self) -> Value {
                match self.below(4) {
                    0 => Value::UInt(self.below(5) as u64),
                    1 => Value::Float(self.below(10_000) as f64 * 1e-6),
                    2 => Value::Float(f64::from_bits(self.next() >> 2)),
                    _ => {
                        let text = self.pick(&["1e-3", "2.5E-4", "0", "-0", "-0.0", "3.0", "1e2"]);
                        self.num(text)
                    }
                }
            }

            fn bytes(&mut self) -> Value {
                match self.below(4) {
                    0 => Value::UInt(self.next() >> self.below(64)),
                    1 => Value::UInt(self.below(1 << 20) as u64),
                    2 => Value::Float(self.below(1 << 20) as f64),
                    _ => Value::UInt(self.below(4) as u64),
                }
            }

            fn layer(&mut self) -> Value {
                let mut fields = vec![
                    ("name".into(), Value::Str(self.name())),
                    ("forward_time".into(), self.time()),
                    ("backward_time".into(), self.time()),
                    ("weight_bytes".into(), self.bytes()),
                    ("activation_bytes".into(), self.bytes()),
                ];
                if self.one_in(3) {
                    fields.push(("internal_stored_bytes".into(), self.bytes()));
                }
                Value::Object(fields)
            }

            fn platform(&mut self) -> Value {
                let n_gpus = Value::UInt(1 + self.below(8) as u64);
                let memory = if self.one_in(2) {
                    ("memory_bytes".into(), Value::UInt(1 + (self.next() >> 30)))
                } else {
                    let gb = self.pick(&[1.5, 3.0, 16.0, 0.25]);
                    ("memory_gb".into(), Value::Float(gb))
                };
                let bandwidth = if self.one_in(2) {
                    ("bandwidth_bytes".into(), Value::Float(12e9))
                } else {
                    (
                        "bandwidth_gb".into(),
                        Value::UInt(1 + self.below(24) as u64),
                    )
                };
                Value::Object(vec![("n_gpus".into(), n_gpus), memory, bandwidth])
            }

            fn config(&mut self) -> Value {
                let mut fields = Vec::new();
                if self.one_in(2) {
                    let probes = self.pick(&[0, 2, 8, 64, 65, 1_000_000]);
                    fields.push(("refine_probes".into(), Value::UInt(probes)));
                }
                if self.one_in(2) {
                    fields.push(("threads".into(), Value::UInt(self.below(100) as u64)));
                }
                if self.one_in(2) {
                    fields.push(("iterations".into(), Value::UInt(self.below(100) as u64)));
                }
                if self.one_in(2) {
                    let mode = self.pick(&["never", "always", "auto", "sometimes"]);
                    fields.push(("recompute".into(), Value::Str(mode.into())));
                }
                if self.one_in(2) {
                    let weights = self.pick(&["3w", "2bw", "1w"]);
                    fields.push(("weights".into(), Value::Str(weights.into())));
                }
                Value::Object(fields)
            }

            fn fault(&mut self) -> Value {
                match self.below(3) {
                    0 => Value::Object(vec![
                        ("kind".into(), Value::Str("gpu_loss".into())),
                        ("count".into(), Value::UInt(self.below(4) as u64)),
                    ]),
                    1 => Value::Object(vec![
                        ("kind".into(), Value::Str("memory_reduction".into())),
                        ("fraction".into(), Value::Float(self.pick(&[0.5, 0.0, 1.5]))),
                    ]),
                    _ => Value::Object(vec![
                        ("kind".into(), Value::Str("link_slowdown".into())),
                        ("fraction".into(), Value::Float(0.25)),
                    ]),
                }
            }

            fn hex_id(&mut self) -> Value {
                match self.below(4) {
                    0 => Value::Str(madpipe_obs::hex_id(self.next() | 1)),
                    1 => Value::Str(format!("{:x}", self.below(1 << 16))),
                    2 => Value::Str("0000000000000000".into()),
                    _ => self.wrong(),
                }
            }

            /// A value of a type or range some field does not accept.
            fn wrong(&mut self) -> Value {
                match self.below(14) {
                    0 => Value::Null,
                    1 => Value::Bool(true),
                    2 => Value::Str("plan".into()),
                    3 => Value::Array(vec![]),
                    4 => Value::Array(vec![Value::UInt(1), Value::Str("x".into())]),
                    5 => Value::Object(vec![]),
                    6 => Value::Int(-3),
                    7 => Value::Float(2.5),
                    8 => Value::Float(-0.5),
                    9 => Value::Float(4.0),
                    10 => Value::UInt(u64::MAX),
                    11 => {
                        let text = self.pick(&[
                            "1e999",
                            "-1e999",
                            "36893488147419103232",
                            "18446744073709551616",
                        ]);
                        self.num(text)
                    }
                    12 => {
                        let text = self.pick(&["-9223372036854775809", "4e18", "-0"]);
                        self.num(text)
                    }
                    _ => Value::Str(self.name()),
                }
            }

            fn line(&mut self) -> Value {
                let replan = self.one_in(3);
                let cmd = if self.one_in(12) {
                    self.pick(&["ping", "health", "metrics", "shutdown", "bogus"])
                } else if replan {
                    "replan"
                } else {
                    "plan"
                };
                let layers = (0..1 + self.below(5)).map(|_| self.layer()).collect();
                let chain = Value::Object(vec![
                    ("name".into(), Value::Str(self.name())),
                    ("input_bytes".into(), self.bytes()),
                    ("layers".into(), Value::Array(layers)),
                ]);
                let mut fields = vec![
                    ("cmd".into(), Value::Str(cmd.into())),
                    ("chain".into(), chain),
                    ("platform".into(), self.platform()),
                ];
                if self.one_in(3) {
                    fields.push(("config".into(), self.config()));
                }
                if replan || self.one_in(8) {
                    fields.push(("fault".into(), self.fault()));
                }
                if self.one_in(3) {
                    fields.push(("trace".into(), self.hex_id()));
                    if self.one_in(2) {
                        fields.push(("parent".into(), self.hex_id()));
                    }
                }
                Value::Object(fields)
            }

            /// One random object or array inside `v` (possibly `v`).
            fn container<'v>(&mut self, v: &'v mut Value) -> &'v mut Value {
                let children = match v {
                    Value::Object(fields) => fields.len(),
                    Value::Array(items) => items.len(),
                    _ => 0,
                };
                if children == 0 || self.one_in(3) {
                    return v;
                }
                let i = self.below(children);
                let is_container = |c: &Value| matches!(c, Value::Object(_) | Value::Array(_));
                let descend = match v {
                    Value::Object(fields) => is_container(&fields[i].1),
                    Value::Array(items) => is_container(&items[i]),
                    _ => false,
                };
                if !descend {
                    return v;
                }
                match v {
                    Value::Object(fields) => self.container(&mut fields[i].1),
                    Value::Array(items) => self.container(&mut items[i]),
                    _ => unreachable!("only containers have children"),
                }
            }

            /// Shuffle, duplicate, add, drop or retype a member of a
            /// random object, or empty or retype an item of an array.
            fn mutate(&mut self, line: &mut Value) {
                let wrong = self.wrong();
                let unknown = self.name();
                let pick = self.below(6);
                let at = self.next() as usize;
                match self.container(line) {
                    Value::Object(fields) if !fields.is_empty() => {
                        let i = at % fields.len();
                        match pick {
                            0 => {
                                for k in (1..fields.len()).rev() {
                                    fields.swap(k, (at >> k) % (k + 1));
                                }
                            }
                            1 => {
                                let copy = (fields[i].0.clone(), wrong);
                                fields.insert(at % (fields.len() + 1), copy);
                            }
                            2 => fields.insert(i, (unknown, wrong)),
                            3 => drop(fields.remove(i)),
                            _ => fields[i].1 = wrong,
                        }
                    }
                    Value::Array(items) if !items.is_empty() => {
                        let i = at % items.len();
                        match pick {
                            0 => items.clear(),
                            _ => items[i] = wrong,
                        }
                    }
                    other => *other = wrong,
                }
            }
        }

        /// Marks a string the renderer turns into the number text it holds.
        const NUM: &str = "@num@";

        /// Write escapes the renderer never writes: `\/`, `\u` for
        /// non-ASCII text (surrogate pairs for astral characters, a lone
        /// surrogate for `§`) and escaped keys.
        fn escape_text(mix: &mut Mix, line: &str) -> String {
            let mut out = line
                .replace('/', "\\/")
                .replace('é', "\\u00e9")
                .replace('🚀', "\\ud83d\\ude80")
                .replace('§', "\\udc00");
            for (key, escaped) in [
                ("\"name\"", "\"n\\u0061me\""),
                ("\"cmd\"", "\"\\u0063md\""),
                ("\"layers\"", "\"l\\u0061yers\""),
                ("\"forward_time\"", "\"forward\\u005ftime\""),
                ("\"platform\"", "\"pl\\u0061tform\""),
            ] {
                if mix.one_in(2) {
                    out = out.replacen(key, escaped, 1 + mix.below(3));
                }
            }
            out
        }

        /// A random request line: a valid `plan` or `replan` line, often
        /// mutated in its tree and then in its text.
        fn random_line(seed: u64) -> String {
            let mix = &mut Mix(seed);
            let mut tree = mix.line();
            for _ in 0..mix.below(4) {
                mix.mutate(&mut tree);
            }
            let mut line = tree.to_string_compact();
            while let Some(start) = line.find(&format!("\"{NUM}")) {
                let end = line[start + 1..].find(&format!("{NUM}\"")).expect("closed") + start + 1;
                let text = line[start + NUM.len() + 1..end].to_string();
                line.replace_range(start..end + NUM.len() + 1, &text);
            }
            if mix.one_in(2) {
                line = escape_text(mix, &line);
            }
            if mix.one_in(4) {
                line = line.replace(",\"", mix.pick(&[", \"", ",\n\"", ",\t \""]));
            }
            if mix.one_in(8) {
                let mut cut = mix.below(line.len() + 1);
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.truncate(cut);
            }
            if mix.one_in(8) {
                line.push_str(mix.pick(&[" ", "x", "}", " {}", ",", "\n", "]", "0"]));
            }
            line
        }

        fn agree(line: &str) -> Result<(), TestCaseError> {
            prop_assert_eq!(
                format!("{:?}", parse_line(line)),
                format!("{:?}", super::oracle::parse_line(line)),
                "line: {}",
                line
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]
            #[test]
            fn parse_line_decodes_every_line_as_the_tree_oracle_does(
                seed in any::<u64>(),
            ) {
                agree(&random_line(seed))?;
            }
        }

        #[test]
        fn every_truncation_of_a_line_decodes_as_the_tree_oracle_does() {
            for seed in 0..12 {
                let line = random_line(seed);
                for cut in (0..=line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                    agree(&line[..cut]).unwrap();
                }
            }
        }

        #[test]
        fn random_lines_reach_requests_and_every_error_kind() {
            let (mut plans, mut replans, mut malformed, mut invalid) = (0, 0, 0, 0);
            for seed in 0..2048 {
                match parse_line(&random_line(seed)) {
                    Ok((Request::Plan(_), _)) => plans += 1,
                    Ok((Request::Replan(_), _)) => replans += 1,
                    Ok(_) => {}
                    Err(e) if e.kind == "malformed" => malformed += 1,
                    Err(_) => invalid += 1,
                }
            }
            for (what, n) in [
                ("plans", plans),
                ("replans", replans),
                ("malformed", malformed),
                ("invalid", invalid),
            ] {
                assert!(n >= 100, "only {n} {what} in 2048 lines");
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
    fn refine_probes_are_clamped_to_64() {
        let base = plan_line(r#"{"n_gpus":2,"memory_bytes":1073741824,"bandwidth_gb":12.0}"#);
        let with = |probes: u64| {
            plan_of(&base.replacen(
                r#","platform""#,
                &format!(r#","config":{{"refine_probes":{probes}}},"platform""#),
                1,
            ))
        };
        let many = with(1_000_000);
        assert_eq!(many.cfg.refine_probes, 64);
        assert!(
            many.canonical.contains(r#""refine_probes":64,"#),
            "{}",
            many.canonical
        );
        assert_eq!(many.canonical, with(64).canonical);
        // 0 still turns refinement off.
        assert_eq!(with(0).cfg.refine_probes, 0);
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

    #[test]
    fn a_rendered_plan_is_answered_with_plan_responses_bytes() {
        let plan = Value::Object(vec![
            ("period".into(), Value::Float(0.1 + 0.2)),
            ("phase1_period".into(), Value::Float(1e-7)),
            ("throughput".into(), Value::Float(1.0 / 0.3)),
            (
                "stages".into(),
                Value::Array(vec![Value::Object(vec![
                    ("start".into(), Value::UInt(0)),
                    ("gpu".into(), Value::UInt(3)),
                    ("activation".into(), Value::Str("recompute".into())),
                ])]),
            ),
        ]);
        let json = plan.to_string_compact();
        for cached in [false, true] {
            let mut out = String::from("{\"ok\":true,\"pong\":true}\n");
            let head = out.clone();
            write_plan_response(&mut out, &json, cached);
            assert_eq!(out, head + &plan_response(&plan, cached));
        }
    }
}
