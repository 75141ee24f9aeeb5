//! The job-server wire protocol.
//!
//! Transport: length-prefixed frames — a 4-byte big-endian `u32`
//! length followed by that many bytes — over a Unix-domain or TCP
//! stream. One request frame (a JSON object) yields exactly **two**
//! response frames:
//!
//! 1. the **envelope**: a JSON object with `ok`, per-job `serve.*`
//!    metrics (cache hits/misses, queue depth, wall time) and, on
//!    failure, the structured error with its stage exit code;
//! 2. the **payload**: the job's deterministic result bytes.
//!
//! The split is what keeps the cache contract checkable: the payload
//! of a warm resubmission is byte-identical to the cold run (the CI
//! gate `cmp`s it), while the envelope is free to carry
//! run-dependent metrics. The `secflow submit` CLI prints the payload
//! to stdout and the envelope to stderr, mirroring the workspace's
//! stdout-determinism convention.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, Read, Write};

use secflow_core::{DecomposeStyle, FlowOptions};
use secflow_sim::SimConfig;

use crate::value::Value;

/// Upper bound on a frame body; a length above this is a protocol
/// error, not an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", data.len()),
        ));
    }
    w.write_all(&(data.len() as u32).to_be_bytes())?;
    w.write_all(data)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; a length prefix over [`MAX_FRAME`] is
/// reported as `InvalidData` without allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// A malformed or unsupported request. Reported to the client with
/// usage exit code 2 (the same code the CLIs use for option errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError(pub String);

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

fn bad(msg: impl Into<String>) -> RequestError {
    RequestError(msg.into())
}

/// Which attack analyses a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Difference-of-means DPA (Fig. 6).
    Dpa,
    /// Pearson-correlation CPA.
    Cpa,
}

impl AttackKind {
    /// Stable name used in requests and payloads.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Dpa => "dpa",
            AttackKind::Cpa => "cpa",
        }
    }
}

/// How campaign traces flow from the simulator to the attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePath {
    /// Materialize the full trace set (cached as a stage artifact,
    /// O(traces × points) memory).
    Materialize,
    /// Stream simulator blocks straight into one-pass accumulators
    /// (O(points × guesses) memory; no trace-set artifact). Results
    /// are byte-identical to the materialized path.
    Streaming,
}

impl TracePath {
    /// Stable name used in requests.
    pub fn name(self) -> &'static str {
        match self {
            TracePath::Materialize => "materialize",
            TracePath::Streaming => "streaming",
        }
    }
}

/// A measurement campaign + attack job on the built-in Fig. 4 DES
/// module.
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Secure (WDDL) implementation, or the regular reference one.
    pub secure: bool,
    /// Which attack to run on the collected traces.
    pub attack: AttackKind,
    /// Materialized trace set or fused streaming accumulation.
    pub trace_path: TracePath,
    /// Run the MTD scan in addition to the full-trace attack.
    pub mtd: bool,
    /// Number of encryptions.
    pub n: usize,
    /// Plaintext-stream seed.
    pub seed: u64,
    /// The secret key under attack (0–63).
    pub key: u8,
    /// Flow options for building the implementation.
    pub opts: FlowOptions,
    /// Simulation configuration for the campaign.
    pub cfg: SimConfig,
}

/// A flow job: run the regular or secure backend on submitted
/// structural Verilog.
#[derive(Debug, Clone)]
pub struct FlowRequest {
    /// Secure flow or regular reference flow.
    pub secure: bool,
    /// The netlist text (the CLI's `rtl.v` contents). Hashing uses
    /// these exact bytes: any one-byte edit is a different job.
    pub netlist: String,
    /// Flow options.
    pub opts: FlowOptions,
}

/// A parsed job request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a flow backend on submitted Verilog.
    Flow(FlowRequest),
    /// Build the DES module, collect traces, attack.
    Campaign(CampaignRequest),
    /// Cache and job-count statistics.
    Stats,
    /// Acknowledge, then stop accepting connections.
    Shutdown,
}

fn known_keys(obj: &Value, allowed: &[&str], ctx: &str) -> Result<(), RequestError> {
    if let Value::Obj(m) = obj {
        let allow: HashSet<&str> = allowed.iter().copied().collect();
        for k in m.keys() {
            if !allow.contains(k.as_str()) {
                return Err(bad(format!("unknown {ctx} field `{k}`")));
            }
        }
    }
    Ok(())
}

fn get_u64(obj: &Value, key: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn get_f64(obj: &Value, key: &str) -> Result<Option<f64>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a number"))),
    }
}

fn get_bool(obj: &Value, key: &str) -> Result<Option<bool>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a boolean"))),
    }
}

fn get_str<'v>(obj: &'v Value, key: &str) -> Result<Option<&'v str>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a string"))),
    }
}

/// Applies the request's `options` object onto [`FlowOptions`]
/// defaults. Field names mirror the struct; unknown names are
/// rejected so typos fail loudly instead of silently running with
/// defaults.
fn parse_flow_options(obj: &Value) -> Result<FlowOptions, RequestError> {
    let mut opts = FlowOptions::default();
    let Some(o) = obj.get("options") else {
        return Ok(opts);
    };
    if !matches!(o, Value::Obj(_)) {
        return Err(bad("`options` must be an object"));
    }
    known_keys(
        o,
        &[
            "fill_factor",
            "aspect_ratio",
            "anneal_moves_per_gate",
            "place_restarts",
            "seed",
            "route_max_iterations",
            "route_layers",
            "decompose_style",
            "verify",
            "bdd_gate_limit",
            "sim_backend",
        ],
        "options",
    )?;
    if let Some(v) = get_f64(o, "fill_factor")? {
        opts.fill_factor = v;
    }
    if let Some(v) = get_f64(o, "aspect_ratio")? {
        opts.aspect_ratio = v;
    }
    if let Some(v) = get_u64(o, "anneal_moves_per_gate")? {
        opts.anneal_moves_per_gate = v as usize;
    }
    if let Some(v) = get_u64(o, "place_restarts")? {
        if v == 0 {
            return Err(bad("`place_restarts` must be at least 1"));
        }
        opts.place_restarts = v as usize;
    }
    if let Some(v) = get_u64(o, "seed")? {
        opts.seed = v;
    }
    if let Some(v) = get_u64(o, "route_max_iterations")? {
        opts.route.max_iterations = v as usize;
    }
    if let Some(v) = get_u64(o, "route_layers")? {
        // Pins need a horizontal and a vertical layer.
        opts.route.layers = u8::try_from(v)
            .ok()
            .filter(|&layers| layers >= 2)
            .ok_or_else(|| bad("`route_layers` must be in 2..=255"))?;
    }
    if let Some(v) = get_str(o, "decompose_style")? {
        opts.decompose_style = match v {
            "dense" => DecomposeStyle::Dense,
            "spaced" => DecomposeStyle::Spaced,
            "shielded" => DecomposeStyle::Shielded,
            other => {
                return Err(bad(format!(
                    "`decompose_style` must be dense|spaced|shielded, got `{other}`"
                )))
            }
        };
    }
    if let Some(v) = get_bool(o, "verify")? {
        opts.verify = v;
    }
    if let Some(v) = get_u64(o, "bdd_gate_limit")? {
        opts.bdd_gate_limit = v as usize;
    }
    if let Some(v) = get_str(o, "sim_backend")? {
        opts.sim_backend = v
            .parse()
            .map_err(|_| bad("`sim_backend` must be `event` or `bitslice`"))?;
    }
    Ok(opts)
}

/// Applies the request's `sim` object onto the paper's default
/// [`SimConfig`].
fn parse_sim_config(obj: &Value) -> Result<SimConfig, RequestError> {
    let mut cfg = SimConfig::default();
    let Some(o) = obj.get("sim") else {
        return Ok(cfg);
    };
    if !matches!(o, Value::Obj(_)) {
        return Err(bad("`sim` must be an object"));
    }
    known_keys(
        o,
        &[
            "period_ps",
            "samples_per_cycle",
            "noise_sigma",
            "noise_seed",
            "precharge_fraction",
            "record_waveform",
        ],
        "sim",
    )?;
    if let Some(v) = get_u64(o, "period_ps")? {
        cfg.period_ps = v;
    }
    if let Some(v) = get_u64(o, "samples_per_cycle")? {
        if v == 0 {
            return Err(bad("`samples_per_cycle` must be positive"));
        }
        cfg.samples_per_cycle = v as usize;
    }
    if let Some(v) = get_f64(o, "noise_sigma")? {
        cfg.noise_sigma = v;
    }
    if let Some(v) = get_u64(o, "noise_seed")? {
        cfg.noise_seed = v;
    }
    if let Some(v) = get_f64(o, "precharge_fraction")? {
        cfg.precharge_fraction = v;
    }
    if let Some(v) = get_bool(o, "record_waveform")? {
        cfg.record_waveform = v;
    }
    Ok(cfg)
}

fn parse_implementation(obj: &Value) -> Result<bool, RequestError> {
    match get_str(obj, "implementation")? {
        None | Some("secure") => Ok(true),
        Some("regular") => Ok(false),
        Some(other) => Err(bad(format!(
            "`implementation` must be secure|regular, got `{other}`"
        ))),
    }
}

impl Request {
    /// Parses and validates a request frame.
    ///
    /// Backend/config combinations are validated here — at
    /// option-validation time — so e.g. `record_waveform` on the
    /// bit-sliced backend fails before the job is ever queued (see
    /// [`SimConfig::validate_backend`]).
    ///
    /// # Errors
    ///
    /// [`RequestError`] on malformed JSON, unknown fields or jobs,
    /// out-of-range values, or unsupported option combinations.
    pub fn parse(frame: &[u8]) -> Result<Request, RequestError> {
        let text = std::str::from_utf8(frame).map_err(|_| bad("request is not UTF-8"))?;
        let v = Value::parse(text).map_err(|e| bad(e.to_string()))?;
        if !matches!(v, Value::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        let job = get_str(&v, "job")?.ok_or_else(|| bad("missing `job` field"))?;
        match job {
            "stats" => {
                known_keys(&v, &["job"], "request")?;
                Ok(Request::Stats)
            }
            "shutdown" => {
                known_keys(&v, &["job"], "request")?;
                Ok(Request::Shutdown)
            }
            "flow" => {
                known_keys(
                    &v,
                    &["job", "implementation", "netlist", "options"],
                    "request",
                )?;
                let netlist = get_str(&v, "netlist")?
                    .ok_or_else(|| bad("flow job requires a `netlist` field"))?
                    .to_string();
                Ok(Request::Flow(FlowRequest {
                    secure: parse_implementation(&v)?,
                    netlist,
                    opts: parse_flow_options(&v)?,
                }))
            }
            "campaign" | "attack" => {
                known_keys(
                    &v,
                    &[
                        "job",
                        "implementation",
                        "attack",
                        "trace_path",
                        "n",
                        "seed",
                        "key",
                        "options",
                        "sim",
                    ],
                    "request",
                )?;
                let attack = match get_str(&v, "attack")? {
                    None | Some("dpa") => AttackKind::Dpa,
                    Some("cpa") => AttackKind::Cpa,
                    Some(other) => {
                        return Err(bad(format!("`attack` must be dpa|cpa, got `{other}`")))
                    }
                };
                let trace_path = match get_str(&v, "trace_path")? {
                    None | Some("materialize") => TracePath::Materialize,
                    Some("streaming") => TracePath::Streaming,
                    Some(other) => {
                        return Err(bad(format!(
                            "`trace_path` must be materialize|streaming, got `{other}`"
                        )))
                    }
                };
                let n = get_u64(&v, "n")?.unwrap_or(2000) as usize;
                if n == 0 {
                    return Err(bad("`n` must be at least 1"));
                }
                let key = get_u64(&v, "key")?.unwrap_or(u64::from(
                    secflow_crypto::dpa_module::PAPER_KEY,
                ));
                if key >= 64 {
                    return Err(bad("`key` must be in 0..64"));
                }
                let opts = parse_flow_options(&v)?;
                let cfg = parse_sim_config(&v)?;
                // Satellite-2 contract: unsupported backend/config
                // combinations die here, not mid-campaign.
                cfg.validate_backend(opts.sim_backend)
                    .map_err(|e| bad(e.to_string()))?;
                Ok(Request::Campaign(CampaignRequest {
                    secure: parse_implementation(&v)?,
                    attack,
                    trace_path,
                    mtd: job == "campaign",
                    n,
                    seed: get_u64(&v, "seed")?.unwrap_or(1),
                    key: key as u8,
                    opts,
                    cfg,
                }))
            }
            other => Err(bad(format!(
                "unknown job `{other}` (expected flow|campaign|attack|stats|shutdown)"
            ))),
        }
    }
}

/// Renders a parsed [`Value`] back to canonical JSON: object keys
/// sorted (`Value::Obj` is a `BTreeMap`), no whitespace, shortest
/// round-trip float formatting. Two requests that parse to the same
/// value — regardless of field order or whitespace — render to the
/// same bytes, which is what the response cache hashes.
pub fn canonical_json(v: &Value) -> String {
    let mut out = String::new();
    render(v, &mut out);
    out
}

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::Str(s) => {
            out.push('"');
            out.push_str(&secflow_obs::json::escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&secflow_obs::json::escape(k));
                out.push_str("\":");
                render(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn oversized_frame_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn campaign_request_parses_with_defaults() {
        let r = Request::parse(br#"{"job":"campaign","n":150}"#).unwrap();
        match r {
            Request::Campaign(c) => {
                assert!(c.secure);
                assert!(c.mtd);
                assert_eq!(c.attack, AttackKind::Dpa);
                assert_eq!(c.n, 150);
                assert_eq!(c.seed, 1);
                assert_eq!(c.key, secflow_crypto::dpa_module::PAPER_KEY);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_jobs_are_rejected() {
        assert!(Request::parse(br#"{"job":"campaign","bogus":1}"#).is_err());
        assert!(Request::parse(br#"{"job":"frobnicate"}"#).is_err());
        assert!(Request::parse(br#"{"job":"campaign","options":{"typo_field":1}}"#).is_err());
        assert!(Request::parse(br#"{"job":"flow"}"#).is_err()); // no netlist
    }

    #[test]
    fn waveform_on_bitslice_is_rejected_at_request_validation() {
        let e = Request::parse(
            br#"{"job":"campaign","options":{"sim_backend":"bitslice"},"sim":{"record_waveform":true}}"#,
        )
        .unwrap_err();
        assert!(e.0.contains("record_waveform"), "{e}");
        // Same combination on the event backend is fine.
        assert!(Request::parse(
            br#"{"job":"campaign","options":{"sim_backend":"event"},"sim":{"record_waveform":true}}"#,
        )
        .is_ok());
    }

    #[test]
    fn canonical_json_is_order_and_whitespace_insensitive() {
        let a = Value::parse(r#"{"b": 2, "a": {"y": 1.5, "x": [1, 2]}}"#).unwrap();
        let b = Value::parse(r#"{"a":{"x":[1,2],"y":1.5},"b":2}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"a":{"x":[1,2],"y":1.5},"b":2}"#);
    }
}
