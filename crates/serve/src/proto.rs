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
//!
//! A request frame is read by the workspace's one JSON codec,
//! `secflow_obs::json`: it must be UTF-8 and one JSON object, nested
//! at most `json::MAX_DEPTH` deep, with finite numbers and integer
//! fields below 2^53. The server parses each frame once, then takes
//! both the [`Request`] and its [`canonical_json`] text, which keys the
//! response cache, from that one [`Value`].
//!
//! Unknown request fields are refused. A campaign request accepts
//! `trace_path` (`materialize` or `streaming`) so that existing
//! clients' requests keep parsing; every campaign streams, so the
//! field is validated and then ignored.
//!
//! Fields whose value sizes an allocation are bounded by documented
//! constants
//! ([`MAX_TRACES`], [`MAX_SAMPLES_PER_CYCLE`], [`MAX_PLACE_RESTARTS`]):
//! a request above one is a bad request, not an allocation that could
//! abort the daemon.

use std::fmt;
use std::io::{self, Read, Write};

use secflow_core::{DecomposeStyle, FlowOptions};
use secflow_obs::json::Value;
use secflow_sim::SimConfig;

/// Upper bound on a frame body; a length above this is a protocol
/// error, not an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Most encryptions one campaign request may ask for (`n`): a campaign
/// draws every plaintext up front, 2 bytes each.
pub const MAX_TRACES: u64 = 1 << 24;

/// Most samples per cycle a request may ask for
/// (`sim.samples_per_cycle`), ten times the paper's 800: a block of
/// traces holds this many floats per trace, and a kernel batch this
/// many per lane.
pub const MAX_SAMPLES_PER_CYCLE: u64 = 8000;

/// Most placement restarts a request may ask for
/// (`options.place_restarts`): each restart is a whole placement, and
/// the thread pool reserves one result slot per restart.
pub const MAX_PLACE_RESTARTS: u64 = 64;

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

/// A measurement campaign + attack job on the built-in Fig. 4 DES
/// module.
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Secure (WDDL) implementation, or the regular reference one.
    pub secure: bool,
    /// Which attack to run on the collected traces.
    pub attack: AttackKind,
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
        if let Some(k) = m.keys().find(|k| !allowed.contains(&k.as_str())) {
            return Err(bad(format!("unknown {ctx} field `{k}`")));
        }
    }
    Ok(())
}

/// Reads an optional field with `read`; a field of another type is
/// refused as not being `what`.
fn field<'v, T>(
    obj: &'v Value,
    key: &str,
    read: fn(&'v Value) -> Option<T>,
    what: &str,
) -> Result<Option<T>, RequestError> {
    obj.get(key)
        .map(|v| read(v).ok_or_else(|| bad(format!("`{key}` must be {what}"))))
        .transpose()
}

fn get_u64(obj: &Value, key: &str) -> Result<Option<u64>, RequestError> {
    field(obj, key, Value::as_u64, "a non-negative integer")
}

fn get_f64(obj: &Value, key: &str) -> Result<Option<f64>, RequestError> {
    field(obj, key, Value::as_f64, "a number")
}

fn get_bool(obj: &Value, key: &str) -> Result<Option<bool>, RequestError> {
    field(obj, key, Value::as_bool, "a boolean")
}

fn get_str<'v>(obj: &'v Value, key: &str) -> Result<Option<&'v str>, RequestError> {
    field(obj, key, Value::as_str, "a string")
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
        if !(1..=MAX_PLACE_RESTARTS).contains(&v) {
            return Err(bad(format!(
                "`place_restarts` must be in 1..={MAX_PLACE_RESTARTS}"
            )));
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
        ],
        "sim",
    )?;
    if let Some(v) = get_u64(o, "period_ps")? {
        if v == 0 {
            return Err(bad("`period_ps` must be positive"));
        }
        cfg.period_ps = v;
    }
    if let Some(v) = get_u64(o, "samples_per_cycle")? {
        if !(1..=MAX_SAMPLES_PER_CYCLE).contains(&v) {
            return Err(bad(format!(
                "`samples_per_cycle` must be in 1..={MAX_SAMPLES_PER_CYCLE}"
            )));
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
        // The evaluation phase is the rest of the cycle.
        if !(0.0..1.0).contains(&v) {
            return Err(bad("`precharge_fraction` must be in [0, 1)"));
        }
        cfg.precharge_fraction = v;
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
    /// Parses and validates a request frame. Values above the
    /// allocation bounds of the module docs fail here, before the job
    /// is ever queued.
    ///
    /// # Errors
    ///
    /// [`RequestError`] on malformed JSON, unknown fields or jobs,
    /// out-of-range values, or unsupported option combinations.
    pub fn parse(frame: &[u8]) -> Result<Request, RequestError> {
        Request::from_value(&parse_frame(frame)?)
    }

    /// Validates a request frame already read by [`parse_frame`].
    pub(crate) fn from_value(v: &Value) -> Result<Request, RequestError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        let job = get_str(v, "job")?.ok_or_else(|| bad("missing `job` field"))?;
        match job {
            "stats" => {
                known_keys(v, &["job"], "request")?;
                Ok(Request::Stats)
            }
            "shutdown" => {
                known_keys(v, &["job"], "request")?;
                Ok(Request::Shutdown)
            }
            "flow" => {
                known_keys(
                    v,
                    &["job", "implementation", "netlist", "options"],
                    "request",
                )?;
                let netlist = get_str(v, "netlist")?
                    .ok_or_else(|| bad("flow job requires a `netlist` field"))?
                    .to_string();
                Ok(Request::Flow(FlowRequest {
                    secure: parse_implementation(v)?,
                    netlist,
                    opts: parse_flow_options(v)?,
                }))
            }
            "campaign" | "attack" => {
                known_keys(
                    v,
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
                let attack = match get_str(v, "attack")? {
                    None | Some("dpa") => AttackKind::Dpa,
                    Some("cpa") => AttackKind::Cpa,
                    Some(other) => {
                        return Err(bad(format!("`attack` must be dpa|cpa, got `{other}`")))
                    }
                };
                // Validated, then ignored (see the module docs).
                match get_str(v, "trace_path")? {
                    None | Some("materialize" | "streaming") => {}
                    Some(other) => {
                        return Err(bad(format!(
                            "`trace_path` must be materialize|streaming, got `{other}`"
                        )))
                    }
                }
                let n = get_u64(v, "n")?.unwrap_or(2000);
                if !(1..=MAX_TRACES).contains(&n) {
                    return Err(bad(format!("`n` must be in 1..={MAX_TRACES}")));
                }
                let key =
                    get_u64(v, "key")?.unwrap_or(u64::from(secflow_crypto::dpa_module::PAPER_KEY));
                if key >= 64 {
                    return Err(bad("`key` must be in 0..64"));
                }
                let opts = parse_flow_options(v)?;
                let cfg = parse_sim_config(v)?;
                Ok(Request::Campaign(CampaignRequest {
                    secure: parse_implementation(v)?,
                    attack,
                    mtd: job == "campaign",
                    n: n as usize,
                    seed: get_u64(v, "seed")?.unwrap_or(1),
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

/// Reads a request frame as JSON: one UTF-8 check, one [`Value::parse`].
pub(crate) fn parse_frame(frame: &[u8]) -> Result<Value, RequestError> {
    let text = std::str::from_utf8(frame).map_err(|_| bad("request is not UTF-8"))?;
    Value::parse(text).map_err(|e| bad(e.to_string()))
}

/// The canonical JSON of a request, which the response cache hashes:
/// two requests that parse to the same value, whatever their field
/// order or whitespace, render to the same bytes ([`Value::render`]).
pub fn canonical_json(v: &Value) -> String {
    v.render()
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
    fn retired_sim_fields_are_unknown_fields() {
        // Nothing records a waveform, whatever its value.
        for req in [
            br#"{"job":"campaign","sim":{"record_waveform":true}}"#.as_slice(),
            br#"{"job":"campaign","sim":{"record_waveform":false}}"#,
        ] {
            let e = Request::parse(req).unwrap_err();
            assert_eq!(e.0, "unknown sim field `record_waveform`");
        }
        // The lane width is not a request option.
        let e =
            Request::parse(br#"{"job":"campaign","options":{"sim_backend":"event"}}"#).unwrap_err();
        assert!(e.0.contains("sim_backend"), "{e}");
    }

    /// Each field that sizes an allocation is accepted at its limit
    /// and refused, naming the field, one above it. Parsing allocates
    /// nothing of either size.
    #[test]
    fn allocation_sizing_fields_are_bounded() {
        for (field, limit, req) in [
            ("n", MAX_TRACES, r#"{"job":"campaign","n":N}"#),
            (
                "samples_per_cycle",
                MAX_SAMPLES_PER_CYCLE,
                r#"{"job":"campaign","sim":{"samples_per_cycle":N}}"#,
            ),
            (
                "place_restarts",
                MAX_PLACE_RESTARTS,
                r#"{"job":"campaign","options":{"place_restarts":N}}"#,
            ),
            (
                "place_restarts",
                MAX_PLACE_RESTARTS,
                r#"{"job":"flow","netlist":"","options":{"place_restarts":N}}"#,
            ),
        ] {
            let at = req.replace('N', &limit.to_string());
            assert!(Request::parse(at.as_bytes()).is_ok(), "{at}");
            for over in [limit + 1, 1_000_000_000_000, 1_000_000_000_000_000] {
                let req = req.replace('N', &over.to_string());
                let e = Request::parse(req.as_bytes()).expect_err(&req);
                assert!(e.0.contains(&format!("`{field}`")), "{req}: {e}");
            }
        }
        assert_eq!(MAX_TRACES, 1 << 24);
        assert_eq!(MAX_SAMPLES_PER_CYCLE, 8000);
        assert_eq!(MAX_PLACE_RESTARTS, 64);
    }

    #[test]
    fn sim_timing_outside_its_range_is_refused() {
        for (sim, field) in [
            (r#"{"period_ps":0}"#, "period_ps"),
            (r#"{"precharge_fraction":-0.1}"#, "precharge_fraction"),
            (r#"{"precharge_fraction":1}"#, "precharge_fraction"),
            (r#"{"precharge_fraction":7}"#, "precharge_fraction"),
        ] {
            let req = format!(r#"{{"job":"campaign","n":6,"sim":{sim}}}"#);
            let e = Request::parse(req.as_bytes()).expect_err(&req);
            assert!(e.0.contains(field), "{req}: {e}");
        }
        for sim in [
            r#"{"period_ps":1}"#,
            r#"{"precharge_fraction":0}"#,
            r#"{"precharge_fraction":0.95}"#,
        ] {
            let req = format!(r#"{{"job":"campaign","n":6,"sim":{sim}}}"#);
            assert!(Request::parse(req.as_bytes()).is_ok(), "{req}");
        }
    }

    #[test]
    fn canonical_json_is_order_and_whitespace_insensitive() {
        let a = Value::parse(r#"{"b": 2, "a": {"y": 1.5, "x": [1, 2]}}"#).unwrap();
        let b = Value::parse(r#"{"a":{"x":[1,2],"y":1.5},"b":2}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"a":{"x":[1,2],"y":1.5},"b":2}"#);
    }
}
