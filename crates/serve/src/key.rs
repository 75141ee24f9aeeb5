//! Cache-key derivation: canonical byte encodings of the option
//! structs and the stage-keyed content hash.
//!
//! A cached artifact is addressed by
//! `H(canonical input bytes ‖ canonical options bytes ‖ stage tag)`
//! where `H` is the 128-bit [`ContentHash`]. The encodings are
//! *canonical*: every field is emitted, in a fixed order, framed as
//! `name \0 length value`, floats as `f64::to_bits` (so `0.1 + 0.2`
//! artifacts can never alias `0.3` ones and keys are bit-stable across
//! platforms), and set-valued fields in sorted order. Any single-field
//! change therefore changes the key (`tests/cache_key.rs` pins this
//! property and a golden hash).
//!
//! Keys are deliberately coarse: each artifact is keyed on the *whole*
//! option struct, not the subset of fields it reads. A `via_cost` edit
//! thus also misses on the mapped netlist — a small amount of
//! redundant recompute, in exchange for a derivation that cannot
//! silently go stale when a stage grows a new option dependency. For
//! the same reason an implementation is one [`CacheStage::Backend`]
//! entry, not one entry per flow stage: every stage of it would be
//! keyed on the same bytes, so per-stage entries could only hit
//! together.

use secflow_core::{DecomposeStyle, FlowOptions};
use secflow_sim::SimConfig;

use crate::hash::ContentHash;

/// The cacheable artifacts of the flow-and-campaign pipeline, used as
/// the final tag of every cache key so two stages can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheStage {
    /// Parsed (and validated) netlist from submitted Verilog text.
    Parse,
    /// Technology-mapped netlist of the built-in campaign design.
    Map,
    /// One implementation of the built-in campaign design: the flow
    /// backend's whole result (layout, parasitics and, for the secure
    /// flow, the substitution), as the CLI and flow jobs compute it.
    Backend,
    /// Compiled simulation program (the 64-lane kernel).
    Program,
    /// The statistics of one campaign's traces: both attacks and, for
    /// `campaign` jobs, their MTD scans. Tagged `traces` because the
    /// key names the campaign's traces, not the job's attack.
    Traces,
    /// Rendered response payload bytes for a whole request.
    Response,
}

impl CacheStage {
    /// Stable tag mixed into the cache key and shown in cache stats.
    pub fn name(self) -> &'static str {
        match self {
            CacheStage::Parse => "parse",
            CacheStage::Map => "map",
            CacheStage::Backend => "backend",
            CacheStage::Program => "program",
            CacheStage::Traces => "traces",
            CacheStage::Response => "response",
        }
    }
}

/// Canonical field framing: `name \0 u64-le(len) value-bytes`. The
/// name ends the previous frame unambiguously and makes the encoding
/// self-describing enough to debug with `xxd`.
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn frame(&mut self, name: &str, value: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.push(0);
        self.buf
            .extend_from_slice(&(value.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(value);
        self
    }

    /// Frames an unsigned integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.frame(name, &v.to_le_bytes())
    }

    /// Frames a signed integer field.
    pub fn i64(&mut self, name: &str, v: i64) -> &mut Self {
        self.frame(name, &v.to_le_bytes())
    }

    /// Frames an `f64` by its bit pattern.
    pub fn f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.frame(name, &v.to_bits().to_le_bytes())
    }

    /// Frames an `f32` by its bit pattern.
    pub fn f32(&mut self, name: &str, v: f32) -> &mut Self {
        self.frame(name, &v.to_bits().to_le_bytes())
    }

    /// Frames a boolean.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.frame(name, &[u8::from(v)])
    }

    /// Frames a string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.frame(name, v.as_bytes())
    }

    /// Frames raw bytes.
    pub fn bytes(&mut self, name: &str, v: &[u8]) -> &mut Self {
        self.frame(name, v)
    }

    /// The finished canonical byte string.
    pub fn build(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for Enc {
    fn default() -> Self {
        Enc::new()
    }
}

/// Canonical bytes of a [`FlowOptions`]: every field (nested structs
/// flattened with dotted names), floats by bit pattern, the
/// `allowed_cells` set sorted.
pub fn flow_options_bytes(opts: &FlowOptions) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64("map.cut_size", u64::from(opts.map.cut_size))
        .u64("map.cuts_per_node", opts.map.cuts_per_node as u64);
    match &opts.map.allowed_cells {
        None => {
            e.bool("map.allowed_cells.some", false);
        }
        Some(cells) => {
            e.bool("map.allowed_cells.some", true);
            let mut sorted: Vec<&String> = cells.iter().collect();
            sorted.sort();
            for (i, c) in sorted.iter().enumerate() {
                e.str(&format!("map.allowed_cells.{i}"), c);
            }
        }
    };
    e.f64("fill_factor", opts.fill_factor)
        .f64("aspect_ratio", opts.aspect_ratio)
        .u64("anneal_moves_per_gate", opts.anneal_moves_per_gate as u64)
        .u64("place_restarts", opts.place_restarts as u64)
        .u64("seed", opts.seed)
        .u64("route.max_iterations", opts.route.max_iterations as u64)
        .f64("route.via_cost", opts.route.via_cost)
        .f32("route.history_increment", opts.route.history_increment)
        .u64("route.layers", u64::from(opts.route.layers))
        .f64("tech.r_ohm_per_track", opts.tech.r_ohm_per_track)
        .f64("tech.c_ground_ff_per_track", opts.tech.c_ground_ff_per_track)
        .f64(
            "tech.c_coupling_ff_per_track",
            opts.tech.c_coupling_ff_per_track,
        )
        .i64("tech.coupling_range", i64::from(opts.tech.coupling_range))
        .f64("tech.r_via_ohm", opts.tech.r_via_ohm)
        .f64("tech.c_via_ff", opts.tech.c_via_ff)
        .str(
            "decompose_style",
            match opts.decompose_style {
                DecomposeStyle::Dense => "dense",
                DecomposeStyle::Spaced => "spaced",
                DecomposeStyle::Shielded => "shielded",
            },
        )
        .bool("verify", opts.verify)
        .u64("bdd_gate_limit", opts.bdd_gate_limit as u64);
    e.build()
}

/// Canonical bytes of a [`SimConfig`].
pub fn sim_config_bytes(cfg: &SimConfig) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64("period_ps", cfg.period_ps)
        .u64("samples_per_cycle", cfg.samples_per_cycle as u64)
        .f64("vdd", cfg.vdd)
        .u64("clk2q_ps", cfg.clk2q_ps)
        .u64("input_delay_ps", cfg.input_delay_ps)
        .u64("crosstalk_window_ps", cfg.crosstalk_window_ps)
        .f64("noise_sigma", cfg.noise_sigma)
        .u64("noise_seed", cfg.noise_seed)
        .f64("precharge_fraction", cfg.precharge_fraction);
    e.build()
}

/// The cache key of one stage artifact:
/// `H(len(input) ‖ input ‖ len(opts) ‖ opts ‖ stage-tag)`. `input` is
/// the job's canonical input bytes (submitted netlist text, or a fixed
/// tag for the built-in campaign design); `opts` is a canonical
/// encoding from this module, extended with campaign parameters where
/// the stage needs them.
pub fn stage_key(input: &[u8], opts: &[u8], stage: CacheStage) -> ContentHash {
    let mut data =
        Vec::with_capacity(input.len() + opts.len() + stage.name().len() + 2 * 8);
    data.extend_from_slice(&(input.len() as u64).to_le_bytes());
    data.extend_from_slice(input);
    data.extend_from_slice(&(opts.len() as u64).to_le_bytes());
    data.extend_from_slice(opts);
    data.extend_from_slice(stage.name().as_bytes());
    ContentHash::of(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tag_separates_keys() {
        let opts = flow_options_bytes(&FlowOptions::default());
        let a = stage_key(b"x", &opts, CacheStage::Map);
        let b = stage_key(b"x", &opts, CacheStage::Backend);
        assert_ne!(a, b);
    }

    #[test]
    fn framing_is_injective_at_boundaries() {
        // "ab" + "c" must not alias "a" + "bc".
        let mut e1 = Enc::new();
        e1.str("x", "ab").str("y", "c");
        let mut e2 = Enc::new();
        e2.str("x", "a").str("y", "bc");
        assert_ne!(e1.build(), e2.build());
    }

    #[test]
    fn float_bits_are_keyed() {
        let mut a = FlowOptions::default();
        a.fill_factor = 0.1 + 0.2;
        let mut b = FlowOptions::default();
        b.fill_factor = 0.3;
        assert_ne!(flow_options_bytes(&a), flow_options_bytes(&b));
    }
}
