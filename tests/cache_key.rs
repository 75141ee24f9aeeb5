//! Stability properties of the serve cache's key derivation.
//!
//! The content-addressed cache is only sound if the key is a faithful
//! fingerprint of everything a stage reads: every single-field option
//! mutation must produce a distinct key (a collision would serve a
//! stale artifact byte-for-byte as if it were correct), the encoding
//! must be bit-stable across runs and thread counts, and a golden
//! pinned hash catches any accidental change to the canonical
//! encoding itself — an encoding change silently invalidates (or
//! worse, aliases) every on-disk cache entry.

use std::collections::HashSet;

use secflow::flow::{DecomposeStyle, FlowOptions};
use secflow::serve::{flow_options_bytes, sim_config_bytes, stage_key, CacheStage};
use secflow::sim::SimConfig;

/// One mutation per [`FlowOptions`] field (nested structs included).
fn flow_option_mutations() -> Vec<(&'static str, FlowOptions)> {
    let m = |name: &'static str, f: &dyn Fn(&mut FlowOptions)| {
        let mut o = FlowOptions::default();
        f(&mut o);
        (name, o)
    };
    vec![
        m("map.cut_size", &|o| o.map.cut_size += 1),
        m("map.cuts_per_node", &|o| o.map.cuts_per_node += 1),
        m("map.allowed_cells", &|o| {
            o.map.allowed_cells = Some(HashSet::from(["nand2".to_string()]));
        }),
        m("fill_factor", &|o| o.fill_factor = 0.75),
        m("aspect_ratio", &|o| o.aspect_ratio = 1.5),
        m("anneal_moves_per_gate", &|o| o.anneal_moves_per_gate += 1),
        m("place_restarts", &|o| o.place_restarts += 1),
        m("seed", &|o| o.seed += 1),
        m("route.max_iterations", &|o| o.route.max_iterations += 1),
        m("route.via_cost", &|o| o.route.via_cost += 0.5),
        m("route.history_increment", &|o| {
            o.route.history_increment += 0.1;
        }),
        m("route.layers", &|o| o.route.layers += 1),
        m("tech.r_ohm_per_track", &|o| o.tech.r_ohm_per_track += 0.1),
        m("tech.c_ground_ff_per_track", &|o| {
            o.tech.c_ground_ff_per_track += 0.1;
        }),
        m("tech.c_coupling_ff_per_track", &|o| {
            o.tech.c_coupling_ff_per_track += 0.1;
        }),
        m("tech.coupling_range", &|o| o.tech.coupling_range += 1),
        m("tech.r_via_ohm", &|o| o.tech.r_via_ohm += 0.1),
        m("tech.c_via_ff", &|o| o.tech.c_via_ff += 0.1),
        m("decompose_style", &|o| {
            o.decompose_style = DecomposeStyle::Shielded;
        }),
        m("verify", &|o| o.verify = !o.verify),
        m("bdd_gate_limit", &|o| o.bdd_gate_limit += 1),
    ]
}

/// One mutation per [`SimConfig`] field.
fn sim_config_mutations() -> Vec<(&'static str, SimConfig)> {
    let m = |name: &'static str, f: &dyn Fn(&mut SimConfig)| {
        let mut c = SimConfig::default();
        f(&mut c);
        (name, c)
    };
    vec![
        m("period_ps", &|c| c.period_ps += 1),
        m("samples_per_cycle", &|c| c.samples_per_cycle += 1),
        m("vdd", &|c| c.vdd += 0.1),
        m("clk2q_ps", &|c| c.clk2q_ps += 1),
        m("input_delay_ps", &|c| c.input_delay_ps += 1),
        m("crosstalk_window_ps", &|c| c.crosstalk_window_ps += 1),
        m("noise_sigma", &|c| c.noise_sigma += 0.1),
        m("noise_seed", &|c| c.noise_seed += 1),
        m("precharge_fraction", &|c| c.precharge_fraction += 0.05),
    ]
}

#[test]
fn every_flow_option_field_changes_the_key() {
    let base = stage_key(
        b"in",
        &flow_options_bytes(&FlowOptions::default()),
        CacheStage::Backend,
    );
    let mut seen = vec![("base", base)];
    for (name, opts) in flow_option_mutations() {
        let key = stage_key(b"in", &flow_options_bytes(&opts), CacheStage::Backend);
        for (other, prior) in &seen {
            assert_ne!(
                key, *prior,
                "mutating `{name}` collides with `{other}` — the cache \
                 would serve a stale artifact"
            );
        }
        seen.push((name, key));
    }
}

#[test]
fn every_sim_config_field_changes_the_key() {
    let base = stage_key(
        b"in",
        &sim_config_bytes(&SimConfig::default()),
        CacheStage::Traces,
    );
    let mut seen = vec![("base", base)];
    for (name, cfg) in sim_config_mutations() {
        let key = stage_key(b"in", &sim_config_bytes(&cfg), CacheStage::Traces);
        for (other, prior) in &seen {
            assert_ne!(key, *prior, "mutating `{name}` collides with `{other}`");
        }
        seen.push((name, key));
    }
}

#[test]
fn one_byte_input_edits_change_the_key() {
    let opts = flow_options_bytes(&FlowOptions::default());
    let netlist = b"module m(a, y); inv u1 (.a(a), .y(y)); endmodule";
    let base = stage_key(netlist, &opts, CacheStage::Parse);
    for i in 0..netlist.len() {
        let mut edited = netlist.to_vec();
        edited[i] ^= 1;
        assert_ne!(
            stage_key(&edited, &opts, CacheStage::Parse),
            base,
            "flipping byte {i} did not change the key"
        );
    }
}

#[test]
fn keys_are_invariant_across_thread_counts() {
    // The key is a pure function of its inputs — no global state, no
    // pointer identity, no thread-local anything. Derive it under
    // different worker pools and in spawned threads; all must agree.
    let derive = || {
        stage_key(
            b"builtin:des_dpa",
            &flow_options_bytes(&FlowOptions::default()),
            CacheStage::Map,
        )
    };
    let base = derive();
    for threads in [1usize, 4] {
        let key = secflow::exec::with_threads(threads, derive);
        assert_eq!(key, base, "key drifted at {threads} threads");
    }
    let spawned = std::thread::spawn(derive).join().expect("thread");
    assert_eq!(spawned, base);
}

#[test]
fn golden_pinned_hashes() {
    // Frozen canonical-encoding fingerprints. If one of these
    // assertions fails, the encoding changed: every cache entry
    // persisted by an older build is now unreachable (or worse,
    // aliased). That can be a deliberate choice — then re-pin these
    // constants in the same commit — but never an accident.
    let opts = flow_options_bytes(&FlowOptions::default());
    assert_eq!(
        stage_key(b"builtin:des_dpa", &opts, CacheStage::Map).to_hex(),
        "35509198fa820ebee60c868f2372a6e6",
    );
    assert_eq!(
        stage_key(b"builtin:des_dpa/secure", &opts, CacheStage::Backend).to_hex(),
        "b56924e28d9f307a456a30d687d066b9",
    );
    let cfg = sim_config_bytes(&SimConfig::default());
    assert_eq!(
        stage_key(b"builtin:des_dpa/regular", &cfg, CacheStage::Traces).to_hex(),
        "1e9144c72155f4f5cfb5d0dd5aab33a5",
    );
    // And the raw SipHash-2-4 lanes under the empty message: pins the
    // hash function itself, independent of the encodings above.
    assert_eq!(
        secflow::serve::ContentHash::of(b"").to_hex(),
        "c04490a8ba982b3577a79a85d26efe07"
    );
}
