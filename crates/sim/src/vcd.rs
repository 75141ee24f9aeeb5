//! VCD (Value Change Dump) waveform export.
//!
//! Enable [`crate::SimConfig::record_waveform`] on a simulation and
//! feed the resulting [`crate::SimResult::waveform`] to [`write_vcd`]
//! to inspect any run in a standard waveform viewer — the digital
//! equivalent of probing the Hspice transient the paper works with.

use std::fmt::Write as _;

use secflow_netlist::{NetId, Netlist};

/// VCD identifier for wire number `i`: a short printable-ASCII code.
fn ident(mut i: usize) -> String {
    // Base-94 over '!'..='~'.
    let mut s = String::new();
    loop {
        s.push(char::from(b'!' + (i % 94) as u8));
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Serializes a transition log as a VCD document.
///
/// `waveform` entries are `(time_ps, net, value)` and must be sorted by
/// time (simulation output already is). All nets of `nl` are declared;
/// nets without transitions stay at `0`.
pub fn write_vcd(nl: &Netlist, waveform: &[(u64, NetId, bool)], module: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "$date secflow simulation $end");
    let _ = writeln!(s, "$timescale 1ps $end");
    let _ = writeln!(s, "$scope module {module} $end");
    for id in nl.net_ids() {
        let net = nl.net(id);
        // Skip completely unused nets.
        if net.driver.is_none() && net.sinks.is_empty() && !nl.inputs().contains(&id) {
            continue;
        }
        let _ = writeln!(
            s,
            "$var wire 1 {} {} $end",
            ident(id.index()),
            sanitize(&net.name)
        );
    }
    let _ = writeln!(s, "$upscope $end");
    let _ = writeln!(s, "$enddefinitions $end");
    let _ = writeln!(s, "#0");
    let _ = writeln!(s, "$dumpvars");
    for id in nl.net_ids() {
        let net = nl.net(id);
        if net.driver.is_none() && net.sinks.is_empty() && !nl.inputs().contains(&id) {
            continue;
        }
        let _ = writeln!(s, "0{}", ident(id.index()));
    }
    let _ = writeln!(s, "$end");

    let mut last_time = 0u64;
    for &(t, net, v) in waveform {
        if t != last_time {
            let _ = writeln!(s, "#{t}");
            last_time = t;
        }
        let _ = writeln!(s, "{}{}", u8::from(v), ident(net.index()));
    }
    s
}

/// VCD reference names must not contain whitespace; bracketed bus bits
/// are kept (standard), everything else odd is replaced.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '[' | ']' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, CycleDriver, SimConfig};
    use secflow_cells::Library;
    use secflow_netlist::GateKind;

    #[test]
    fn ident_is_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let id = ident(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn vcd_contains_declarations_and_changes() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let lib = Library::lib180();
        let cfg = SimConfig {
            samples_per_cycle: 20,
            record_waveform: true,
            ..Default::default()
        };
        let r = simulate(
            &nl,
            &lib,
            None,
            &cfg,
            CycleDriver::SingleEnded,
            &[vec![true], vec![false]],
        )
        .unwrap();
        assert!(!r.waveform.is_empty());
        let vcd = write_vcd(&nl, &r.waveform, "t");
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains(" a $end"));
        assert!(vcd.contains("$enddefinitions"));
        // `a` rises at t=100 (input delay).
        assert!(vcd.contains("#100"));
    }

    #[test]
    fn waveform_disabled_by_default() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let lib = Library::lib180();
        let cfg = SimConfig {
            samples_per_cycle: 20,
            ..Default::default()
        };
        let r = simulate(
            &nl,
            &lib,
            None,
            &cfg,
            CycleDriver::SingleEnded,
            &[vec![true]],
        )
        .unwrap();
        assert!(r.waveform.is_empty());
    }

    #[test]
    fn sanitize_keeps_bus_brackets() {
        assert_eq!(sanitize("pl[3]"), "pl[3]");
        assert_eq!(sanitize("a b"), "a_b");
    }
}
