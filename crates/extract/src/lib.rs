//! Parasitic extraction: per-net resistance, ground capacitance and
//! same-layer coupling capacitance from routed geometry.
//!
//! This crate stands in for the layout extractor (Virtuoso) in the
//! paper's flow. The models are deliberately simple but preserve what
//! the security argument depends on:
//!
//! * wire R and C grow linearly with routed length,
//! * **coupling capacitance between parallel same-layer wires decays
//!   with track distance** — so two differential wires routed in
//!   adjacent tracks see (a) essentially the same environment and (b)
//!   mutual coupling that affects both rails symmetrically,
//! * vias contribute fixed R and C.
//!
//! [`extract`] produces [`Parasitics`]; [`pair_mismatch`] computes the
//! differential-pair capacitance mismatch report that quantifies how
//! well the paper's fat-wire decomposition balances the two rails.
//!
//! # Example
//!
//! ```
//! use secflow_extract::Technology;
//!
//! let tech = Technology::default();
//! assert!(tech.c_ground_ff_per_track > 0.0);
//! ```

use std::collections::BTreeMap;

use secflow_exec::{par_map, tree_sum};
use secflow_netlist::{NetId, Netlist};
use secflow_pnr::{is_horizontal, RoutedDesign};

/// Extraction technology constants. Units: Ω, fF, routing tracks
/// (one track = [`secflow_cells::TRACK_UM`] µm).
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Wire resistance per track of length.
    pub r_ohm_per_track: f64,
    /// Wire capacitance to the substrate (area + fringe) per track.
    pub c_ground_ff_per_track: f64,
    /// Coupling capacitance per track of overlap between parallel
    /// wires one track apart; falls off as `1/d` for distance `d`.
    pub c_coupling_ff_per_track: f64,
    /// Maximum coupling distance considered, in tracks.
    pub coupling_range: i32,
    /// Via resistance.
    pub r_via_ohm: f64,
    /// Via capacitance.
    pub c_via_ff: f64,
}

impl Default for Technology {
    fn default() -> Self {
        Technology {
            r_ohm_per_track: 0.25,
            c_ground_ff_per_track: 0.13,
            c_coupling_ff_per_track: 0.09,
            coupling_range: 3,
            r_via_ohm: 2.0,
            c_via_ff: 0.3,
        }
    }
}

impl Technology {
    /// Coupling capacitance per track of overlap at `d` tracks of
    /// separation (0 for `d` out of range).
    pub fn coupling_at(&self, d: i32) -> f64 {
        if d >= 1 && d <= self.coupling_range {
            self.c_coupling_ff_per_track / f64::from(d)
        } else {
            0.0
        }
    }
}

/// Extracted parasitics of one net.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetParasitics {
    /// Total wire + via resistance in Ω.
    pub r_ohm: f64,
    /// Capacitance to ground in fF (wire + vias; pin caps are added by
    /// the simulator from the cell library).
    pub c_ground_ff: f64,
    /// Coupling capacitances to neighbouring nets: `(other, fF)`.
    pub couplings: Vec<(NetId, f64)>,
}

impl NetParasitics {
    /// Total capacitance seen by a switching driver: ground plus all
    /// coupling capacitance (worst-case quiet neighbours).
    pub fn total_cap_ff(&self) -> f64 {
        self.c_ground_ff + self.couplings.iter().map(|&(_, c)| c).sum::<f64>()
    }
}

/// Extracted parasitics for a whole design, indexed by [`NetId`].
#[derive(Debug, Clone, Default)]
pub struct Parasitics {
    /// Per-net records (nets without routed geometry have zeroes).
    pub nets: Vec<NetParasitics>,
}

impl Parasitics {
    /// The record for `net`.
    pub fn net(&self, net: NetId) -> &NetParasitics {
        &self.nets[net.index()]
    }

    /// Total wire capacitance of the design in fF.
    pub fn total_wire_cap_ff(&self) -> f64 {
        self.nets.iter().map(|n| n.c_ground_ff).sum()
    }
}

/// A straight wire span used for coupling detection:
/// `(net, fixed coordinate, span start, span end)` per layer
/// orientation.
type Span = (NetId, i32, i32, i32);

/// Extraction failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// A technology constant is NaN, infinite or negative.
    BadTechnology {
        /// Name of the offending parameter.
        param: &'static str,
        /// Its value.
        value: f64,
    },
    /// A routed net's id does not exist in the netlist.
    UnknownNet {
        /// The out-of-range net index.
        index: usize,
        /// Number of nets in the netlist.
        net_count: usize,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::BadTechnology { param, value } => {
                write!(f, "technology parameter `{param}` has invalid value {value}")
            }
            ExtractError::UnknownNet { index, net_count } => {
                write!(
                    f,
                    "routed net index {index} out of range (netlist has {net_count} nets)"
                )
            }
        }
    }
}

impl std::error::Error for ExtractError {}

impl Technology {
    /// Validates that every constant is finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`ExtractError::BadTechnology`] naming the first bad
    /// parameter.
    pub fn validate(&self) -> Result<(), ExtractError> {
        let params: [(&'static str, f64); 5] = [
            ("r_ohm_per_track", self.r_ohm_per_track),
            ("c_ground_ff_per_track", self.c_ground_ff_per_track),
            ("c_coupling_ff_per_track", self.c_coupling_ff_per_track),
            ("r_via_ohm", self.r_via_ohm),
            ("c_via_ff", self.c_via_ff),
        ];
        for (param, value) in params {
            if !value.is_finite() || value < 0.0 {
                return Err(ExtractError::BadTechnology { param, value });
            }
        }
        Ok(())
    }
}

/// Validating wrapper around [`extract`]: rejects NaN/negative
/// technology constants and routed nets that do not exist in `nl`
/// before running the extraction itself.
///
/// # Errors
///
/// Returns [`ExtractError`] on a bad technology parameter or a routed
/// net id out of range.
pub fn try_extract(
    design: &RoutedDesign,
    nl: &Netlist,
    tech: &Technology,
) -> Result<Parasitics, ExtractError> {
    tech.validate()?;
    for rn in &design.nets {
        if rn.net.index() >= nl.net_count() {
            return Err(ExtractError::UnknownNet {
                index: rn.net.index(),
                net_count: nl.net_count(),
            });
        }
    }
    Ok(extract(design, nl, tech))
}

/// Extracts parasitics from a routed design.
///
/// Lengths are converted to physical tracks using the design's
/// [`secflow_pnr::GridPitch`], so fat (double-pitch) designs extract
/// with their true physical dimensions.
pub fn extract(design: &RoutedDesign, nl: &Netlist, tech: &Technology) -> Parasitics {
    let scale = f64::from(design.placed.pitch.tracks());
    let mut nets = vec![NetParasitics::default(); nl.net_count()];

    // R and ground C: one parallel task per routed net, partial sums
    // merged in input order so the accumulation is thread-count
    // independent.
    let rc: Vec<(f64, f64)> = par_map(&design.nets, |rn| {
        let (mut r, mut c) = (0.0f64, 0.0f64);
        for s in &rn.segments {
            if s.is_via() {
                r += tech.r_via_ohm;
                c += tech.c_via_ff;
            } else {
                let len = f64::from(s.len()) * scale;
                r += len * tech.r_ohm_per_track;
                c += len * tech.c_ground_ff_per_track;
            }
        }
        (r, c)
    });
    for (rn, (r, c)) in design.nets.iter().zip(rc) {
        let p = &mut nets[rn.net.index()];
        p.r_ohm += r;
        p.c_ground_ff += c;
    }

    // Coupling: same-layer parallel overlap. Horizontal wires couple
    // across y; vertical wires across x. Ordered maps everywhere:
    // per-pair capacitance is a sum of f64 contributions, so the
    // iteration (= accumulation) order must not depend on hashing.
    let mut spans_by_layer: BTreeMap<u8, Vec<Span>> = BTreeMap::new();
    for rn in &design.nets {
        for s in &rn.segments {
            if s.is_via() {
                continue;
            }
            let span = if is_horizontal(s.a.layer) {
                let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                (rn.net, s.a.y, x0, x1)
            } else {
                let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                (rn.net, s.a.x, y0, y1)
            };
            spans_by_layer.entry(s.a.layer).or_default().push(span);
        }
    }
    let mut pair_caps: BTreeMap<(NetId, NetId), Vec<f64>> = BTreeMap::new();
    for spans in spans_by_layer.values() {
        couple_spans(spans, tech, scale, &mut pair_caps);
    }
    for (&(a, b), caps) in &pair_caps {
        // Fixed-shape reduction: the pair's total is one specific f64
        // for a given contribution list, at any thread count.
        let c = tree_sum(caps);
        nets[a.index()].couplings.push((b, c));
        nets[b.index()].couplings.push((a, c));
    }
    for n in &mut nets {
        n.couplings.sort_by_key(|&(id, _)| id);
    }

    secflow_obs::add(secflow_obs::Counter::ExtractNets, design.nets.len() as u64);
    secflow_obs::add(secflow_obs::Counter::ExtractCouplings, pair_caps.len() as u64);

    Parasitics { nets }
}

/// Collects coupling contributions between parallel spans on one
/// orientation, keyed by ordered net pair. Parallel over occupied
/// coordinates; each coordinate's contributions are generated in scan
/// order and merged in coordinate order.
fn couple_spans(
    spans: &[Span],
    tech: &Technology,
    scale: f64,
    pair_caps: &mut BTreeMap<(NetId, NetId), Vec<f64>>,
) {
    // Bucket spans by their fixed coordinate.
    let mut by_coord: BTreeMap<i32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_coord.entry(s.1).or_default().push(s);
    }
    let coords: Vec<i32> = by_coord.keys().copied().collect();
    let contribs: Vec<Vec<((NetId, NetId), f64)>> = par_map(&coords, |&c0| {
        let list = &by_coord[&c0];
        let mut out = Vec::new();
        for d in 1..=tech.coupling_range {
            let Some(other) = by_coord.get(&(c0 + d)) else {
                continue;
            };
            for &&(na, _, a0, a1) in list {
                for &&(nb, _, b0, b1) in other {
                    if na == nb {
                        continue;
                    }
                    let overlap = a1.min(b1) - a0.max(b0);
                    if overlap <= 0 {
                        continue;
                    }
                    let cap = f64::from(overlap) * scale * tech.coupling_at(d);
                    let key = if na < nb { (na, nb) } else { (nb, na) };
                    out.push((key, cap));
                }
            }
        }
        out
    });
    for list in contribs {
        for (key, cap) in list {
            pair_caps.entry(key).or_default().push(cap);
        }
    }
}

/// Capacitance-mismatch report for one differential pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMismatch {
    /// True-rail net.
    pub net_t: NetId,
    /// False-rail net.
    pub net_f: NetId,
    /// Total cap of the true rail in fF.
    pub cap_t_ff: f64,
    /// Total cap of the false rail in fF.
    pub cap_f_ff: f64,
    /// Relative mismatch `|Ct − Cf| / ((Ct + Cf)/2)` (0 when both are
    /// zero).
    pub relative: f64,
}

/// Computes the capacitance mismatch of each differential pair — the
/// quantity the paper's differential-pair routing minimizes. The
/// mutual coupling between the two rails of a pair is excluded (it
/// loads both rails identically by symmetry).
pub fn pair_mismatch(parasitics: &Parasitics, pairs: &[(NetId, NetId)]) -> Vec<PairMismatch> {
    pairs
        .iter()
        .map(|&(t, f)| {
            let cap = |a: NetId, b: NetId| {
                let p = parasitics.net(a);
                p.c_ground_ff
                    + p.couplings
                        .iter()
                        .filter(|&&(o, _)| o != b)
                        .map(|&(_, c)| c)
                        .sum::<f64>()
            };
            let ct = cap(t, f);
            let cf = cap(f, t);
            let mean = (ct + cf) / 2.0;
            PairMismatch {
                net_t: t,
                net_f: f,
                cap_t_ff: ct,
                cap_f_ff: cf,
                relative: if mean > 0.0 {
                    (ct - cf).abs() / mean
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;
    use secflow_pnr::{
        GridPitch, PlacedCell, PlacedDesign, Point, RoutedNet, Segment, LAYER_H, LAYER_V,
    };

    fn netlist_with_nets(n: usize) -> Netlist {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        for i in 0..n {
            let y = nl.add_net(format!("n{i}"));
            nl.add_gate(format!("g{i}"), "BUF", GateKind::Comb, vec![a], vec![y]);
        }
        nl
    }

    fn design_with(nl: &Netlist, nets: Vec<RoutedNet>, pitch: GridPitch) -> RoutedDesign {
        RoutedDesign {
            placed: PlacedDesign {
                name: "x".into(),
                width: 100,
                height: 100,
                row_height: 8,
                pitch,
                cells: vec![PlacedCell { x: 0, row: 0 }; nl.gate_count()],
                input_pads: vec![],
                output_pads: vec![],
            },
            nets,
        }
    }

    fn hseg(y: i32, x0: i32, x1: i32) -> Segment {
        Segment::new(Point::new(LAYER_H, x0, y), Point::new(LAYER_H, x1, y))
    }

    #[test]
    fn rc_scales_with_length() {
        let nl = netlist_with_nets(2);
        let n0 = nl.net_by_name("n0").unwrap();
        let n1 = nl.net_by_name("n1").unwrap();
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: n0,
                    segments: vec![hseg(0, 0, 10)],
                },
                RoutedNet {
                    net: n1,
                    segments: vec![hseg(20, 0, 30)],
                },
            ],
            GridPitch::Normal,
        );
        let tech = Technology::default();
        let p = extract(&d, &nl, &tech);
        let r0 = p.net(n0).r_ohm;
        let r1 = p.net(n1).r_ohm;
        assert!((r1 / r0 - 3.0).abs() < 1e-9);
        assert!((p.net(n1).c_ground_ff / p.net(n0).c_ground_ff - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fat_pitch_doubles_length() {
        let nl = netlist_with_nets(1);
        let n0 = nl.net_by_name("n0").unwrap();
        let mk = |pitch| {
            design_with(
                &nl,
                vec![RoutedNet {
                    net: n0,
                    segments: vec![hseg(0, 0, 10)],
                }],
                pitch,
            )
        };
        let tech = Technology::default();
        let normal = extract(&mk(GridPitch::Normal), &nl, &tech);
        let fat = extract(&mk(GridPitch::Fat), &nl, &tech);
        assert!((fat.net(n0).r_ohm / normal.net(n0).r_ohm - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_wires_couple_with_overlap() {
        let nl = netlist_with_nets(2);
        let n0 = nl.net_by_name("n0").unwrap();
        let n1 = nl.net_by_name("n1").unwrap();
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: n0,
                    segments: vec![hseg(5, 0, 20)],
                },
                RoutedNet {
                    net: n1,
                    segments: vec![hseg(6, 10, 30)],
                },
            ],
            GridPitch::Normal,
        );
        let tech = Technology::default();
        let p = extract(&d, &nl, &tech);
        let c01 = p
            .net(n0)
            .couplings
            .iter()
            .find(|&&(o, _)| o == n1)
            .map(|&(_, c)| c)
            .unwrap();
        // Overlap is x 10..20 = 10 tracks at distance 1.
        assert!((c01 - 10.0 * tech.c_coupling_ff_per_track).abs() < 1e-9);
        // Symmetric.
        let c10 = p
            .net(n1)
            .couplings
            .iter()
            .find(|&&(o, _)| o == n0)
            .map(|&(_, c)| c)
            .unwrap();
        assert!((c01 - c10).abs() < 1e-12);
    }

    #[test]
    fn coupling_decays_with_distance() {
        let tech = Technology::default();
        assert!(tech.coupling_at(1) > tech.coupling_at(2));
        assert!(tech.coupling_at(2) > tech.coupling_at(3));
        assert_eq!(tech.coupling_at(4), 0.0);
        assert_eq!(tech.coupling_at(0), 0.0);
    }

    #[test]
    fn vertical_wires_couple_too() {
        let nl = netlist_with_nets(2);
        let n0 = nl.net_by_name("n0").unwrap();
        let n1 = nl.net_by_name("n1").unwrap();
        let vseg = |x: i32, y0: i32, y1: i32| {
            Segment::new(Point::new(LAYER_V, x, y0), Point::new(LAYER_V, x, y1))
        };
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: n0,
                    segments: vec![vseg(5, 0, 8)],
                },
                RoutedNet {
                    net: n1,
                    segments: vec![vseg(6, 0, 8)],
                },
            ],
            GridPitch::Normal,
        );
        let p = extract(&d, &nl, &Technology::default());
        assert_eq!(p.net(n0).couplings.len(), 1);
    }

    #[test]
    fn different_layers_do_not_couple() {
        let nl = netlist_with_nets(2);
        let n0 = nl.net_by_name("n0").unwrap();
        let n1 = nl.net_by_name("n1").unwrap();
        let vseg = Segment::new(Point::new(LAYER_V, 5, 0), Point::new(LAYER_V, 5, 20));
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: n0,
                    segments: vec![hseg(6, 0, 20)],
                },
                RoutedNet {
                    net: n1,
                    segments: vec![vseg],
                },
            ],
            GridPitch::Normal,
        );
        let p = extract(&d, &nl, &Technology::default());
        assert!(p.net(n0).couplings.is_empty());
    }

    #[test]
    fn parallel_pair_has_zero_mismatch() {
        // Two identical parallel wires, translated by one track — the
        // decomposition result. Their caps must match exactly.
        let nl = netlist_with_nets(2);
        let t = nl.net_by_name("n0").unwrap();
        let f = nl.net_by_name("n1").unwrap();
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: t,
                    segments: vec![hseg(10, 0, 40)],
                },
                RoutedNet {
                    net: f,
                    segments: vec![hseg(11, 1, 41)],
                },
            ],
            GridPitch::Normal,
        );
        let p = extract(&d, &nl, &Technology::default());
        let reports = pair_mismatch(&p, &[(t, f)]);
        assert!(
            reports[0].relative < 1e-9,
            "mismatch {}",
            reports[0].relative
        );
    }

    #[test]
    fn diverging_pair_has_mismatch() {
        let nl = netlist_with_nets(2);
        let t = nl.net_by_name("n0").unwrap();
        let f = nl.net_by_name("n1").unwrap();
        let d = design_with(
            &nl,
            vec![
                RoutedNet {
                    net: t,
                    segments: vec![hseg(10, 0, 40)],
                },
                RoutedNet {
                    net: f,
                    segments: vec![hseg(50, 0, 25)],
                },
            ],
            GridPitch::Normal,
        );
        let p = extract(&d, &nl, &Technology::default());
        let reports = pair_mismatch(&p, &[(t, f)]);
        assert!(reports[0].relative > 0.3);
    }

    #[test]
    fn total_cap_includes_couplings() {
        let p = NetParasitics {
            r_ohm: 1.0,
            c_ground_ff: 2.0,
            couplings: vec![(NetId(7), 0.5), (NetId(9), 0.25)],
        };
        assert!((p.total_cap_ff() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn try_extract_rejects_nan_technology() {
        let nl = netlist_with_nets(1);
        let d = design_with(&nl, vec![], GridPitch::Normal);
        let tech = Technology {
            c_ground_ff_per_track: f64::NAN,
            ..Technology::default()
        };
        let err = try_extract(&d, &nl, &tech).unwrap_err();
        assert!(matches!(
            err,
            ExtractError::BadTechnology {
                param: "c_ground_ff_per_track",
                ..
            }
        ));
    }

    #[test]
    fn try_extract_rejects_negative_technology() {
        let nl = netlist_with_nets(1);
        let d = design_with(&nl, vec![], GridPitch::Normal);
        let tech = Technology {
            r_via_ohm: -2.0,
            ..Technology::default()
        };
        let err = try_extract(&d, &nl, &tech).unwrap_err();
        assert!(matches!(
            err,
            ExtractError::BadTechnology {
                param: "r_via_ohm",
                ..
            }
        ));
    }

    #[test]
    fn try_extract_rejects_foreign_net_id() {
        let nl = netlist_with_nets(1);
        let foreign = NetId(99);
        let d = design_with(
            &nl,
            vec![RoutedNet {
                net: foreign,
                segments: vec![hseg(2, 0, 5)],
            }],
            GridPitch::Normal,
        );
        let err = try_extract(&d, &nl, &Technology::default()).unwrap_err();
        assert!(matches!(err, ExtractError::UnknownNet { index: 99, .. }));
    }

    #[test]
    fn try_extract_matches_extract_on_valid_input() {
        let nl = netlist_with_nets(2);
        let n0 = nl.net_by_name("n0").unwrap();
        let d = design_with(
            &nl,
            vec![RoutedNet {
                net: n0,
                segments: vec![hseg(2, 0, 8)],
            }],
            GridPitch::Normal,
        );
        let a = try_extract(&d, &nl, &Technology::default()).unwrap();
        let b = extract(&d, &nl, &Technology::default());
        assert_eq!(a.nets, b.nets);
    }
}
