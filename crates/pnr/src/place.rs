//! Row-based placement: connectivity-ordered initial placement refined
//! by simulated annealing on half-perimeter wirelength.

use std::fmt;

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_cells::{LefMacro, Library, ROW_TRACKS};
use secflow_netlist::{GateId, NetId, Netlist};

use crate::design::{box_hpwl, PlacedCell, PlacedDesign};
use crate::floorplan::Floorplan;
use crate::grid::GridPitch;

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// A gate references a cell that the library does not provide.
    UnknownCell {
        /// Instance name of the offending gate.
        gate: String,
        /// The unresolvable cell name.
        cell: String,
    },
    /// Placement options are degenerate (fill factor outside `(0, 1]`,
    /// non-positive aspect ratio, or more annealing moves than a `usize`
    /// counts).
    InvalidOptions {
        /// Human-readable description of the bad option.
        detail: String,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            PlaceError::InvalidOptions { detail } => {
                write!(f, "invalid placement options: {detail}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Placement configuration.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// Fraction of row area occupied by cells (paper: 0.8).
    pub fill_factor: f64,
    /// Die width / height (paper: 1.0).
    pub aspect_ratio: f64,
    /// Simulated-annealing moves per gate (0 disables refinement).
    pub anneal_moves_per_gate: usize,
    /// RNG seed for the annealer.
    pub seed: u64,
    /// Grid pitch recorded in the output (placement itself is
    /// pitch-agnostic).
    pub pitch: GridPitch,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            fill_factor: 0.8,
            aspect_ratio: 1.0,
            anneal_moves_per_gate: 200,
            seed: 1,
            pitch: GridPitch::Normal,
        }
    }
}

/// Resolves every gate's cell against `lib` once, returning the cell
/// macro per gate (indexed by [`GateId`]).
fn gate_macros<'l>(nl: &Netlist, lib: &'l Library) -> Result<Vec<&'l LefMacro>, PlaceError> {
    nl.gates()
        .iter()
        .map(|g| match lib.by_name(&g.cell) {
            Some(cell) => Ok(cell.physical()),
            None => Err(PlaceError::UnknownCell {
                gate: g.name.clone(),
                cell: g.cell.clone(),
            }),
        })
        .collect()
}

/// Checks `opts` for a netlist of `gates` gates and returns its
/// annealing move count.
fn check_options(opts: &PlaceOptions, gates: usize) -> Result<usize, PlaceError> {
    if !(opts.fill_factor > 0.0 && opts.fill_factor <= 1.0) {
        return Err(PlaceError::InvalidOptions {
            detail: format!("fill factor {} not in (0, 1]", opts.fill_factor),
        });
    }
    if !(opts.aspect_ratio > 0.0) {
        return Err(PlaceError::InvalidOptions {
            detail: format!("aspect ratio {} not positive", opts.aspect_ratio),
        });
    }
    let per_gate = opts.anneal_moves_per_gate;
    per_gate
        .checked_mul(gates)
        .ok_or_else(|| PlaceError::InvalidOptions {
            detail: format!("{per_gate} annealing moves per gate overflow at {gates} gates"),
        })
}

/// Per-row cell sequences plus derived x coordinates.
struct RowState {
    rows: Vec<Vec<GateId>>,
    /// The summed cell width of each row.
    widths: Vec<u32>,
    cap: u32,
}

impl RowState {
    fn repack(&self, gw: &[u32], out: &mut [PlacedCell]) {
        for r in 0..self.rows.len() {
            self.repack_row(gw, r, out, |_, _| {});
        }
    }

    /// Spreads row `r`'s whitespace evenly between its cells, calling
    /// `moved` with every cell whose [`PlacedCell`] changes and its
    /// previous position.
    fn repack_row(
        &self,
        gw: &[u32],
        r: usize,
        out: &mut [PlacedCell],
        mut moved: impl FnMut(GateId, PlacedCell),
    ) {
        let row = &self.rows[r];
        let slack = self.cap.saturating_sub(self.widths[r]);
        let gap = if row.is_empty() {
            0
        } else {
            slack / (row.len() as u32 + 1)
        };
        let mut x = gap as i32;
        for &g in row {
            let cell = PlacedCell { x, row: r as u32 };
            let old = std::mem::replace(&mut out[g.index()], cell);
            if old != cell {
                moved(g, old);
            }
            x += gw[g.index()] as i32 + gap as i32;
        }
    }

    /// Moves `w` tracks of cell width from row `from` to row `to`.
    fn shift_width(&mut self, w: u32, from: usize, to: usize) {
        self.widths[from] -= w;
        self.widths[to] += w;
    }
}

/// Places `nl` on a freshly sized floorplan.
///
/// The initial placement packs gates into rows in topological order
/// (a cheap proxy for connectivity locality), then simulated annealing
/// swaps and relocates cells to reduce total HPWL. Deterministic for a
/// fixed seed.
///
/// # Errors
///
/// Returns [`PlaceError::UnknownCell`] if a gate references a cell
/// missing from `lib`, or [`PlaceError::InvalidOptions`] on degenerate
/// fill factor / aspect ratio or an annealing move count
/// (`anneal_moves_per_gate` × gates) that overflows.
pub fn place(nl: &Netlist, lib: &Library, opts: &PlaceOptions) -> Result<PlacedDesign, PlaceError> {
    let moves = check_options(opts, nl.gate_count())?;
    let macros = gate_macros(nl, lib)?;
    let gw: Vec<u32> = macros.iter().map(|m| m.width_tracks).collect();
    let total_width: u64 = gw.iter().map(|&w| u64::from(w)).sum();
    let mut fp = Floorplan::size_for_width(total_width, opts.fill_factor, opts.aspect_ratio);
    // Each die edge offers one pad slot per track except row centers;
    // grow the die until every primary input/output gets a pad.
    let n_pads = nl.inputs().len().max(nl.outputs().len()) as u32;
    while fp.rows * (ROW_TRACKS - 1) < n_pads {
        fp.rows += 1;
    }
    let order = secflow_netlist::topo_order(nl).unwrap_or_else(|| nl.gate_ids().collect());

    // Initial serpentine fill.
    let mut rows: Vec<Vec<GateId>> = vec![Vec::new(); fp.rows as usize];
    let mut widths = vec![0u32; fp.rows as usize];
    let cap = fp.width_tracks;
    let mut r = 0usize;
    for g in order {
        let w = gw[g.index()];
        let mut tries = 0;
        while widths[r] + w > cap && tries < rows.len() {
            r = (r + 1) % rows.len();
            tries += 1;
        }
        // If every row is nominally full, spill into the least-used
        // row (the floorplan has slack, so this stays rare).
        if widths[r] + w > cap {
            let mut least = 0usize;
            for i in 1..rows.len() {
                if widths[i] < widths[least] {
                    least = i;
                }
            }
            r = least;
        }
        rows[r].push(g);
        widths[r] += w;
    }

    let state = RowState { rows, widths, cap };
    let height = fp.height_tracks() as i32;
    let pad_slots: Vec<i32> = (0..height)
        .filter(|y| y % ROW_TRACKS as i32 != ROW_TRACKS as i32 / 2)
        .collect();
    let spread = |nets: &[NetId]| -> Vec<(NetId, i32)> {
        nets.iter()
            .enumerate()
            .map(|(i, &n)| (n, pad_slots[i * pad_slots.len() / nets.len().max(1)]))
            .collect()
    };
    let mut design = PlacedDesign {
        name: nl.name.clone(),
        width: fp.width_tracks as i32,
        height,
        row_height: ROW_TRACKS as i32,
        pitch: opts.pitch,
        cells: vec![PlacedCell { x: 0, row: 0 }; nl.gate_count()],
        input_pads: spread(nl.inputs()),
        output_pads: spread(nl.outputs()),
    };
    let mut state = state;
    state.repack(&gw, &mut design.cells);

    if moves > 0 && nl.gate_count() > 1 {
        let pins = PinArrays::new(nl, &macros, &design);
        anneal(
            nl,
            lib,
            &pins,
            &gw,
            &mut state,
            &mut design,
            opts.seed,
            moves,
        );
    }
    Ok(design)
}

/// The netlist's connectivity as flat arrays, resolved once per
/// [`place`] so that an annealing move reads no cell library, hash map
/// or pad list.
struct PinArrays {
    /// `net_pins[net_start[n]..net_start[n + 1]]` are net `n`'s gate
    /// pins as `(gate index, x offset within the cell)`.
    net_start: Vec<u32>,
    net_pins: Vec<(u32, i32)>,
    /// Bounding box `[x0, x1, y0, y1]` of net `n`'s pad points, empty
    /// (`[MAX, MIN, MAX, MIN]`) for nets without pads.
    pad_box: Vec<[i32; 4]>,
    /// `gate_nets[gate_start[g]..gate_start[g + 1]]` are the nets on
    /// gate `g`'s inputs then outputs.
    gate_start: Vec<u32>,
    gate_nets: Vec<u32>,
    row_height: i32,
}

impl PinArrays {
    /// Mirrors [`PlacedDesign::net_pins`]: the driver pin or else the
    /// input pad, then the sinks, then the output pad.
    fn new(nl: &Netlist, macros: &[&LefMacro], design: &PlacedDesign) -> Self {
        let first_pad_y = |pads: &[(NetId, i32)]| {
            let mut y: Vec<Option<i32>> = vec![None; nl.net_count()];
            for &(n, py) in pads.iter().rev() {
                y[n.index()] = Some(py);
            }
            y
        };
        let in_pad = first_pad_y(&design.input_pads);
        let out_pad = first_pad_y(&design.output_pads);

        let mut arrays = PinArrays {
            net_start: Vec::with_capacity(nl.net_count() + 1),
            net_pins: Vec::new(),
            pad_box: Vec::with_capacity(nl.net_count()),
            gate_start: Vec::with_capacity(nl.gate_count() + 1),
            gate_nets: Vec::new(),
            row_height: design.row_height,
        };
        arrays.net_start.push(0);
        for (i, net) in nl.nets().iter().enumerate() {
            let driver = net.driver.map(|d| {
                let mac = macros[d.gate.index()];
                (d.gate.0, mac.output_pin_tracks[d.pin as usize] as i32)
            });
            let sinks = net.sinks.iter().map(|s| {
                let mac = macros[s.gate.index()];
                (s.gate.0, mac.input_pin_tracks[s.pin as usize] as i32)
            });
            arrays.net_pins.extend(driver.into_iter().chain(sinks));
            // A primary input without a driver enters at its pad.
            let in_pt = in_pad[i].filter(|_| net.driver.is_none()).map(|y| (0, y));
            let out_pt = out_pad[i].map(|y| (design.width - 1, y));
            let mut bbox = [i32::MAX, i32::MIN, i32::MAX, i32::MIN];
            for (x, y) in in_pt.into_iter().chain(out_pt) {
                bbox = [
                    bbox[0].min(x),
                    bbox[1].max(x),
                    bbox[2].min(y),
                    bbox[3].max(y),
                ];
            }
            arrays.pad_box.push(bbox);
            arrays.net_start.push(arrays.net_pins.len() as u32);
        }
        arrays.gate_start.push(0);
        for g in nl.gates() {
            arrays
                .gate_nets
                .extend(g.inputs.iter().chain(&g.outputs).map(|n| n.0));
            arrays.gate_start.push(arrays.gate_nets.len() as u32);
        }
        arrays
    }

    fn gate_nets(&self, g: GateId) -> &[u32] {
        let i = g.index();
        &self.gate_nets[self.gate_start[i] as usize..self.gate_start[i + 1] as usize]
    }

    /// Half-perimeter wirelength of net `n` under `cells`; equal to
    /// [`PlacedDesign::net_hpwl`].
    fn hpwl(&self, n: usize, cells: &[PlacedCell]) -> i64 {
        let [mut x0, mut x1, mut y0, mut y1] = self.pad_box[n];
        let pins = &self.net_pins[self.net_start[n] as usize..self.net_start[n + 1] as usize];
        for &(g, off) in pins {
            let c = cells[g as usize];
            let x = c.x + off;
            let y = c.row as i32 * self.row_height + self.row_height / 2;
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        box_hpwl(x0, x1, y0, y1)
    }
}

/// Simulated annealing over row swaps and relocations.
///
/// Every net's HPWL is cached. A move touches rows `r1` and `r2`, and
/// repacking redistributes the whitespace of both, but only some of
/// their cells end up elsewhere. The nets of the cells whose
/// [`PlacedCell`] changed are collected (deduplicated by a per-move
/// stamp), recomputed after the move and committed to the cache only
/// if the move is accepted. A net with no moved cell keeps its HPWL,
/// so leaving it out of both sides leaves `delta` unchanged. The cache
/// always equals [`PlacedDesign::net_hpwl`] of the current cells, so
/// `delta` is the exact integer a full recomputation would give and
/// the RNG draws, and with them every accept decision, depend on
/// nothing else. The cells always sit where repacking their rows puts
/// them, so a rejected move restores the moved cells' old positions
/// instead of repacking again.
#[allow(clippy::too_many_arguments)]
fn anneal(
    nl: &Netlist,
    lib: &Library,
    pins: &PinArrays,
    gw: &[u32],
    state: &mut RowState,
    design: &mut PlacedDesign,
    seed: u64,
    moves: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0u64;
    let n_rows = state.rows.len();
    let mut cache: Vec<i64> = (0..nl.net_count())
        .map(|n| pins.hpwl(n, &design.cells))
        .collect();
    let mut total: i64 = cache.iter().sum();
    let mut best = total;
    let mut best_cells = design.cells.clone();
    // Per-move scratch: the moved cells with their old positions, the
    // touched nets and their recomputed HPWL.
    let mut stamp = vec![0u32; nl.net_count()];
    let mut epoch = 0u32;
    let mut moved: Vec<(GateId, PlacedCell)> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut fresh: Vec<i64> = Vec::new();
    // Initial temperature scaled to typical net span.
    let mut temp = (design.width + design.height) as f64 / 4.0;
    let cooling = if moves > 0 {
        (0.005f64 / temp).powf(1.0 / moves as f64)
    } else {
        1.0
    };

    for _ in 0..moves {
        // Pick a random occupied (row, index).
        let r1 = rng.random_range(0..n_rows);
        if state.rows[r1].is_empty() {
            temp *= cooling;
            continue;
        }
        let i1 = rng.random_range(0..state.rows[r1].len());
        let g1 = state.rows[r1][i1];
        let w1 = gw[g1.index()];

        // Either swap with another cell or relocate into another row.
        let r2 = rng.random_range(0..n_rows);
        let swap_target: Option<(usize, GateId)> =
            if !state.rows[r2].is_empty() && rng.random_bool(0.5) {
                let i2 = rng.random_range(0..state.rows[r2].len());
                Some((i2, state.rows[r2][i2]))
            } else {
                None
            };

        // Feasibility on row capacity.
        match swap_target {
            Some((_, g2)) if r1 != r2 => {
                let w2 = gw[g2.index()];
                if state.widths[r1] - w1 + w2 > state.cap || state.widths[r2] - w2 + w1 > state.cap
                {
                    temp *= cooling;
                    continue;
                }
            }
            None if r1 != r2 && state.widths[r2] + w1 > state.cap => {
                temp *= cooling;
                continue;
            }
            _ => {}
        }

        // Apply the move; the affected nets are those of the cells it
        // shifted.
        if epoch == u32::MAX {
            stamp.fill(0);
            epoch = 0;
        }
        epoch += 1;
        moved.clear();
        touched.clear();
        let undo = apply_move(state, gw, r1, i1, r2, swap_target.map(|(i2, _)| i2));
        let mut collect = |g: GateId, old: PlacedCell| {
            moved.push((g, old));
            for &n in pins.gate_nets(g) {
                if stamp[n as usize] != epoch {
                    stamp[n as usize] = epoch;
                    touched.push(n);
                }
            }
        };
        state.repack_row(gw, r1, &mut design.cells, &mut collect);
        state.repack_row(gw, r2, &mut design.cells, &mut collect);
        let before: i64 = touched.iter().map(|&n| cache[n as usize]).sum();
        fresh.clear();
        fresh.extend(
            touched
                .iter()
                .map(|&n| pins.hpwl(n as usize, &design.cells)),
        );
        let after: i64 = fresh.iter().sum();

        let delta = (after - before) as f64;
        let accept = delta <= 0.0 || rng.random_bool((-delta / temp.max(1e-9)).exp().min(1.0));
        if !accept {
            undo_move(state, gw, undo);
            for &(g, old) in moved.iter().rev() {
                design.cells[g.index()] = old;
            }
        } else {
            accepted += 1;
            for (&n, &h) in touched.iter().zip(&fresh) {
                cache[n as usize] = h;
            }
            total += after - before;
            if total < best {
                best = total;
                best_cells = design.cells.clone();
            }
        }
        temp *= cooling;
    }
    if cfg!(debug_assertions) {
        for n in nl.net_ids() {
            assert_eq!(
                cache[n.index()],
                design.net_hpwl(nl, lib, n),
                "stale HPWL cache for net {n}"
            );
        }
        assert_eq!(total, design.total_hpwl(nl, lib), "stale HPWL total");
        for (row, &width) in state.rows.iter().zip(&state.widths) {
            let sum: u32 = row.iter().map(|&g| gw[g.index()]).sum();
            assert_eq!(width, sum, "stale row width");
        }
    }
    // Annealing may end uphill; keep the best placement seen.
    if best < total {
        design.cells = best_cells;
    }
    secflow_obs::add(secflow_obs::Counter::PlaceMoves, moves as u64);
    secflow_obs::add(secflow_obs::Counter::PlaceAccepted, accepted);
}

/// A reversible move description.
enum Undo {
    Swap {
        r1: usize,
        i1: usize,
        r2: usize,
        i2: usize,
    },
    Relocate {
        from: usize,
        to: usize,
        to_idx: usize,
        orig_idx: usize,
    },
}

fn apply_move(
    state: &mut RowState,
    gw: &[u32],
    r1: usize,
    i1: usize,
    r2: usize,
    swap_i2: Option<usize>,
) -> Undo {
    match swap_i2 {
        Some(i2) => {
            let g1 = state.rows[r1][i1];
            let g2 = state.rows[r2][i2];
            state.rows[r1][i1] = g2;
            state.rows[r2][i2] = g1;
            state.shift_width(gw[g1.index()], r1, r2);
            state.shift_width(gw[g2.index()], r2, r1);
            Undo::Swap { r1, i1, r2, i2 }
        }
        None => {
            let g = state.rows[r1].remove(i1);
            state.rows[r2].push(g);
            state.shift_width(gw[g.index()], r1, r2);
            Undo::Relocate {
                from: r1,
                to: r2,
                to_idx: state.rows[r2].len() - 1,
                orig_idx: i1,
            }
        }
    }
}

fn undo_move(state: &mut RowState, gw: &[u32], undo: Undo) {
    match undo {
        Undo::Swap { r1, i1, r2, i2 } => {
            let g1 = state.rows[r2][i2];
            let g2 = state.rows[r1][i1];
            state.rows[r1][i1] = g1;
            state.rows[r2][i2] = g2;
            state.shift_width(gw[g1.index()], r2, r1);
            state.shift_width(gw[g2.index()], r1, r2);
        }
        Undo::Relocate {
            from,
            to,
            to_idx,
            orig_idx,
        } => {
            let g = state.rows[to].remove(to_idx);
            state.rows[from].insert(orig_idx, g);
            state.shift_width(gw[g.index()], to, from);
        }
    }
}

/// Runs [`place`] `restarts` times with independent annealing seeds
/// derived from `(opts.seed, restart)` and keeps the placement with
/// the smallest total HPWL; ties go to the lowest restart index.
///
/// Restarts run in parallel (`secflow-exec`), and because each seed is
/// a pure function of the restart index the winner is the same at any
/// thread count. `restarts <= 1` is exactly a single [`place`] call
/// with `opts.seed` itself.
///
/// # Errors
///
/// Returns [`PlaceError`] if a gate references a cell missing from
/// `lib` or the options are degenerate.
pub fn place_best_of(
    nl: &Netlist,
    lib: &Library,
    opts: &PlaceOptions,
    restarts: usize,
) -> Result<PlacedDesign, PlaceError> {
    secflow_obs::add(secflow_obs::Counter::PlaceRestarts, restarts.max(1) as u64);
    if restarts <= 1 {
        return place(nl, lib, opts);
    }
    let candidates = secflow_exec::par_map_range(restarts, |r| {
        let restart_opts = PlaceOptions {
            seed: secflow_rand::split_seed(opts.seed, r as u64),
            ..opts.clone()
        };
        place(nl, lib, &restart_opts).map(|placed| (placed.total_hpwl(nl, lib), placed))
    });
    let mut best: Option<(i64, PlacedDesign)> = None;
    for candidate in candidates {
        let (hpwl, placed) = candidate?;
        // Strict `<` keeps the lowest restart index on ties.
        if best.as_ref().is_none_or(|(b, _)| hpwl < *b) {
            best = Some((hpwl, placed));
        }
    }
    match best {
        Some((_, placed)) => Ok(placed),
        // Unreachable for restarts >= 2; fall back to a single run
        // rather than asserting.
        None => place(nl, lib, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    fn chain_netlist(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let next = nl.add_net(format!("w{i}"));
            nl.add_gate(
                format!("g{i}"),
                "BUF",
                GateKind::Comb,
                vec![prev],
                vec![next],
            );
            prev = next;
        }
        nl.mark_output(prev);
        nl
    }

    fn cell_width(nl: &Netlist, lib: &Library, g: GateId) -> u32 {
        lib.by_name(&nl.gate(g).cell).unwrap().physical().width_tracks
    }

    #[test]
    fn all_cells_inside_die() {
        let nl = chain_netlist(40);
        let lib = Library::lib180();
        let d = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        for gid in nl.gate_ids() {
            let c = d.cells[gid.index()];
            let w = cell_width(&nl, &lib, gid) as i32;
            assert!(c.x >= 0 && c.x + w <= d.width, "cell {gid} out of die");
            assert!((c.row as i32) * d.row_height < d.height);
        }
    }

    #[test]
    fn no_overlaps_within_rows() {
        let nl = chain_netlist(60);
        let lib = Library::lib180();
        let d = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        // Group by row, sort by x, check non-overlap.
        let mut per_row: std::collections::HashMap<u32, Vec<(i32, i32)>> = Default::default();
        for gid in nl.gate_ids() {
            let c = d.cells[gid.index()];
            let w = cell_width(&nl, &lib, gid) as i32;
            per_row.entry(c.row).or_default().push((c.x, c.x + w));
        }
        for (_, mut spans) in per_row {
            spans.sort();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlap {pair:?}");
            }
        }
    }

    #[test]
    fn annealing_does_not_increase_wirelength() {
        let nl = chain_netlist(50);
        let lib = Library::lib180();
        let no_anneal = place(
            &nl,
            &lib,
            &PlaceOptions {
                anneal_moves_per_gate: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let annealed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        assert!(
            annealed.total_hpwl(&nl, &lib) <= no_anneal.total_hpwl(&nl, &lib),
            "annealing made placement worse"
        );
    }

    #[test]
    fn best_of_restarts_never_loses_to_single_run() {
        let nl = chain_netlist(50);
        let lib = Library::lib180();
        let opts = PlaceOptions {
            anneal_moves_per_gate: 40,
            ..Default::default()
        };
        let single = place(&nl, &lib, &opts).unwrap();
        let best = place_best_of(&nl, &lib, &opts, 4).unwrap();
        // The restart seeds differ from opts.seed, so "never loses" is
        // over the restart pool itself; also pin determinism across
        // thread counts.
        let best2 =
            secflow_exec::with_threads(3, || place_best_of(&nl, &lib, &opts, 4)).unwrap();
        assert_eq!(best.cells, best2.cells);
        assert!(
            best.total_hpwl(&nl, &lib)
                <= single.total_hpwl(&nl, &lib).max(best.total_hpwl(&nl, &lib))
        );
        // restarts <= 1 is exactly place().
        let one = place_best_of(&nl, &lib, &opts, 1).unwrap();
        assert_eq!(one.cells, single.cells);
    }

    #[test]
    fn placement_is_deterministic() {
        let nl = chain_netlist(30);
        let lib = Library::lib180();
        let a = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let b = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn pitch_is_recorded() {
        let nl = chain_netlist(5);
        let lib = Library::lib180();
        let d = place(
            &nl,
            &lib,
            &PlaceOptions {
                pitch: GridPitch::Fat,
                anneal_moves_per_gate: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.pitch, GridPitch::Fat);
    }

    #[test]
    fn unknown_cell_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("u1", "NO_SUCH_CELL", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let err = place(&nl, &lib, &PlaceOptions::default()).unwrap_err();
        assert_eq!(
            err,
            PlaceError::UnknownCell {
                gate: "u1".into(),
                cell: "NO_SUCH_CELL".into()
            }
        );
        let err = place_best_of(&nl, &lib, &PlaceOptions::default(), 3).unwrap_err();
        assert!(matches!(err, PlaceError::UnknownCell { .. }));
    }

    /// A random netlist of up to 40 gates: each gate reads earlier
    /// nets, and about one gate output in five is a primary output.
    fn random_netlist(g: &mut secflow_testkit::Gen) -> Netlist {
        const CELLS: [(&str, usize); 5] = [
            ("INV", 1),
            ("BUF", 1),
            ("AND2", 2),
            ("NOR3", 3),
            ("AOI22", 4),
        ];
        let mut nl = Netlist::new("random");
        let mut nets: Vec<NetId> = (0..g.len_in(1..6))
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        for k in 0..g.len_in(1..40) {
            let &(cell, n_in) = g.choose(&CELLS);
            let inputs = (0..n_in).map(|_| *g.choose(&nets)).collect();
            let y = nl.add_net(format!("n{k}"));
            nl.add_gate(format!("g{k}"), cell, GateKind::Comb, inputs, vec![y]);
            nets.push(y);
            if g.random_bool(0.2) {
                nl.mark_output(y);
            }
        }
        nl
    }

    /// `anneal` asserts on exit, in debug builds, that its cached net
    /// HPWLs and running total equal a full recomputation. Random fill
    /// factors, pad counts and move budgets drive it through empty
    /// rows, one-gate rows and same-row relocations.
    #[test]
    fn prop_hpwl_cache_matches_full_recomputation() {
        let lib = Library::lib180();
        let (mut empty_rows, mut single_rows) = (0, 0);
        secflow_testkit::prop_check!(cases: 64, seed: 0x9A1D_0001, |g| {
            let nl = random_netlist(g);
            let opts = PlaceOptions {
                fill_factor: *g.choose(&[0.05, 0.3, 0.8, 1.0]),
                anneal_moves_per_gate: g.random_range(1..80usize),
                seed: g.random(),
                ..Default::default()
            };
            let d = place(&nl, &lib, &opts).unwrap();
            let rows = (d.height / d.row_height) as usize;
            let mut per_row = vec![0; rows];
            for c in &d.cells {
                per_row[c.row as usize] += 1;
            }
            empty_rows += per_row.iter().filter(|&&n| n == 0).count();
            single_rows += per_row.iter().filter(|&&n| n == 1).count();
        });
        assert!(
            empty_rows > 0 && single_rows > 0,
            "cases missed empty or one-gate rows"
        );
    }

    #[test]
    fn degenerate_options_are_typed_errors() {
        let nl = chain_netlist(3);
        let lib = Library::lib180();
        let err = place(
            &nl,
            &lib,
            &PlaceOptions {
                fill_factor: 0.0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidOptions { .. }));
        let err = place(
            &nl,
            &lib,
            &PlaceOptions {
                aspect_ratio: -1.0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidOptions { .. }));
    }

    /// A move count that overflows `usize` is refused before any
    /// placement work, not wrapped into a short anneal.
    #[test]
    fn an_overflowing_move_count_is_a_typed_error() {
        let nl = chain_netlist(3);
        let lib = Library::lib180();
        let opts = |anneal_moves_per_gate| PlaceOptions {
            anneal_moves_per_gate,
            ..Default::default()
        };
        let err = place(&nl, &lib, &opts(usize::MAX / 2)).unwrap_err();
        assert!(
            matches!(err, PlaceError::InvalidOptions { ref detail } if detail.contains("overflow")),
            "{err}"
        );
        // The largest count that fits is accepted (checked without
        // running it).
        let fits = usize::MAX / 3;
        assert_eq!(check_options(&opts(fits), 3), Ok(fits * 3));
    }
}
