//! PathFinder-style negotiated-congestion routing on the multi-layer
//! track grid.
//!
//! Every net grows a tree from its first pin. The remaining pins join
//! it nearest first, each by a multi-source A* search from the whole
//! tree whose bound counts the vias a path must take (DESIGN.md §19).
//! Congestion is resolved by iteratively re-routing all nets with
//! growing present- and history-cost penalties until no grid node is
//! shared.

use std::collections::BinaryHeap;
use std::fmt;

use secflow_cells::Library;
use secflow_netlist::{NetId, Netlist};

use crate::design::{points_box, points_hpwl, PlacedDesign, RoutedDesign, RoutedNet};
use crate::grid::{is_horizontal, Point, RoutingGrid, Segment, LAYER_H, LAYER_V};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Maximum negotiation iterations before giving up.
    pub max_iterations: usize,
    /// Cost of a via relative to one track of wire.
    pub via_cost: f64,
    /// History cost added to each congested node per iteration.
    pub history_increment: f32,
    /// Number of routing layers (alternating horizontal/vertical).
    pub layers: u8,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 150,
            via_cost: 3.0,
            history_increment: 0.6,
            layers: 4,
        }
    }
}

/// Routing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// A gate references a cell missing from the library, so its pin
    /// locations cannot be resolved.
    UnknownCell {
        /// Instance name of the offending gate.
        gate: String,
        /// The unresolvable cell name.
        cell: String,
    },
    /// A pin of the placed design falls outside the die (degenerate
    /// placement).
    PinOutOfBounds {
        /// Name of the net whose pin is off-die.
        net: String,
        /// Pin x coordinate (grid units).
        x: i32,
        /// Pin y coordinate (grid units).
        y: i32,
    },
    /// Two different nets have pins at the same grid location
    /// (overlapping cells in a degenerate placement).
    PinCollision {
        /// First net at the location.
        net_a: String,
        /// Second net at the location.
        net_b: String,
        /// Collision x coordinate (grid units).
        x: i32,
        /// Collision y coordinate (grid units).
        y: i32,
    },
    /// A pin could not be reached at all (grid disconnected).
    Unreachable {
        /// Name of the failing net.
        net: String,
    },
    /// Router options are degenerate: fewer than two layers (pins
    /// need a horizontal and a vertical layer), or a via cost or
    /// history increment that is negative or not finite.
    InvalidOptions {
        /// Human-readable description of the bad option.
        detail: String,
    },
    /// Congestion never resolved within the iteration budget.
    Congested {
        /// Number of still-congested grid nodes.
        congested_nodes: usize,
        /// Iterations performed.
        iterations: usize,
        /// A few of the congested locations, as display strings.
        examples: Vec<String>,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            RouteError::PinOutOfBounds { net, x, y } => {
                write!(f, "pin of net `{net}` at ({x},{y}) lies outside the die")
            }
            RouteError::PinCollision { net_a, net_b, x, y } => {
                write!(f, "pins of nets `{net_a}` and `{net_b}` collide at ({x},{y})")
            }
            RouteError::Unreachable { net } => write!(f, "net `{net}` has an unreachable pin"),
            RouteError::InvalidOptions { detail } => write!(f, "invalid routing options: {detail}"),
            RouteError::Congested {
                congested_nodes,
                iterations,
                examples,
            } => write!(
                f,
                "routing congestion unresolved after {iterations} iterations ({congested_nodes} nodes, e.g. {examples:?})"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Marks a grid node that is no pin's access point.
const NO_NET: u32 = u32::MAX;

/// Tracks a net's window adds around its pins' box (DESIGN.md §22); it
/// sets how often a search escalates to the whole grid, never a wire.
const WINDOW_MARGIN: i32 = 12;

/// The hot band reaches one wire step above the smallest cold f.
const BAND: f64 = 1.0;

/// One window node's search record; valid only while `stamp` equals
/// the current search number.
#[derive(Clone, Copy)]
struct Node {
    /// Path cost from the tree.
    dist: f64,
    /// Predecessor's window index (the node itself for tree nodes).
    parent: u32,
    stamp: u32,
}

/// An open-list entry of 24 bytes: `!f` and g, as `f64::to_bits` in
/// the high and low half of `key`, and a window index. For the
/// non-negative finite costs [`route`] accepts, bit patterns order as
/// the values do, so the derived order pops the lowest f first, then
/// the larger g, then the higher index (the higher point).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C, packed(8))]
struct Open {
    key: u128,
    node: u32,
}

impl Open {
    fn new(f: f64, g: f64, node: u32) -> Self {
        let key = u128::from(!f.to_bits()) << 64 | u128::from(g.to_bits());
        Open { key, node }
    }

    /// Priority g + heuristic, as `f64::to_bits`.
    fn f(&self) -> u64 {
        !((self.key >> 64) as u64)
    }

    fn g(&self) -> f64 {
        f64::from_bits(self.key as u64)
    }
}

/// The A* open list in two tiers: a heap of the entries whose f is at
/// or below `top` and an unsorted list of the rest, so the heap pops
/// what one heap of all entries would. When it runs dry, the cold
/// entries within [`BAND`] of the smallest cold f move into it.
#[derive(Default)]
struct OpenList {
    hot: BinaryHeap<Open>,
    cold: Vec<Open>,
    /// The band's top, as `f64::to_bits`.
    top: u64,
}

impl OpenList {
    /// Empties the list; the next search's first pop sets a new band.
    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.top = 0;
    }

    fn push(&mut self, e: Open) {
        if e.f() <= self.top {
            self.hot.push(e);
        } else {
            self.cold.push(e);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Open> {
        if self.hot.is_empty() {
            let least = self.cold.iter().map(Open::f).min()?;
            self.top = (f64::from_bits(least) + BAND).to_bits();
            let mut band = std::mem::take(&mut self.hot).into_vec();
            band.extend(self.cold.extract_if(.., |e| e.f() <= self.top));
            self.hot = BinaryHeap::from(band);
        }
        self.hot.pop()
    }
}

/// Every layer of the columns `x0..x0 + w` and rows `y0..y0 + h`,
/// indexed (layer, x, y)-major like the grid, so that window index
/// order is `Point` order.
#[derive(Clone, Copy)]
struct Window {
    x0: i32,
    y0: i32,
    w: i32,
    h: i32,
}

impl Window {
    /// The box of `pins` plus `margin` tracks, clipped to the grid: the
    /// whole grid at a margin of `i32::MAX`.
    fn around(pins: &[(i32, i32)], margin: i32, grid: &RoutingGrid) -> Self {
        let (x0, x1, y0, y1) = points_box(pins);
        let lo = |v: i32| v.saturating_sub(margin).max(0);
        let hi = |v: i32, end: i32| v.saturating_add(margin).min(end - 1);
        let (x0, y0) = (lo(x0), lo(y0));
        let (w, h) = (
            hi(x1, grid.width()) - x0 + 1,
            hi(y1, grid.height()) - y0 + 1,
        );
        Window { x0, y0, w, h }
    }

    fn contains(&self, x: i32, y: i32) -> bool {
        (self.x0..self.x0 + self.w).contains(&x) && (self.y0..self.y0 + self.h).contains(&y)
    }

    fn index(&self, p: Point) -> u32 {
        ((i32::from(p.layer) * self.w + p.x - self.x0) * self.h + p.y - self.y0) as u32
    }

    fn point(&self, i: u32) -> Point {
        let (w, h) = (self.w as u32, self.h as u32);
        let (x, y) = ((i / h) % w, i % h);
        Point::new((i / (w * h)) as u8, self.x0 + x as i32, self.y0 + y as i32)
    }
}

/// A net's current route as grid indices: its nodes in the order they
/// joined the tree, and its unit edges as `(from, to)`.
#[derive(Clone, Default, Debug, PartialEq)]
struct NetTree {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

/// Router state reused by every search of one [`route`] call, indexed
/// by [`RoutingGrid::index`] except the search records.
struct Router {
    /// Owning net of each node on layers 0 and 1 that is a pin access
    /// point, [`NO_NET`] for the others; foreign pins are obstacles.
    pin_owner: Vec<u32>,
    /// One bit per node of layers 0 and 1, set at pin access points,
    /// so that a search reads `pin_owner` only at pins.
    is_pin: Vec<u64>,
    /// Search records by window index, as many as grid nodes.
    nodes: Vec<Node>,
    search: u32,
    /// `in_tree[i] == tree` marks the nodes of the net being routed.
    in_tree: Vec<u32>,
    tree: u32,
    open: OpenList,
    /// Manhattan distance from each pin of the net being routed to its
    /// tree, [`JOINED`] once the pin has been taken.
    gap: Vec<i32>,
    /// [`WINDOW_MARGIN`] outside tests.
    margin: i32,
    /// Open-list pops, stale entries included.
    pops: u64,
    /// Windowed searches re-run on the whole grid.
    escalations: u64,
}

/// The `gap` of a pin that has joined its net's tree.
const JOINED: i32 = i32::MAX;

/// A*'s bound: the exact cost from a node on `layer`, `(dx, dy)` away
/// from a pin, to the pin's access points on an empty grid. A wire
/// step costs 1 and a via `via_cost`. Above layer 1 a path needs
/// `layer - 1` vias to come down; on layer 0 (horizontal) or 1
/// (vertical) it needs one only to travel the other direction. Real
/// steps add congestion and history, and foreign pins only remove
/// steps, so the bound is consistent and every search stays optimal.
#[inline]
fn via_bound(layer: u8, dx: i32, dy: i32, via_cost: f64) -> f64 {
    let (dx, dy) = (dx.abs(), dy.abs());
    let vias = match layer {
        LAYER_H => u32::from(dy > 0),
        LAYER_V => u32::from(dx > 0),
        l => u32::from(l) - 1,
    };
    f64::from(dx + dy) + via_cost * f64::from(vias)
}

impl Router {
    fn new(grid: &RoutingGrid) -> Self {
        let n = grid.width() as usize * grid.height() as usize * usize::from(grid.layers());
        let pin_plane = grid.width() as usize * grid.height() as usize * 2;
        Router {
            pin_owner: vec![NO_NET; pin_plane],
            is_pin: vec![0; pin_plane.div_ceil(64)],
            nodes: vec![
                Node {
                    dist: f64::INFINITY,
                    parent: 0,
                    stamp: 0,
                };
                n
            ],
            search: 0,
            in_tree: vec![0; n],
            tree: 0,
            // Reserved once: lists that grow by doubling in every
            // `route()` call fragment the allocator's memory.
            open: OpenList {
                hot: BinaryHeap::with_capacity(n),
                cold: Vec::with_capacity(n),
                top: 0,
            },
            gap: Vec::new(),
            margin: WINDOW_MARGIN,
            pops: 0,
            escalations: 0,
        }
    }

    /// Reserves access point `i` (layer 0 or 1) for `net`.
    fn claim_pin(&mut self, i: usize, net: u32) {
        self.pin_owner[i] = net;
        self.is_pin[i / 64] |= 1 << (i % 64);
    }

    /// Whether `i` is another net's pin access point.
    #[inline]
    fn foreign_pin(&self, i: usize, net: u32) -> bool {
        i < self.pin_owner.len()
            && self.is_pin[i / 64] >> (i % 64) & 1 == 1
            && self.pin_owner[i] != net
    }

    #[inline]
    fn dist(&self, i: u32) -> f64 {
        let n = &self.nodes[i as usize];
        if n.stamp == self.search {
            n.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, i: u32, dist: f64, parent: u32) {
        self.nodes[i as usize] = Node {
            dist,
            parent,
            stamp: self.search,
        };
    }

    /// Adds node `i` to the current tree unless it is already on it.
    #[inline]
    fn add_to_tree(&mut self, i: u32, tree: &mut Vec<u32>) {
        if self.in_tree[i as usize] != self.tree {
            self.in_tree[i as usize] = self.tree;
            tree.push(i);
        }
    }

    /// Advances a stamp counter, clearing its array when it wraps.
    fn next_stamp(counter: &mut u32, reset: impl FnOnce()) {
        if *counter == u32::MAX {
            reset();
            *counter = 0;
        }
        *counter += 1;
    }

    /// Routes one net over the current grid state into the empty
    /// `out`. Returns `None` if a pin is unreachable.
    ///
    /// The tree starts at the first pin. The remaining pin nearest to
    /// it (Manhattan distance to any tree node, the earlier pin on
    /// ties) joins next, by multi-source A* from the whole tree in the
    /// net's window, again on the whole grid if the window might have
    /// changed the path, and only there once the tree has left it.
    fn route_net(
        &mut self,
        grid: &RoutingGrid,
        pins: &[(i32, i32)],
        opts: &RouteOptions,
        present_factor: f64,
        net: NetId,
        out: &mut NetTree,
    ) -> Option<()> {
        let NetTree { nodes: tree, edges } = out;
        let node_at = |layer: u8, x: i32, y: i32| grid.index(Point::new(layer, x, y)) as u32;
        Self::next_stamp(&mut self.tree, || self.in_tree.fill(0));
        let mut home = Window::around(pins, self.margin, grid);
        let whole = Window::around(pins, i32::MAX, grid);

        // Seed the tree with the first pin (both layers).
        let (x0, y0) = pins[0];
        let (s_h, s_v) = (node_at(LAYER_H, x0, y0), node_at(LAYER_V, x0, y0));
        self.add_to_tree(s_h, tree);
        self.add_to_tree(s_v, tree);
        edges.push((s_h, s_v));
        self.gap.clear();
        self.gap
            .extend(pins.iter().map(|&(x, y)| (x - x0).abs() + (y - y0).abs()));
        self.gap[0] = JOINED;

        // Prim order: the pin nearest to the tree joins next, the
        // earlier on ties (`min_by_key` keeps the first minimum).
        while let Some(k) = (0..pins.len())
            .filter(|&k| self.gap[k] != JOINED)
            .min_by_key(|&k| self.gap[k])
        {
            self.gap[k] = JOINED;
            let (px, py) = pins[k];
            if self.in_tree[node_at(LAYER_H, px, py) as usize] == self.tree
                || self.in_tree[node_at(LAYER_V, px, py) as usize] == self.tree
            {
                // The pin is already on the tree.
                continue;
            }
            let windows = [home, whole];
            let (window, mut i) =
                self.a_star(grid, windows, tree, pins[k], opts, present_factor, net)?;
            // Backtrace to the tree, bringing every pending pin's gap
            // up to date with the nodes that join it.
            let grid_index = |i: u32| grid.index(window.point(i)) as u32;
            loop {
                let parent = self.nodes[i as usize].parent;
                let p = window.point(i);
                self.add_to_tree(grid_index(i), tree);
                if !home.contains(p.x, p.y) {
                    home = whole;
                }
                for (d, &(qx, qy)) in self.gap.iter_mut().zip(pins) {
                    if *d != JOINED {
                        *d = (*d).min((qx - p.x).abs() + (qy - p.y).abs());
                    }
                }
                if parent == i {
                    break;
                }
                edges.push((grid_index(parent), grid_index(i)));
                i = parent;
            }
        }
        Some(())
    }

    /// A* from `tree` (grid indices) to the pin at `(px, py)` in the
    /// first window, then in the second if the first might have changed
    /// the path: the last window and the pin's index in it. Node costs
    /// are `g + step + congestion + history`, priorities that plus `h`,
    /// in that order. A step out of the window bounds the f the whole
    /// grid would push there by `(g + step) + h`; a pop at or above the
    /// bound, or a dry window with a step left out, escalates (§22).
    #[allow(clippy::too_many_arguments)]
    fn a_star(
        &mut self,
        grid: &RoutingGrid,
        windows: [Window; 2],
        tree: &[u32],
        (px, py): (i32, i32),
        opts: &RouteOptions,
        present_factor: f64,
        net: NetId,
    ) -> Option<(Window, u32)> {
        let (w, h, layers) = (grid.width(), grid.height(), grid.layers());
        // Index strides of a step in x and between layers.
        let (grid_x, grid_layer) = (h as usize, (w * h) as usize);
        let (usage, history) = grid.costs();
        'windows: for window in windows {
            let (win_x, win_layer) = (window.h as u32, (window.w * window.h) as u32);
            let t_h = window.index(Point::new(LAYER_H, px, py));
            let t_v = window.index(Point::new(LAYER_V, px, py));
            let heuristic =
                |layer: u8, x: i32, y: i32| via_bound(layer, x - px, y - py, opts.via_cost);
            Self::next_stamp(&mut self.search, || {
                self.nodes.iter_mut().for_each(|n| n.stamp = 0)
            });
            self.open.clear();
            for &i in tree {
                let p = grid.point(i as usize);
                debug_assert!(
                    window.contains(p.x, p.y),
                    "tree node {p} outside the window"
                );
                let node = window.index(p);
                self.set(node, 0.0, node);
                self.open
                    .push(Open::new(heuristic(p.layer, p.x, p.y), 0.0, node));
            }
            let mut bound = f64::INFINITY;
            while let Some(entry) = self.open.pop() {
                self.pops += 1;
                if f64::from_bits(entry.f()) >= bound {
                    self.escalations += 1;
                    continue 'windows;
                }
                let (g, node) = (entry.g(), entry.node);
                if g > self.dist(node) {
                    continue; // stale entry
                }
                if node == t_h || node == t_v {
                    return Some((window, node));
                }
                let p = window.point(node);
                let (layer, x, y, at) = (p.layer, p.x, p.y, grid.index(p));
                // Relaxes the neighbour at window index `ni` and grid
                // index `i`, or bounds it if it lies outside the window.
                let mut relax = |ni: u32, i: usize, nl: u8, nx: i32, ny: i32, step: f64| {
                    // Foreign pin points are hard obstacles.
                    if self.foreign_pin(i, net.0) {
                        return;
                    }
                    if !window.contains(nx, ny) {
                        bound = bound.min((g + step) + heuristic(nl, nx, ny));
                        return;
                    }
                    let used = f64::from(usage[i]);
                    let congestion = if used > 0.0 {
                        present_factor * used
                    } else {
                        0.0
                    };
                    let nc = g + step + congestion + f64::from(history[i]);
                    if nc < self.dist(ni) {
                        self.set(ni, nc, node);
                        self.open
                            .push(Open::new(nc + heuristic(nl, nx, ny), nc, ni));
                    }
                };
                // Neighbours: along the layer direction, then the vias
                // down and up.
                let via = opts.via_cost;
                if is_horizontal(layer) {
                    if x > 0 {
                        relax(node.wrapping_sub(win_x), at - grid_x, layer, x - 1, y, 1.0);
                    }
                    if x + 1 < w {
                        relax(node + win_x, at + grid_x, layer, x + 1, y, 1.0);
                    }
                } else {
                    if y > 0 {
                        relax(node.wrapping_sub(1), at - 1, layer, x, y - 1, 1.0);
                    }
                    if y + 1 < h {
                        relax(node + 1, at + 1, layer, x, y + 1, 1.0);
                    }
                }
                if layer > 0 {
                    relax(node - win_layer, at - grid_layer, layer - 1, x, y, via);
                }
                if layer + 1 < layers {
                    relax(node + win_layer, at + grid_layer, layer + 1, x, y, via);
                }
            }
            if bound.is_infinite() {
                return None;
            }
            self.escalations += 1;
        }
        None
    }
}

/// Routes all multi-pin nets of `placed`, returning the routed design.
///
/// # Errors
///
/// Returns [`RouteError`] if the options are degenerate (fewer than
/// two layers, or a negative or non-finite via cost or history
/// increment), a gate's cell is missing from `lib`, the placement is
/// degenerate (off-die or colliding pins), some pin is unreachable, or
/// congestion cannot be negotiated away within
/// [`RouteOptions::max_iterations`].
pub fn route(
    nl: &Netlist,
    lib: &Library,
    placed: &PlacedDesign,
    opts: &RouteOptions,
) -> Result<RoutedDesign, RouteError> {
    if opts.layers < 2 {
        return Err(RouteError::InvalidOptions {
            detail: format!(
                "need at least 2 routing layers (pins use a horizontal and a vertical one), got {}",
                opts.layers
            ),
        });
    }
    // The open list orders costs by their bit patterns, which follow
    // the values only for non-negative finite costs.
    for (name, value) in [
        ("via cost", opts.via_cost),
        ("history increment", f64::from(opts.history_increment)),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(RouteError::InvalidOptions {
                detail: format!("{name} {value} is not a finite non-negative number"),
            });
        }
    }
    // Resolve every cell upfront so pin lookups below cannot fail.
    for g in nl.gates() {
        if lib.by_name(&g.cell).is_none() {
            return Err(RouteError::UnknownCell {
                gate: g.name.clone(),
                cell: g.cell.clone(),
            });
        }
    }

    let mut grid = RoutingGrid::new_with_layers(placed.width, placed.height, opts.layers);
    let mut router = Router::new(&grid);

    // Reserve every pin's access points (layers 0 and 1) for its own
    // net: a foreign wire through a pin would make the pin
    // permanently unreachable for its owner. Off-die or colliding pins
    // mean the placement is degenerate and routing cannot start.
    let mut net_pins: Vec<Vec<(i32, i32)>> = Vec::with_capacity(nl.net_count());
    for net in nl.net_ids() {
        let pins = placed.net_pins(nl, lib, net);
        for &(x, y) in &pins {
            if x < 0 || x >= placed.width || y < 0 || y >= placed.height {
                return Err(RouteError::PinOutOfBounds {
                    net: nl.net(net).name.clone(),
                    x,
                    y,
                });
            }
            for layer in [LAYER_H, LAYER_V] {
                let i = grid.index(Point::new(layer, x, y));
                let other = router.pin_owner[i];
                if other != NO_NET && other != net.0 {
                    return Err(RouteError::PinCollision {
                        net_a: nl.net(NetId(other)).name.clone(),
                        net_b: nl.net(net).name.clone(),
                        x,
                        y,
                    });
                }
                router.claim_pin(i, net.0);
            }
        }
        net_pins.push(pins);
    }

    // Nets to route, shortest HPWL first (net id breaks ties).
    let mut work: Vec<(NetId, Vec<(i32, i32)>)> = net_pins
        .into_iter()
        .enumerate()
        .filter(|(_, pins)| pins.len() >= 2)
        .map(|(n, pins)| (NetId(n as u32), pins))
        .collect();
    work.sort_by_cached_key(|(n, pins)| (points_hpwl(pins), n.0));

    // Current route per net (for rip-up).
    let mut trees: Vec<NetTree> = vec![NetTree::default(); work.len()];

    let mut present_factor = 0.5f64;
    let mut iterations = 0usize;
    let mut ripups = 0u64;
    // PathFinder refinement: after the first pass, only nets whose
    // trees touch congested nodes are ripped up and re-routed.
    let mut reroute: Vec<bool> = vec![true; work.len()];
    loop {
        iterations += 1;
        for (i, (net, pins)) in work.iter().enumerate() {
            if !reroute[i] {
                continue;
            }
            let tree = &mut trees[i];
            if !tree.nodes.is_empty() {
                ripups += 1;
            }
            // Rip up the previous route of this net.
            for &p in &tree.nodes {
                grid.release_at(p as usize);
            }
            tree.nodes.clear();
            tree.edges.clear();

            router
                .route_net(&grid, pins, opts, present_factor, *net, tree)
                .ok_or_else(|| RouteError::Unreachable {
                    net: nl.net(*net).name.clone(),
                })?;
            for &p in &tree.nodes {
                grid.occupy_at(p as usize);
            }
        }

        let congested = grid.accrue_history(opts.history_increment);
        if congested == 0 {
            break;
        }
        let (usage, _) = grid.costs();
        for (flag, tree) in reroute.iter_mut().zip(&trees) {
            *flag = tree.nodes.iter().any(|&p| usage[p as usize] > 1);
        }
        if iterations >= opts.max_iterations {
            let examples = grid
                .congested_points()
                .into_iter()
                .take(4)
                .map(|p| {
                    let node = grid.index(p) as u32;
                    let owners: Vec<&str> = work
                        .iter()
                        .zip(&trees)
                        .filter(|(_, tree)| tree.nodes.contains(&node))
                        .map(|((n, _), _)| nl.net(*n).name.as_str())
                        .collect();
                    format!("{p} used by {owners:?}")
                })
                .collect();
            return Err(RouteError::Congested {
                congested_nodes: congested,
                iterations,
                examples,
            });
        }
        present_factor *= 1.6;
    }

    secflow_obs::add(secflow_obs::Counter::RouteNets, work.len() as u64);
    secflow_obs::add(secflow_obs::Counter::RouteRipups, ripups);
    secflow_obs::add(secflow_obs::Counter::RouteIterations, iterations as u64);
    secflow_obs::add(secflow_obs::Counter::RoutePops, router.pops);
    secflow_obs::add(
        secflow_obs::Counter::RouteWindowEscalations,
        router.escalations,
    );

    let nets = work
        .iter()
        .zip(&trees)
        .map(|((net, _), tree)| {
            let unit: Vec<(Point, Point)> = tree
                .edges
                .iter()
                .map(|&(a, b)| (grid.point(a as usize), grid.point(b as usize)))
                .collect();
            RoutedNet {
                net: *net,
                segments: merge_edges(&unit),
            }
        })
        .collect();

    Ok(RoutedDesign {
        placed: placed.clone(),
        nets,
    })
}

/// Merges unit edges into maximal straight segments plus vias.
fn merge_edges(edges: &[(Point, Point)]) -> Vec<Segment> {
    let mut vias: Vec<Segment> = Vec::new();
    // Horizontal runs keyed by (layer, y), vertical by (layer, x).
    let mut h_runs: std::collections::HashMap<(u8, i32), Vec<i32>> = Default::default();
    let mut v_runs: std::collections::HashMap<(u8, i32), Vec<i32>> = Default::default();
    for &(a, b) in edges {
        if a.layer != b.layer {
            let s = Segment::new(a, b);
            if !vias.contains(&s) {
                vias.push(s);
            }
        } else if is_horizontal(a.layer) {
            // Store the left x of each unit edge.
            h_runs.entry((a.layer, a.y)).or_default().push(a.x.min(b.x));
        } else {
            v_runs.entry((a.layer, a.x)).or_default().push(a.y.min(b.y));
        }
    }
    let mut out = vias;
    for ((layer, y), mut xs) in h_runs {
        xs.sort_unstable();
        xs.dedup();
        let mut start = xs[0];
        let mut prev = xs[0];
        for &x in &xs[1..] {
            if x != prev + 1 {
                out.push(Segment::new(
                    Point::new(layer, start, y),
                    Point::new(layer, prev + 1, y),
                ));
                start = x;
            }
            prev = x;
        }
        out.push(Segment::new(
            Point::new(layer, start, y),
            Point::new(layer, prev + 1, y),
        ));
    }
    for ((layer, x), mut ys) in v_runs {
        ys.sort_unstable();
        ys.dedup();
        let mut start = ys[0];
        let mut prev = ys[0];
        for &y in &ys[1..] {
            if y != prev + 1 {
                out.push(Segment::new(
                    Point::new(layer, x, start),
                    Point::new(layer, x, prev + 1),
                ));
                start = y;
            }
            prev = y;
        }
        out.push(Segment::new(
            Point::new(layer, x, start),
            Point::new(layer, x, prev + 1),
        ));
    }
    out.sort_by_key(|s| (s.a.layer, s.a.x, s.a.y, s.b.x, s.b.y));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, PlaceOptions};
    use secflow_netlist::GateKind;
    use std::cmp::Ordering;

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new("small");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let w1 = nl.add_net("w1");
        let w2 = nl.add_net("w2");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![w1]);
        nl.add_gate("g1", "OR2", GateKind::Comb, vec![w1, c], vec![w2]);
        nl.add_gate("g2", "INV", GateKind::Comb, vec![w2], vec![y]);
        nl.mark_output(y);
        nl
    }

    /// The grid points a net's segments cover.
    fn segment_points(segments: &[Segment]) -> Vec<Point> {
        let mut pts = Vec::new();
        for s in segments {
            if s.is_via() {
                pts.extend([s.a, s.b]);
            } else if is_horizontal(s.a.layer) {
                let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                pts.extend((x0..=x1).map(|x| Point::new(s.a.layer, x, s.a.y)));
            } else {
                let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                pts.extend((y0..=y1).map(|y| Point::new(s.a.layer, s.a.x, y)));
            }
        }
        pts
    }

    /// The points one step from `p`: along its layer's direction, then
    /// through the vias. Callers drop the points outside their set.
    fn neighbours(p: Point) -> Vec<Point> {
        let mut out = if is_horizontal(p.layer) {
            vec![
                Point::new(p.layer, p.x - 1, p.y),
                Point::new(p.layer, p.x + 1, p.y),
            ]
        } else {
            vec![
                Point::new(p.layer, p.x, p.y - 1),
                Point::new(p.layer, p.x, p.y + 1),
            ]
        };
        if p.layer > 0 {
            out.push(Point::new(p.layer - 1, p.x, p.y));
        }
        out.push(Point::new(p.layer + 1, p.x, p.y));
        out
    }

    /// Checks that one routed net forms a connected tree touching all
    /// its pins.
    fn check_net_connected(name: &str, segments: &[Segment], pins: &[(i32, i32)]) {
        use std::collections::HashSet;
        let pts: HashSet<Point> = segment_points(segments).into_iter().collect();
        // All pins present on at least one layer.
        for &(x, y) in pins {
            assert!(
                pts.contains(&Point::new(LAYER_H, x, y))
                    || pts.contains(&Point::new(LAYER_V, x, y)),
                "pin ({x},{y}) of net {name} not covered"
            );
        }
        // Connectivity: BFS over adjacency within the point set.
        let start = *pts.iter().next().expect("non-empty route");
        let mut seen = HashSet::from([start]);
        let mut stack = vec![start];
        while let Some(p) = stack.pop() {
            for q in neighbours(p) {
                if pts.contains(&q) && seen.insert(q) {
                    stack.push(q);
                }
            }
        }
        assert_eq!(seen.len(), pts.len(), "disconnected route of net {name}");
    }

    /// Checks that every routed net forms a connected tree touching
    /// all its pins.
    fn check_connectivity(nl: &Netlist, lib: &Library, d: &RoutedDesign) {
        for rn in &d.nets {
            let pins = d.placed.net_pins(nl, lib, rn.net);
            check_net_connected(&nl.net(rn.net).name, &rn.segments, &pins);
        }
    }

    /// No two different nets may share a grid node.
    fn check_no_shorts(nets: &[RoutedNet]) {
        use std::collections::HashMap;
        let mut owner: HashMap<Point, NetId> = HashMap::new();
        for rn in nets {
            for p in segment_points(&rn.segments) {
                let o = *owner.entry(p).or_insert(rn.net);
                assert_eq!(o, rn.net, "short at {p}");
            }
        }
    }

    #[test]
    fn routes_small_design() {
        let nl = small_netlist();
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let routed = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        assert!(!routed.nets.is_empty());
        check_connectivity(&nl, &lib, &routed);
        check_no_shorts(&routed.nets);
        assert!(routed.total_wirelength() > 0);
    }

    #[test]
    fn routing_is_deterministic() {
        let nl = small_netlist();
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let a = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        let b = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        assert_eq!(a.nets, b.nets);
    }

    #[test]
    fn congestion_negotiation_resolves_crossing_nets() {
        // Many nets forced through the same region.
        let mut nl = Netlist::new("cross");
        let mut outs = Vec::new();
        for i in 0..6 {
            let a = nl.add_input(format!("a{i}"));
            let y = nl.add_net(format!("y{i}"));
            nl.add_gate(format!("g{i}"), "BUF", GateKind::Comb, vec![a], vec![y]);
            outs.push(y);
        }
        for y in outs {
            nl.mark_output(y);
        }
        let lib = Library::lib180();
        let placed = place(&nl, &lib, &PlaceOptions::default()).unwrap();
        let routed = route(&nl, &lib, &placed, &RouteOptions::default()).unwrap();
        check_no_shorts(&routed.nets);
        check_connectivity(&nl, &lib, &routed);
    }

    /// The open list's order computed on the `f64` costs, which the
    /// integer keys must reproduce.
    fn float_order(a: (f64, f64, u32), b: (f64, f64, u32)) -> Ordering {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .then_with(|| a.2.cmp(&b.2))
    }

    /// Integer keys order entries exactly as the float comparator does
    /// on non-negative costs. The costs come from a few dyadic values,
    /// so equal f and equal g are common.
    #[test]
    fn prop_integer_keys_order_as_float_costs() {
        const COSTS: [f64; 8] = [0.0, 0.25, 0.5, 1.0, 3.0, 4.25, 6.5, 1024.0];
        let (mut equal_f, mut equal_fg) = (0, 0);
        secflow_testkit::prop_check!(cases: 512, seed: 0x0E4D_F0A7, |g| {
            let entry = |g: &mut secflow_testkit::Gen| {
                (*g.choose(&COSTS), *g.choose(&COSTS), g.random_range(0..4u32))
            };
            let (a, b) = (entry(g), entry(g));
            let key = |(f, g, node): (f64, f64, u32)| Open::new(f, g, node);
            assert_eq!(key(a).cmp(&key(b)), float_order(a, b), "{a:?} vs {b:?}");
            equal_f += usize::from(a.0 == b.0);
            equal_fg += usize::from(a.0 == b.0 && a.1 == b.1);
        });
        assert!(equal_f > 0 && equal_fg > 0, "no ties drawn");
    }

    /// The two-tier open list pops what one binary heap of the same
    /// entries pops, on random push and pop scripts. Costs come from a
    /// few dyadic values, some exactly one band apart, so equal f,
    /// equal (f, g) and entries at the band's top are common.
    #[test]
    fn prop_two_tier_list_pops_as_one_heap() {
        const COSTS: [f64; 8] = [0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.5, 3.0];
        let (mut equal_f, mut equal_fg) = (0, 0);
        secflow_testkit::prop_check!(cases: 256, seed: 0x7A0_71E5, |g| {
            let mut list = OpenList::default();
            let mut heap = BinaryHeap::new();
            let mut pushed: Vec<(u64, f64)> = Vec::new();
            for _ in 0..g.random_range(1..96usize) {
                if g.random_range(0..5u32) < 3 {
                    let e = Open::new(*g.choose(&COSTS), *g.choose(&COSTS), g.random_range(0..4u32));
                    equal_f += usize::from(pushed.iter().any(|&(f, _)| f == e.f()));
                    equal_fg += usize::from(pushed.contains(&(e.f(), e.g())));
                    pushed.push((e.f(), e.g()));
                    list.push(e);
                    heap.push(e);
                } else {
                    assert!(list.pop() == heap.pop(), "pops differ");
                }
            }
            while let Some(e) = heap.pop() {
                assert!(list.pop() == Some(e), "drained pops differ");
            }
            assert!(list.pop().is_none(), "the list kept an entry");
        });
        assert!(equal_f > 0 && equal_fg > 0, "no ties drawn");
    }

    #[test]
    fn merge_produces_maximal_segments() {
        let e = |x0: i32, x1: i32| (Point::new(LAYER_H, x0, 3), Point::new(LAYER_H, x1, 3));
        let segs = merge_edges(&[e(0, 1), e(1, 2), e(2, 3), e(5, 6)]);
        let wires: Vec<_> = segs.iter().filter(|s| !s.is_via()).collect();
        assert_eq!(wires.len(), 2);
        assert!(wires.iter().any(|s| s.len() == 3));
        assert!(wires.iter().any(|s| s.len() == 1));
    }

    /// Plain Dijkstra without a bound: every node's cheapest cost from
    /// `sources`, where `step(from, to)` prices a step and `None`
    /// forbids it. The quadratic selection keeps it obviously right.
    fn dijkstra(
        grid: &RoutingGrid,
        sources: &[usize],
        step: impl Fn(usize, usize) -> Option<f64>,
    ) -> Vec<f64> {
        let n = grid.width() as usize * grid.height() as usize * usize::from(grid.layers());
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        for &s in sources {
            dist[s] = 0.0;
        }
        while let Some(u) = (0..n)
            .filter(|&i| !done[i] && dist[i].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
        {
            done[u] = true;
            for q in neighbours(grid.point(u)) {
                if !grid.contains(q) {
                    continue;
                }
                let v = grid.index(q);
                if let Some(c) = step(u, v) {
                    dist[v] = dist[v].min(dist[u] + c);
                }
            }
        }
        dist
    }

    /// On random small grids with random usage, history and foreign
    /// pins: the A* bound equals the empty-grid distance to the pin
    /// from every node, a two-pin search costs what a search without
    /// the bound finds, and a multi-pin net covers every pin with a
    /// connected tree that crosses no foreign pin. All costs are
    /// dyadic, so f64 sums are exact and compare with `==`.
    #[test]
    fn prop_searches_are_optimal_and_the_bound_is_exact() {
        secflow_testkit::prop_check!(cases: 96, seed: 0x20A7_B0D5, |g| {
            let (w, h) = (g.random_range(2..9u32) as i32, g.random_range(2..9u32) as i32);
            let opts = RouteOptions {
                layers: g.random_range(2..7u8),
                via_cost: *g.choose(&[0.0, 0.5, 1.0, 3.0, 4.25]),
                ..Default::default()
            };
            let present_factor = *g.choose(&[0.0, 0.5, 0.75, 2.0, 8.0]);
            let mut grid = RoutingGrid::new_with_layers(w, h, opts.layers);
            let n = w as usize * h as usize * usize::from(opts.layers);
            for _ in 0..g.random_range(0..4usize) {
                for _ in 0..g.random_range(0..n) {
                    grid.occupy_at(g.random_range(0..n));
                }
                grid.accrue_history(*g.choose(&[0.25f32, 0.5, 1.0]));
            }

            // Distinct pin sites: the routed net's pins, then foreign
            // ones.
            let mut sites: Vec<(i32, i32)> =
                (0..w).flat_map(|x| (0..h).map(move |y| (x, y))).collect();
            for k in (1..sites.len()).rev() {
                sites.swap(k, g.random_range(0..k + 1));
            }
            let own = g.random_range(2..7usize).min(sites.len());
            let foreign = g.random_range(0..(sites.len() - own) / 2 + 1);
            let (pins, others) = sites.split_at(own);
            let others = &others[..foreign];
            let net = NetId(0);
            let access = |(x, y): (i32, i32)| {
                [LAYER_H, LAYER_V].map(|layer| grid.index(Point::new(layer, x, y)))
            };
            let mut router = Router::new(&grid);
            for (k, &site) in pins.iter().chain(others).enumerate() {
                let owner = if k < own { net.0 } else { k as u32 };
                for i in access(site) {
                    router.claim_pin(i, owner);
                }
            }

            // The bound is the empty grid's exact distance to pin 1.
            let (px, py) = pins[1];
            let wire_or_via = |a: usize, b: usize| {
                if grid.point(a).layer == grid.point(b).layer {
                    1.0
                } else {
                    opts.via_cost
                }
            };
            let empty = dijkstra(&grid, &access(pins[1]), |a, b| Some(wire_or_via(a, b)));
            for (i, &d) in empty.iter().enumerate() {
                let p = grid.point(i);
                assert_eq!(via_bound(p.layer, p.x - px, p.y - py, opts.via_cost), d, "bound at {p}");
            }

            // A two-pin search costs what plain Dijkstra finds.
            let (usage, history) = grid.costs();
            let pin_owner = router.pin_owner.clone();
            let step_cost = |a: usize, b: usize| {
                if b < pin_owner.len() && pin_owner[b] != NO_NET && pin_owner[b] != net.0 {
                    return None;
                }
                let used = f64::from(usage[b]);
                let congestion = if used > 0.0 { present_factor * used } else { 0.0 };
                Some(wire_or_via(a, b) + congestion + f64::from(history[b]))
            };
            let reach = dijkstra(&grid, &access(pins[0]), step_cost);
            let cheapest = |site| access(site).map(|t| reach[t]).into_iter().fold(f64::INFINITY, f64::min);
            let mut tree = NetTree::default();
            match router.route_net(&grid, &pins[..2], &opts, present_factor, net, &mut tree) {
                Some(()) => {
                    // The first edge joins pin 0's access points at no
                    // cost.
                    let cost: f64 = tree.edges[1..]
                        .iter()
                        .map(|&(a, b)| step_cost(a as usize, b as usize).expect("path crosses a foreign pin"))
                        .sum();
                    assert_eq!(cost, cheapest(pins[1]), "two-pin path cost");
                }
                None => assert!(cheapest(pins[1]).is_infinite(), "search missed a path"),
            }

            // A multi-pin net covers every pin and shorts nothing.
            let mut tree = NetTree::default();
            match router.route_net(&grid, pins, &opts, present_factor, net, &mut tree) {
                Some(()) => {
                    let unit: Vec<(Point, Point)> = tree
                        .edges
                        .iter()
                        .map(|&(a, b)| (grid.point(a as usize), grid.point(b as usize)))
                        .collect();
                    let segments = merge_edges(&unit);
                    check_net_connected("n0", &segments, pins);
                    let mut nets = vec![RoutedNet { net, segments }];
                    nets.extend(others.iter().enumerate().map(|(k, &(x, y))| RoutedNet {
                        net: NetId(k as u32 + 1),
                        segments: vec![Segment::new(Point::new(LAYER_H, x, y), Point::new(LAYER_V, x, y))],
                    }));
                    check_no_shorts(&nets);
                }
                None => assert!(
                    pins.iter().any(|&p| cheapest(p).is_infinite()),
                    "a net whose pins are all reachable failed"
                ),
            }
        });
    }

    /// On random grids with usage, history and other nets' pins, every
    /// net routed in windows of margin 0, 1 and 2 gets the tree (nodes
    /// and edges in order) the whole grid gives it, or fails as it
    /// does, and a net none of whose searches escalated pops exactly
    /// what the whole grid pops. Small windows escalate often, so the
    /// certificate decides many searches.
    #[test]
    fn prop_windows_route_as_the_whole_grid() {
        let mut escalations = 0;
        secflow_testkit::prop_check!(cases: 160, seed: 0x3A1D_0C25, |g| {
            let (w, h) = (g.random_range(2..14u32) as i32, g.random_range(2..14u32) as i32);
            let opts = RouteOptions {
                layers: g.random_range(2..6u8),
                via_cost: *g.choose(&[0.0, 0.5, 1.0, 3.0, 4.25]),
                ..Default::default()
            };
            let present_factor = *g.choose(&[0.0, 0.5, 0.75, 2.0, 8.0]);
            let mut grid = RoutingGrid::new_with_layers(w, h, opts.layers);
            let n = w as usize * h as usize * usize::from(opts.layers);
            for _ in 0..g.random_range(0..4usize) {
                for _ in 0..g.random_range(0..n) {
                    grid.occupy_at(g.random_range(0..n));
                }
                grid.accrue_history(*g.choose(&[0.25f32, 0.5, 1.0]));
            }

            // Distinct pin sites, dealt to nets of 2–4 pins.
            let mut sites: Vec<(i32, i32)> =
                (0..w).flat_map(|x| (0..h).map(move |y| (x, y))).collect();
            for k in (1..sites.len()).rev() {
                sites.swap(k, g.random_range(0..k + 1));
            }
            let mut nets: Vec<&[(i32, i32)]> = Vec::new();
            let mut rest = &sites[..];
            for _ in 0..g.random_range(1..7usize) {
                let take = g.random_range(2..5usize).min(rest.len());
                if take < 2 {
                    break;
                }
                let (pins, tail) = rest.split_at(take);
                nets.push(pins);
                rest = tail;
            }
            let mut router = Router::new(&grid);
            for (k, pins) in nets.iter().enumerate() {
                for &(x, y) in *pins {
                    for layer in [LAYER_H, LAYER_V] {
                        router.claim_pin(grid.index(Point::new(layer, x, y)), k as u32);
                    }
                }
            }

            for (k, pins) in nets.iter().enumerate() {
                let mut run = |margin: i32| {
                    router.margin = margin;
                    let (pops, escalated) = (router.pops, router.escalations);
                    let mut tree = NetTree::default();
                    let routed = router.route_net(&grid, pins, &opts, present_factor, NetId(k as u32), &mut tree);
                    (routed.map(|()| tree), router.pops - pops, router.escalations - escalated)
                };
                let (whole, whole_pops, _) = run(i32::MAX);
                for margin in 0..3 {
                    let (tree, pops, escalated) = run(margin);
                    assert_eq!(tree, whole, "net {k} at margin {margin}");
                    if escalated == 0 {
                        assert_eq!(pops, whole_pops, "pops of net {k} at margin {margin}");
                    }
                    escalations += escalated;
                }
            }
        });
        assert!(escalations > 0, "no search escalated");
    }
}
