//! PathFinder-style negotiated-congestion routing on the two-layer
//! track grid.
//!
//! Every net is routed by multi-source Dijkstra from its partial tree
//! to each remaining pin; congestion is resolved by iteratively
//! re-routing all nets with growing present- and history-cost
//! penalties until no grid node is shared.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use secflow_cells::Library;
use secflow_netlist::{NetId, Netlist};

use crate::design::{points_hpwl, PlacedDesign, RoutedDesign, RoutedNet};
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
    /// Router options are degenerate (fewer than two layers: pins
    /// need a horizontal and a vertical layer).
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

/// One grid node's search record; valid only while `stamp` equals the
/// current search number.
#[derive(Clone, Copy)]
struct Node {
    /// Path cost from the tree.
    dist: f64,
    /// Predecessor's grid index (the node itself for tree nodes).
    parent: u32,
    stamp: u32,
}

/// An entry of the A* open list.
#[derive(PartialEq)]
struct Open {
    /// Priority: g + heuristic.
    f: f64,
    /// Path cost from the tree.
    g: f64,
    /// Grid index.
    node: u32,
}

impl Eq for Open {}

impl Ord for Open {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f; ties pop the highest point first. Grid indices
        // follow `Point` order, so the index stands in for the point.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Open {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A net's current route as grid indices: its nodes in the order they
/// joined the tree, and its unit edges as `(from, to)`.
#[derive(Clone, Default)]
struct NetTree {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

/// Dense router state, indexed by [`RoutingGrid::index`] and reused by
/// every search of one [`route`] call.
struct Router {
    /// Owning net of each node on layers 0 and 1 that is a pin access
    /// point, [`NO_NET`] for the others; foreign pins are obstacles.
    pin_owner: Vec<u32>,
    nodes: Vec<Node>,
    search: u32,
    /// `in_tree[i] == tree` marks the nodes of the net being routed.
    in_tree: Vec<u32>,
    tree: u32,
    open: BinaryHeap<Open>,
}

impl Router {
    fn new(grid: &RoutingGrid) -> Self {
        let n = grid.width() as usize * grid.height() as usize * usize::from(grid.layers());
        let pin_plane = grid.width() as usize * grid.height() as usize * 2;
        Router {
            pin_owner: vec![NO_NET; pin_plane],
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
            open: BinaryHeap::new(),
        }
    }

    #[inline]
    fn dist(&self, i: usize) -> f64 {
        let n = &self.nodes[i];
        if n.stamp == self.search {
            n.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, i: usize, dist: f64, parent: u32) {
        self.nodes[i] = Node {
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
    /// Every search is multi-source A* from the partial tree to the
    /// next pin. The open list pops the lowest f first and, on equal
    /// f, the highest point; node costs are `g + step + congestion +
    /// history` and priorities that plus `h`, evaluated in that order.
    /// The layout depends on both, so they must not change.
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
        let (w, h, layers) = (grid.width(), grid.height(), u32::from(grid.layers()));
        let plane = (w * h) as u32;
        let pin_plane = 2 * plane;
        let node_at = |layer: u8, x: i32, y: i32| grid.index(Point::new(layer, x, y)) as u32;
        let (usage, history) = grid.costs();
        Self::next_stamp(&mut self.tree, || self.in_tree.fill(0));

        // Seed the tree with the first pin (both layers).
        let (x0, y0) = pins[0];
        let (s_h, s_v) = (node_at(LAYER_H, x0, y0), node_at(LAYER_V, x0, y0));
        self.add_to_tree(s_h, tree);
        self.add_to_tree(s_v, tree);
        edges.push((s_h, s_v));

        for &(px, py) in &pins[1..] {
            let t_h = node_at(LAYER_H, px, py);
            let t_v = node_at(LAYER_V, px, py);
            if self.in_tree[t_h as usize] == self.tree || self.in_tree[t_v as usize] == self.tree {
                // The pin is already on the tree.
                continue;
            }
            Self::next_stamp(&mut self.search, || {
                self.nodes.iter_mut().for_each(|n| n.stamp = 0)
            });
            // A*: an admissible heuristic (Manhattan distance to the
            // sink; every wire step costs at least 1, vias cost extra
            // but do not change x/y) keeps the search focused without
            // affecting optimality.
            let heuristic = |x: i32, y: i32| f64::from((x - px).abs() + (y - py).abs());
            self.open.clear();
            for &i in tree.iter() {
                self.set(i as usize, 0.0, i);
                let p = grid.point(i as usize);
                self.open.push(Open {
                    f: heuristic(p.x, p.y),
                    g: 0.0,
                    node: i,
                });
            }
            let mut found = None;
            while let Some(Open { f: _, g, node }) = self.open.pop() {
                if g > self.dist(node as usize) {
                    continue; // stale entry
                }
                if node == t_h || node == t_v {
                    found = Some(node);
                    break;
                }
                let p = grid.point(node as usize);
                let (layer, x, y) = (u32::from(p.layer), p.x, p.y);
                // Neighbours: along the layer direction, then the vias
                // down and up.
                let mut relax = |ni: u32, nx: i32, ny: i32, step: f64| {
                    let i = ni as usize;
                    // Foreign pin points are hard obstacles.
                    if ni < pin_plane && self.pin_owner[i] != NO_NET && self.pin_owner[i] != net.0 {
                        return;
                    }
                    let used = f64::from(usage[i]);
                    let congestion = if used > 0.0 {
                        present_factor * used
                    } else {
                        0.0
                    };
                    let nc = g + step + congestion + f64::from(history[i]);
                    if nc < self.dist(i) {
                        self.set(i, nc, node);
                        self.open.push(Open {
                            f: nc + heuristic(nx, ny),
                            g: nc,
                            node: ni,
                        });
                    }
                };
                if is_horizontal(layer as u8) {
                    if x > 0 {
                        relax(node - h as u32, x - 1, y, 1.0);
                    }
                    if x + 1 < w {
                        relax(node + h as u32, x + 1, y, 1.0);
                    }
                } else {
                    if y > 0 {
                        relax(node - 1, x, y - 1, 1.0);
                    }
                    if y + 1 < h {
                        relax(node + 1, x, y + 1, 1.0);
                    }
                }
                if layer > 0 {
                    relax(node - plane, x, y, opts.via_cost);
                }
                if layer + 1 < layers {
                    relax(node + plane, x, y, opts.via_cost);
                }
            }
            // Backtrace to the tree.
            let mut i = found?;
            loop {
                let parent = self.nodes[i as usize].parent;
                self.add_to_tree(i, tree);
                if parent == i {
                    break;
                }
                edges.push((parent, i));
                i = parent;
            }
        }
        Some(())
    }
}

/// Routes all multi-pin nets of `placed`, returning the routed design.
///
/// # Errors
///
/// Returns [`RouteError`] if the options are degenerate (fewer than
/// two layers), a gate's cell is missing from `lib`, the placement is
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
                router.pin_owner[i] = net.0;
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

    /// Checks that every routed net forms a connected tree touching
    /// all its pins.
    fn check_connectivity(nl: &Netlist, lib: &Library, d: &RoutedDesign) {
        use std::collections::HashSet;
        for rn in &d.nets {
            // Expand segments back to points.
            let mut pts: HashSet<Point> = HashSet::new();
            for s in &rn.segments {
                if s.is_via() {
                    pts.insert(s.a);
                    pts.insert(s.b);
                } else if is_horizontal(s.a.layer) {
                    let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                    for x in x0..=x1 {
                        pts.insert(Point::new(s.a.layer, x, s.a.y));
                    }
                } else {
                    let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                    for y in y0..=y1 {
                        pts.insert(Point::new(s.a.layer, s.a.x, y));
                    }
                }
            }
            // All pins present on at least one layer.
            for (x, y) in d.placed.net_pins(nl, lib, rn.net) {
                assert!(
                    pts.contains(&Point::new(LAYER_H, x, y))
                        || pts.contains(&Point::new(LAYER_V, x, y)),
                    "pin ({x},{y}) of net {} not covered",
                    nl.net(rn.net).name
                );
            }
            // Connectivity: BFS over adjacency within the point set.
            let start = *pts.iter().next().expect("non-empty route");
            let mut seen = HashSet::from([start]);
            let mut stack = vec![start];
            while let Some(p) = stack.pop() {
                let mut neigh = vec![Point::new(p.layer + 1, p.x, p.y)];
                if p.layer > 0 {
                    neigh.push(Point::new(p.layer - 1, p.x, p.y));
                }
                if is_horizontal(p.layer) {
                    neigh.push(Point::new(p.layer, p.x - 1, p.y));
                    neigh.push(Point::new(p.layer, p.x + 1, p.y));
                } else {
                    neigh.push(Point::new(p.layer, p.x, p.y - 1));
                    neigh.push(Point::new(p.layer, p.x, p.y + 1));
                }
                for q in neigh {
                    if pts.contains(&q) && seen.insert(q) {
                        stack.push(q);
                    }
                }
            }
            assert_eq!(seen.len(), pts.len(), "disconnected route");
        }
    }

    /// No two different nets may share a grid node.
    fn check_no_shorts(d: &RoutedDesign) {
        use std::collections::HashMap;
        let mut owner: HashMap<Point, NetId> = HashMap::new();
        for rn in &d.nets {
            for s in &rn.segments {
                let pts: Vec<Point> = if s.is_via() {
                    vec![s.a, s.b]
                } else if is_horizontal(s.a.layer) {
                    let (x0, x1) = (s.a.x.min(s.b.x), s.a.x.max(s.b.x));
                    (x0..=x1).map(|x| Point::new(s.a.layer, x, s.a.y)).collect()
                } else {
                    let (y0, y1) = (s.a.y.min(s.b.y), s.a.y.max(s.b.y));
                    (y0..=y1).map(|y| Point::new(s.a.layer, s.a.x, y)).collect()
                };
                for p in pts {
                    if let Some(&o) = owner.get(&p) {
                        assert_eq!(o, rn.net, "short at {p}");
                    } else {
                        owner.insert(p, rn.net);
                    }
                }
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
        check_no_shorts(&routed);
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
        check_no_shorts(&routed);
        check_connectivity(&nl, &lib, &routed);
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
}
