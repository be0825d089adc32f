//! Sparse on-demand routing over a [`LaneMap`] for fleet dispatch.
//!
//! The dispatcher and every vehicle tick need three queries — "how far is
//! vehicle V from pickup P", "which lanes does V drive to reach P", and
//! "give me a uniformly random position" — millions of times per
//! simulated day. The table stores only the graph: lanes re-indexed `0..n`
//! in ascending [`LaneId`] order, forward **and reverse** adjacency in CSR
//! form, each lane's start point, and a cumulative-length table for
//! `O(log n)` position sampling.
//!
//! Route queries are answered two ways, with bit-identical results:
//!
//! * a [`RouteField`] ([`RouteTable::field_to`]): one reverse binary-heap
//!   Dijkstra per destination lane, the distance from the start of
//!   **every** lane to it. [`RouteCache`] keeps every lane's field
//!   resident when they all fit its byte budget (small maps), and keeps
//!   none otherwise;
//! * a **goal-directed leg** ([`RouteTable::route`]): a reverse A\* from
//!   the destination toward the successors of the query's start lane,
//!   keyed `d(u) + h(u)` with `h(u) = (1 − 10⁻⁹)·|end(from) − start(u)|`.
//!   On a contiguous map (`max_connection_gap_m() == 0`) the straight line
//!   never exceeds the driving distance, so `h` is consistent, and the
//!   search stops only once the next key exceeds the best successor
//!   distance: every lane whose value or tie the query reads is settled
//!   exactly as the full field settles it (DESIGN.md §15). On a gapped map
//!   the same search runs without the bound and settles every lane.
//!
//! A ride never holds a field: dispatch turns each leg into its lane path
//! (the successors [`RouteTable::advance_with`] enters, first-minimal
//! tie-break included), so per-tick motion reads no routing state at all.
//!
//! Every search pops in `(key, lane)` order via `f64::total_cmp` and
//! relaxes predecessor lists in CSR order, so equal maps produce
//! bit-identical distances and paths on every platform.

use sov_math::Pose2;
use sov_world::map::{Lane, LaneId, LaneMap};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Scale of the A\* heuristic: a hair under one, so that `sqrt` rounding
/// in the straight-line bound can never lift it above the driving
/// distance it bounds (DESIGN.md §15).
const HEURISTIC_SCALE: f64 = 1.0 - 1e-9;

/// A position on the network: dense lane index plus arclength within it.
///
/// `lane` indexes the [`RouteTable`]'s dense ordering (ascending
/// [`LaneId`]), not the raw lane id — use [`RouteTable::lane_id`] to map
/// back when talking to `sov-world`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPos {
    /// Dense lane index in `[0, RouteTable::len())`.
    pub lane: u32,
    /// Arclength along the lane's centerline (meters).
    pub s: f64,
}

/// Result of one [`RouteTable::advance_with`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advance {
    /// Distance actually moved (meters); at most the requested budget.
    pub moved_m: f64,
    /// Whether the destination was reached exactly.
    pub arrived: bool,
}

/// Axis-aligned bounding box of the network's centerlines (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Smallest x over every centerline vertex.
    pub min_x: f64,
    /// Smallest y over every centerline vertex.
    pub min_y: f64,
    /// Largest x over every centerline vertex.
    pub max_x: f64,
    /// Largest y over every centerline vertex.
    pub max_y: f64,
}

/// The shortest-distance field toward one destination lane: for every lane
/// `a`, the driving distance start(`a`) → start(`dest`), where traversing
/// a lane costs its centerline length.
///
/// Produced by [`RouteTable::field_to`] (one reverse Dijkstra, O(E log N))
/// and kept by a resident [`RouteCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteField {
    dest: u32,
    dist: Vec<f64>,
}

impl RouteField {
    /// The destination lane this field routes toward.
    #[must_use]
    pub fn dest(&self) -> u32 {
        self.dest
    }

    /// Distance start(`lane`) → start of the destination lane (meters).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn to_start(&self, lane: u32) -> f64 {
        self.dist[lane as usize]
    }
}

/// Heap entry for the reverse searches. Ordered so the [`BinaryHeap`] (a
/// max-heap) pops the smallest `(key, lane)` pair first — the lane
/// tie-break makes the pop order total and platform-independent. `g` is
/// the distance the entry was pushed with (`key − g` is the heuristic).
#[derive(Debug, PartialEq)]
struct Visit {
    key: f64,
    g: f64,
    lane: u32,
}

impl Eq for Visit {}

impl Ord for Visit {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.lane.cmp(&self.lane))
    }
}

impl PartialOrd for Visit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable state of the reverse searches: tentative distances (reset
/// through a touched list, never an O(n) clear), the heap, and work
/// counters. One scratch serves one search at a time; a search leaves its
/// distances in place until the next one starts.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Tentative distance start(u) → start(destination); `∞` where the
    /// last search never reached.
    dist: Vec<f64>,
    touched: Vec<u32>,
    heap: BinaryHeap<Visit>,
    searches: u64,
    settled: u64,
}

impl RouteScratch {
    /// An empty scratch; its buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches run in this scratch.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Lanes settled (popped with their final distance) by every search
    /// run in this scratch.
    #[must_use]
    pub fn settled_lanes(&self) -> u64 {
        self.settled
    }

    /// Zeroes the work counters.
    pub fn reset_counters(&mut self) {
        self.searches = 0;
        self.settled = 0;
    }

    /// Prepares for a search over `n` lanes: every distance `∞`, empty heap.
    fn reset(&mut self, n: usize) {
        if self.dist.len() == n {
            for &u in &self.touched {
                self.dist[u as usize] = f64::INFINITY;
            }
        } else {
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
        }
        self.touched.clear();
        self.heap.clear();
    }
}

/// Compiled routing structures over a strongly connected [`LaneMap`].
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Lanes in ascending id order (dense index → lane).
    lanes: Vec<Lane>,
    /// Forward CSR: successors of lane `i` are
    /// `succ[succ_off[i]..succ_off[i + 1]]`, in the lane's original
    /// successor-list order (the `next_hop` tie-break order).
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// Reverse CSR: predecessors of lane `i`, ascending.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    /// Centerline length per lane (meters), parallel to `lanes`.
    len_m: Vec<f64>,
    /// First centerline vertex per lane (the A\* heuristic's geometry).
    start_xy: Vec<(f64, f64)>,
    /// `cum[i]` = total length of lanes `0..i`; `cum[n]` = network length.
    cum: Vec<f64>,
    /// Centerline bounding box (spatial-index geometry).
    bounds: Bounds,
    /// Largest Euclidean gap between a lane's end vertex and a successor's
    /// start vertex. Exactly `0.0` for geometrically contiguous maps —
    /// the precondition for the spatial index's Euclidean lower bound.
    max_gap_m: f64,
}

impl RouteTable {
    /// Compiles the routing structures for `map`.
    ///
    /// Unlike the 0.9.0 dense build this is O(V + E): no all-pairs matrix
    /// is materialized, so OSM-scale maps (tens of thousands of lanes)
    /// stay loadable. Distances are computed on demand via
    /// [`RouteTable::field_to`].
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or not strongly connected — fleet
    /// dispatch requires every position to be reachable from every other.
    #[must_use]
    pub fn new(map: &LaneMap) -> Self {
        assert!(!map.is_empty(), "fleet map must have at least one lane");
        let lanes: Vec<Lane> = map.iter().cloned().collect();
        let n = lanes.len();
        let index_of = |id: LaneId| -> u32 {
            lanes
                .binary_search_by_key(&id, Lane::id)
                .expect("successor ids exist in the map") as u32
        };
        // Forward CSR, preserving each lane's successor-list order.
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_off.push(0u32);
        for lane in &lanes {
            for &id in lane.successors() {
                succ.push(index_of(id));
            }
            succ_off.push(succ.len() as u32);
        }
        // Reverse CSR via counting sort: predecessors end up ascending.
        let mut pred_off = vec![0u32; n + 1];
        for &v in &succ {
            pred_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut cursor = pred_off.clone();
        let mut pred = vec![0u32; succ.len()];
        for u in 0..n {
            for &v in &succ[succ_off[u] as usize..succ_off[u + 1] as usize] {
                pred[cursor[v as usize] as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }
        let len_m: Vec<f64> = lanes.iter().map(Lane::length_m).collect();
        let start_xy: Vec<(f64, f64)> = lanes
            .iter()
            .map(|l| *l.centerline().first().expect("non-empty centerline"))
            .collect();
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0);
        for &l in &len_m {
            cum.push(cum.last().expect("non-empty") + l);
        }
        // Bounding box + connection-gap audit for the spatial index.
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for lane in &lanes {
            for &(x, y) in lane.centerline() {
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
        }
        let mut max_gap_m = 0.0f64;
        for (u, lane) in lanes.iter().enumerate() {
            let &(ex, ey) = lane.centerline().last().expect("non-empty centerline");
            for &v in &succ[succ_off[u] as usize..succ_off[u + 1] as usize] {
                let &(sx, sy) = lanes[v as usize]
                    .centerline()
                    .first()
                    .expect("non-empty centerline");
                max_gap_m = max_gap_m.max(((ex - sx).powi(2) + (ey - sy).powi(2)).sqrt());
            }
        }
        let table = Self {
            lanes,
            succ_off,
            succ,
            pred_off,
            pred,
            len_m,
            start_xy,
            cum,
            bounds: Bounds {
                min_x,
                min_y,
                max_x,
                max_y,
            },
            max_gap_m,
        };
        // Strong connectivity: node 0 reaches everything forward and
        // backward. Two O(V + E) sweeps replace the 0.9.0 per-row
        // finiteness checks.
        let unreachable = |off: &[u32], adj: &[u32]| -> Option<usize> {
            let mut seen = vec![false; n];
            let mut frontier = vec![0usize];
            seen[0] = true;
            while let Some(u) = frontier.pop() {
                for &v in &adj[off[u] as usize..off[u + 1] as usize] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        frontier.push(v as usize);
                    }
                }
            }
            seen.iter().position(|&s| !s)
        };
        let forward = unreachable(&table.succ_off, &table.succ);
        let backward = unreachable(&table.pred_off, &table.pred);
        if let Some(lane) = forward.or(backward) {
            panic!("fleet map must be strongly connected (lane {lane} unreachable)");
        }
        table
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the table has no lanes (never true: `new` rejects it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The original [`LaneId`] of a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_id(&self, lane: u32) -> LaneId {
        self.lanes[lane as usize].id()
    }

    /// Centerline length of a lane (meters).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn lane_length(&self, lane: u32) -> f64 {
        self.len_m[lane as usize]
    }

    /// Speed limit of a lane (m/s).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn speed_limit(&self, lane: u32) -> f64 {
        self.lanes[lane as usize].speed_limit_mps()
    }

    /// Total centerline length of the network (meters).
    #[must_use]
    pub fn total_length_m(&self) -> f64 {
        *self.cum.last().expect("cum has n+1 entries")
    }

    /// Successors of `lane` in tie-break order (the lane's original list).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn successors(&self, lane: u32) -> &[u32] {
        let lane = lane as usize;
        &self.succ[self.succ_off[lane] as usize..self.succ_off[lane + 1] as usize]
    }

    /// Centerline bounding box (the spatial index's fixed geometry).
    #[must_use]
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Largest Euclidean gap between a lane end and a successor start
    /// (meters). Exactly `0.0` on geometrically contiguous maps such as
    /// [`sov_world::map::grid_network`] — the precondition under which
    /// straight-line distance lower-bounds driving distance, which the
    /// spatial index's ring pruning relies on.
    #[must_use]
    pub fn max_connection_gap_m(&self) -> f64 {
        self.max_gap_m
    }

    /// World pose at a network position.
    ///
    /// # Panics
    ///
    /// Panics if the position's lane is out of range.
    #[must_use]
    pub fn pose(&self, pos: FleetPos) -> Pose2 {
        self.lanes[pos.lane as usize].pose_at(pos.s)
    }

    /// Maps `u ∈ [0, 1)` to a network position, uniform by arclength.
    ///
    /// Dense mirror of [`LaneMap::sample_position`]: identical semantics
    /// (lanes laid end to end in ascending id order), but `O(log n)` via
    /// the cumulative-length table.
    #[must_use]
    pub fn sample(&self, u: f64) -> FleetPos {
        let target = u.clamp(0.0, 1.0 - f64::EPSILON) * self.total_length_m();
        // partition_point: first lane whose *end* lies beyond target.
        let i = self.cum[1..].partition_point(|&end| end <= target);
        let i = i.min(self.lanes.len() - 1);
        FleetPos {
            lane: i as u32,
            s: (target - self.cum[i]).min(self.len_m[i]),
        }
    }

    /// Computes the shortest-distance field toward `dest`: one binary-heap
    /// Dijkstra over the reverse graph, O(E log N), bit-reproducible
    /// (pops ordered by `(distance, lane)` via `total_cmp`, predecessors
    /// relaxed in CSR order).
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    #[must_use]
    pub fn field_to(&self, dest: u32) -> RouteField {
        assert!(
            (dest as usize) < self.lanes.len(),
            "destination lane out of range"
        );
        let mut scratch = RouteScratch::new();
        self.reverse_search(dest, None, &mut scratch);
        RouteField {
            dest,
            dist: scratch.dist,
        }
    }

    /// The reverse search behind every route query, writing distances
    /// start(u) → start(`dest`) into `sc`, and returning the smallest of
    /// them over the successors of `toward` (`∞` without `toward`).
    ///
    /// Without `toward`, or on a map with connection gaps, it is the full
    /// Dijkstra and settles every lane. With `toward` on a contiguous map
    /// it is A\* keyed `d(u) + h(u)`, `h(u) = (1 − 10⁻⁹)·|end(toward) −
    /// start(u)|`, and stops once the next key exceeds the best successor
    /// distance found. `h` is consistent there (a lane's chord never
    /// exceeds its arc and `end(u) = start(successor)`; the 10⁻⁹ slack
    /// covers `sqrt` rounding), so every lane popped holds its exact field
    /// value, and every lane whose value or tie `toward`'s route reads has
    /// a key below the stopping key — see DESIGN.md §15.
    fn reverse_search(&self, dest: u32, toward: Option<u32>, sc: &mut RouteScratch) -> f64 {
        sc.reset(self.lanes.len());
        sc.searches += 1;
        let (goal, targets) = match toward {
            Some(a) => {
                let end = *self.lanes[a as usize]
                    .centerline()
                    .last()
                    .expect("non-empty centerline");
                ((self.max_gap_m == 0.0).then_some(end), self.successors(a))
            }
            None => (None, &[][..]),
        };
        let h = |u: u32| {
            goal.map_or(0.0, |(ex, ey)| {
                let (sx, sy) = self.start_xy[u as usize];
                HEURISTIC_SCALE * ((sx - ex).powi(2) + (sy - ey).powi(2)).sqrt()
            })
        };
        let mut best = if targets.contains(&dest) {
            0.0
        } else {
            f64::INFINITY
        };
        sc.dist[dest as usize] = 0.0;
        sc.touched.push(dest);
        sc.heap.push(Visit {
            key: h(dest),
            g: 0.0,
            lane: dest,
        });
        while let Some(top) = sc.heap.peek() {
            // Past the best successor distance every lane the answer
            // reads is settled (DESIGN.md §15).
            if goal.is_some() && top.key > best {
                break;
            }
            let Visit { g, lane, .. } = sc.heap.pop().expect("peeked above");
            if g > sc.dist[lane as usize] {
                continue; // stale entry, already settled closer
            }
            sc.settled += 1;
            let lane = lane as usize;
            for &u in &self.pred[self.pred_off[lane] as usize..self.pred_off[lane + 1] as usize] {
                // Arriving at `lane`'s start from `u`'s start costs `u`'s
                // full length.
                let cand = self.len_m[u as usize] + g;
                if cand < sc.dist[u as usize] {
                    if sc.dist[u as usize] == f64::INFINITY {
                        sc.touched.push(u);
                    }
                    sc.dist[u as usize] = cand;
                    sc.heap.push(Visit {
                        key: cand + h(u),
                        g: cand,
                        lane: u,
                    });
                    if cand < best && targets.contains(&u) {
                        best = cand;
                    }
                }
            }
        }
        best
    }

    /// Shortest driving distance from `from` to `to`, answered by one
    /// goal-directed leg search in `sc` (no field is built or kept).
    ///
    /// Bit-identical to [`RouteTable::travel_distance_with`] over the full
    /// field for `to.lane`. A `from` at or before `to` on the same lane
    /// needs no search.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range.
    pub fn route(&self, from: FleetPos, to: FleetPos, sc: &mut RouteScratch) -> f64 {
        if from.lane == to.lane && from.s <= to.s {
            return to.s - from.s;
        }
        let best = self.reverse_search(to.lane, Some(from.lane), sc);
        (self.lane_length(from.lane) - from.s) + best + to.s
    }

    /// [`RouteTable::route`], also writing the leg's lane path into `out`:
    /// the lanes [`RouteTable::advance_with`] enters, identical to
    /// [`RouteTable::path_with`] over the full field.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range.
    pub fn route_path(
        &self,
        from: FleetPos,
        to: FleetPos,
        sc: &mut RouteScratch,
        out: &mut Vec<u32>,
    ) -> f64 {
        let d = self.route(from, to, sc);
        self.walk(from, to, |s| sc.dist[s as usize], out);
        d
    }

    /// Writes into `out` the lanes a vehicle at `from` enters on its way
    /// to `to`, following `field` (compiled for `to.lane`): each lane's
    /// first successor of minimal distance, ending with `to.lane`; empty
    /// when `to` lies ahead on `from`'s lane.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range, or (debug builds) if
    /// `field` routes elsewhere.
    pub fn path_with(&self, from: FleetPos, to: FleetPos, field: &RouteField, out: &mut Vec<u32>) {
        debug_assert_eq!(
            field.dest(),
            to.lane,
            "field compiled for a different destination lane"
        );
        self.walk(from, to, |s| field.to_start(s), out);
    }

    /// The lane path from `from` to `to` ([`RouteTable::path_with`]).
    ///
    /// Convenience for tests and offline callers: computes a fresh field
    /// per call.
    ///
    /// # Panics
    ///
    /// Panics if either lane index is out of range.
    #[must_use]
    pub fn path(&self, from: FleetPos, to: FleetPos) -> Vec<u32> {
        let mut out = Vec::new();
        self.path_with(from, to, &self.field_to(to.lane), &mut out);
        out
    }

    /// The shortest-path walk shared by fields and leg searches: from
    /// `from.lane`, repeatedly the first successor of minimal `dist`,
    /// until `to.lane` is entered. Each hop strictly lowers `dist`, so the
    /// walk ends.
    fn walk(&self, from: FleetPos, to: FleetPos, dist: impl Fn(u32) -> f64, out: &mut Vec<u32>) {
        out.clear();
        if from.lane == to.lane && from.s <= to.s {
            return;
        }
        let mut lane = from.lane;
        loop {
            let mut best = f64::INFINITY;
            let mut hop = u32::MAX;
            for &s in self.successors(lane) {
                let d = dist(s);
                if d < best {
                    best = d;
                    hop = s;
                }
            }
            assert!(hop != u32::MAX, "strongly connected maps have no dead ends");
            out.push(hop);
            if hop == to.lane {
                return;
            }
            lane = hop;
        }
    }

    /// Shortest distance from the start of lane `a` to the start of lane
    /// `b` (meters; traversing a lane costs its length, `b` itself is not
    /// traversed).
    ///
    /// Convenience for tests and offline callers: computes a fresh
    /// [`RouteField`] per call (O(E log N)). Hot paths hold a field and
    /// use [`RouteField::to_start`].
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn start_to_start(&self, a: u32, b: u32) -> f64 {
        assert!((a as usize) < self.lanes.len(), "lane index out of range");
        self.field_to(b).to_start(a)
    }

    /// Shortest distance from the **end** of lane `a` to the start of the
    /// field's destination lane — the first hop of every route leaving `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn end_to_start_with(&self, a: u32, field: &RouteField) -> f64 {
        let mut best = f64::INFINITY;
        for &s in self.successors(a) {
            let d = field.to_start(s);
            if d < best {
                best = d;
            }
        }
        best
    }

    /// Shortest driving distance from `from` to `to` along the lane graph,
    /// answered from a precomputed field for `to`'s lane.
    ///
    /// # Panics
    ///
    /// Panics if a lane index is out of range, or (debug builds) if
    /// `field` was compiled for a different destination lane.
    #[must_use]
    pub fn travel_distance_with(&self, from: FleetPos, to: FleetPos, field: &RouteField) -> f64 {
        debug_assert_eq!(
            field.dest(),
            to.lane,
            "field compiled for a different destination lane"
        );
        if from.lane == to.lane && from.s <= to.s {
            return to.s - from.s;
        }
        (self.lane_length(from.lane) - from.s) + self.end_to_start_with(from.lane, field) + to.s
    }

    /// Shortest driving distance from `from` to `to` along the lane graph.
    ///
    /// Convenience for tests and offline callers: computes a fresh field
    /// per call. Hot paths use [`RouteTable::travel_distance_with`] or
    /// [`RouteTable::route`].
    ///
    /// # Panics
    ///
    /// Panics if either lane index is out of range.
    #[must_use]
    pub fn travel_distance(&self, from: FleetPos, to: FleetPos) -> f64 {
        if from.lane == to.lane && from.s <= to.s {
            return to.s - from.s;
        }
        self.travel_distance_with(from, to, &self.field_to(to.lane))
    }

    /// Moves `pos` up to `budget_m` meters toward `dest` along a lane path
    /// from [`RouteTable::route_path`] or [`RouteTable::path_with`]:
    /// `path[*hop]` is the next lane to enter, and `*hop` advances past
    /// every lane entered. Arrival is exact: when the destination lies
    /// within the budget, `pos` is set to `dest` bit-for-bit and
    /// [`Advance::arrived`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if the path runs out before `dest.lane`, or (debug builds)
    /// if `budget_m` is negative.
    pub fn advance_with(
        &self,
        pos: &mut FleetPos,
        dest: FleetPos,
        budget_m: f64,
        path: &[u32],
        hop: &mut usize,
    ) -> Advance {
        debug_assert!(budget_m >= 0.0, "advance budget cannot be negative");
        let mut budget = budget_m;
        let mut moved = 0.0;
        // Each iteration either exhausts the budget or enters the next
        // lane of the path, which ends at the destination lane.
        loop {
            if pos.lane == dest.lane && pos.s <= dest.s {
                let gap = dest.s - pos.s;
                if gap <= budget {
                    *pos = dest;
                    return Advance {
                        moved_m: moved + gap,
                        arrived: true,
                    };
                }
                pos.s += budget;
                return Advance {
                    moved_m: moved + budget,
                    arrived: false,
                };
            }
            let remain = self.lane_length(pos.lane) - pos.s;
            if budget < remain {
                pos.s += budget;
                return Advance {
                    moved_m: moved + budget,
                    arrived: false,
                };
            }
            moved += remain;
            budget -= remain;
            pos.lane = *path
                .get(*hop)
                .expect("a leg's path ends at its destination lane");
            *hop += 1;
            pos.s = 0.0;
        }
    }
}

/// Where a route query toward one destination lane is answered: its
/// resident [`RouteField`], or goal-directed leg searches in a scratch.
/// Both give bit-identical distances and paths.
#[derive(Debug)]
pub enum RouteTo<'a> {
    /// The destination's resident field.
    Field(&'a RouteField),
    /// One [`RouteTable::route`] search per query, in this scratch.
    Search(&'a mut RouteScratch),
}

impl RouteTo<'_> {
    /// Shortest driving distance `from` → `to` (`to.lane` must be the
    /// destination this value routes toward).
    pub fn distance(&mut self, table: &RouteTable, from: FleetPos, to: FleetPos) -> f64 {
        match self {
            Self::Field(f) => table.travel_distance_with(from, to, f),
            Self::Search(sc) => table.route(from, to, sc),
        }
    }

    /// Writes the lane path `from` → `to` into `out`.
    pub fn path_into(
        &mut self,
        table: &RouteTable,
        from: FleetPos,
        to: FleetPos,
        out: &mut Vec<u32>,
    ) {
        match self {
            Self::Field(f) => table.path_with(from, to, f, out),
            Self::Search(sc) => {
                table.route_path(from, to, sc, out);
            }
        }
    }
}

/// Deterministic, all-or-nothing memo of [`RouteField`]s, keyed by
/// destination lane, plus the scratch for searches run on the serial
/// phases.
///
/// A field costs 8 B per lane, so a map of `n` lanes needs `8·n²` bytes
/// to keep every field. When the byte budget covers that, fields fill
/// lazily and stay resident (the 12×12 grid: 2.2 MB); otherwise none is
/// kept (the 40×40 grid would need 311 MB) and every query is a
/// goal-directed leg search. The cache is touched only on the serial
/// phases of the fleet tick, so its state after tick T is a pure function
/// of the request/trip sequence, identical for every worker count.
#[derive(Debug)]
pub struct RouteCache {
    /// One slot per lane when resident; empty otherwise.
    slots: Vec<Option<RouteField>>,
    len: usize,
    scratch: RouteScratch,
    hits: u64,
    fills: u64,
}

impl RouteCache {
    /// Creates an empty cache for `table` that keeps fields resident iff
    /// every lane's field fits `budget_bytes` ([`RouteCache::fits`]).
    #[must_use]
    pub fn new(table: &RouteTable, budget_bytes: usize) -> Self {
        let slots = if Self::fits(table, budget_bytes) {
            std::iter::repeat_with(|| None).take(table.len()).collect()
        } else {
            Vec::new()
        };
        Self {
            slots,
            len: 0,
            scratch: RouteScratch::new(),
            hits: 0,
            fills: 0,
        }
    }

    /// Whether `budget_bytes` holds a field for every lane of `table`
    /// (`8 · lanes²` bytes).
    #[must_use]
    pub fn fits(table: &RouteTable, budget_bytes: usize) -> bool {
        let field_bytes = std::mem::size_of::<f64>() * table.len();
        budget_bytes / field_bytes >= table.len()
    }

    /// Whether fields are kept resident.
    #[must_use]
    pub fn is_resident(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Serial-phase query toward `dest`: its resident field (computed on
    /// first use; one hit or miss per call), or, when not resident, leg
    /// searches in the cache's own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range for `table`.
    pub fn to(&mut self, table: &RouteTable, dest: u32) -> RouteTo<'_> {
        if self.slots.is_empty() {
            return RouteTo::Search(&mut self.scratch);
        }
        let slot = &mut self.slots[dest as usize];
        if slot.is_some() {
            self.hits += 1;
        } else {
            self.fills += 1;
            self.len += 1;
        }
        RouteTo::Field(slot.get_or_insert_with(|| table.field_to(dest)))
    }

    /// Read-only query toward `dest` for a parallel stage: the resident
    /// field if one is held, else leg searches in the caller's `scratch`.
    /// Never fills and counts nothing.
    #[must_use]
    pub fn shared_to<'a>(&'a self, dest: u32, scratch: &'a mut RouteScratch) -> RouteTo<'a> {
        match self.resident(dest) {
            Some(field) => RouteTo::Field(field),
            None => RouteTo::Search(scratch),
        }
    }

    /// The resident field toward `dest`, if held (read-only: never fills
    /// and counts nothing).
    #[must_use]
    pub fn resident(&self, dest: u32) -> Option<&RouteField> {
        self.slots.get(dest as usize).and_then(Option::as_ref)
    }

    /// Fields currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no field is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lookups served from a resident field.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Searches run: field fills plus leg searches in the cache's scratch.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.fills + self.scratch.searches()
    }

    /// Lanes settled by those searches (a full field settles every lane).
    #[must_use]
    pub fn settled_lanes(&self) -> u64 {
        self.fills * self.slots.len() as u64 + self.scratch.settled_lanes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::map::{grid_network, rectangular_loop};

    fn table() -> RouteTable {
        RouteTable::new(&grid_network(3, 3, 50.0, 2.5, 8.0))
    }

    #[test]
    fn sample_matches_lane_map_sampler() {
        let map = grid_network(3, 4, 80.0, 2.5, 8.0);
        let t = RouteTable::new(&map);
        for k in 0..100 {
            let u = f64::from(k) / 100.0;
            let (id, s) = map.sample_position(u).expect("non-empty");
            let pos = t.sample(u);
            assert_eq!(t.lane_id(pos.lane), id, "u = {u}");
            assert!((pos.s - s).abs() < 1e-9, "u = {u}: {} vs {s}", pos.s);
        }
    }

    #[test]
    fn travel_distance_same_lane() {
        let t = table();
        let a = FleetPos { lane: 0, s: 10.0 };
        let b = FleetPos { lane: 0, s: 35.0 };
        assert!((t.travel_distance(a, b) - 25.0).abs() < 1e-12);
        // Behind on the same lane: must loop around, strictly positive.
        let back = t.travel_distance(b, a);
        assert!(back > 25.0, "loop-around distance {back}");
    }

    #[test]
    fn field_matches_dense_reference_dijkstra() {
        // Re-run the 0.9.0 dense scan-Dijkstra as an oracle and compare
        // every field entry against it.
        let t = table();
        let n = t.len();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut visited = vec![false; n];
        for source in 0..n {
            let row = &mut dist[source * n..(source + 1) * n];
            row[source] = 0.0;
            visited.iter_mut().for_each(|v| *v = false);
            for _ in 0..n {
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for (i, &d) in row.iter().enumerate() {
                    if !visited[i] && d < best {
                        best = d;
                        u = i;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                visited[u] = true;
                let through = row[u] + t.lane_length(u as u32);
                for &v in t.successors(u as u32) {
                    let v = v as usize;
                    if through < row[v] {
                        row[v] = through;
                    }
                }
            }
        }
        for dest in 0..n as u32 {
            let field = t.field_to(dest);
            for a in 0..n as u32 {
                let want = dist[a as usize * n + dest as usize];
                let got = field.to_start(a);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{a} → {dest}: field {got} vs dense {want}"
                );
            }
        }
    }

    #[test]
    fn travel_distance_is_consistent_with_dijkstra() {
        let t = table();
        // From the start of lane a to the start of lane b equals the
        // field entry.
        for b in 0..t.len() as u32 {
            let field = t.field_to(b);
            for a in 0..t.len() as u32 {
                let d = t.travel_distance_with(
                    FleetPos { lane: a, s: 0.0 },
                    FleetPos { lane: b, s: 0.0 },
                    &field,
                );
                assert!(
                    (d - field.to_start(a)).abs() < 1e-9,
                    "{a} → {b}: {d} vs {}",
                    field.to_start(a)
                );
            }
        }
    }

    /// Drives `pos` to `dest` in `step`-meter ticks along the field path.
    fn drive(t: &RouteTable, pos: &mut FleetPos, dest: FleetPos, step: f64) -> (f64, bool) {
        let path = t.path(*pos, dest);
        let mut hop = 0;
        let mut moved = 0.0;
        for _ in 0..10_000 {
            let a = t.advance_with(pos, dest, step, &path, &mut hop);
            moved += a.moved_m;
            if a.arrived {
                assert_eq!(hop, path.len(), "arrival must consume the whole path");
                return (moved, true);
            }
        }
        (moved, false)
    }

    #[test]
    fn advance_reaches_destination_exactly() {
        let t = table();
        let dest = t.sample(0.73);
        let mut pos = t.sample(0.11);
        let total = t.travel_distance(pos, dest);
        let (moved, arrived) = drive(&t, &mut pos, dest, 7.0);
        assert!(arrived, "never arrived");
        assert_eq!(pos, dest, "arrival must be exact");
        assert!(
            (moved - total).abs() < 1e-6,
            "moved {moved} vs shortest {total}"
        );
    }

    #[test]
    fn same_lane_behind_loops_around() {
        let t = table();
        let dest = FleetPos { lane: 4, s: 10.0 };
        let mut pos = FleetPos { lane: 4, s: 30.0 };
        assert_eq!(
            t.path(dest, FleetPos { lane: 4, s: 30.0 }),
            Vec::<u32>::new()
        );
        let path = t.path(pos, dest);
        assert_eq!(path.last(), Some(&4), "the loop ends on the start lane");
        let total = t.travel_distance(pos, dest);
        let (moved, arrived) = drive(&t, &mut pos, dest, 5.0);
        assert!(arrived && pos == dest);
        assert!((moved - total).abs() < 1e-6, "moved {moved} vs {total}");
    }

    #[test]
    fn advance_zero_budget_is_a_no_op() {
        let t = table();
        let dest = t.sample(0.9);
        let mut pos = t.sample(0.4);
        let path = t.path(pos, dest);
        let before = pos;
        let mut hop = 0;
        let a = t.advance_with(&mut pos, dest, 0.0, &path, &mut hop);
        assert_eq!(pos, before);
        assert_eq!(hop, 0);
        assert_eq!(a.moved_m, 0.0);
        assert!(!a.arrived);
    }

    #[test]
    fn advance_already_there() {
        let t = table();
        let dest = t.sample(0.5);
        let mut pos = dest;
        let a = t.advance_with(&mut pos, dest, 3.0, &[], &mut 0);
        assert!(a.arrived);
        assert_eq!(a.moved_m, 0.0);
    }

    #[test]
    fn leg_search_matches_the_full_field_and_settles_less() {
        let t = RouteTable::new(&grid_network(12, 12, 80.0, 2.5, 8.0));
        let mut sc = RouteScratch::new();
        let mut path = Vec::new();
        for q in 0..200u32 {
            let from = t.sample(f64::from(q) * 0.618_033_988_7 % 1.0);
            let to = t.sample(f64::from(q) * 0.414_213_562_3 % 1.0);
            let field = t.field_to(to.lane);
            let d = t.route_path(from, to, &mut sc, &mut path);
            let want = t.travel_distance_with(from, to, &field);
            assert_eq!(d.to_bits(), want.to_bits(), "query {q}: {d} vs {want}");
            let mut want_path = Vec::new();
            t.path_with(from, to, &field, &mut want_path);
            assert_eq!(path, want_path, "query {q}");
        }
        let per_search = sc.settled_lanes() as f64 / sc.searches() as f64;
        assert!(
            per_search < 0.5 * t.len() as f64,
            "A* settled {per_search:.0} of {} lanes per leg",
            t.len()
        );
    }

    #[test]
    fn loop_map_distances() {
        // 100 × 50 loop: start(0) → start(2) is 100 + 50 = 150 m.
        let t = RouteTable::new(&rectangular_loop(100.0, 50.0, 2.5, 8.9));
        assert!((t.start_to_start(0, 2) - 150.0).abs() < 1e-9);
        assert!((t.start_to_start(2, 0) - 150.0).abs() < 1e-9);
        assert!((t.total_length_m() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn grid_bounds_and_gap() {
        let t = RouteTable::new(&grid_network(3, 4, 80.0, 2.5, 8.0));
        let b = t.bounds();
        assert_eq!((b.min_x, b.min_y), (0.0, 0.0));
        assert_eq!((b.max_x, b.max_y), (240.0, 160.0));
        // Grid lanes share exact node coordinates: the Euclidean
        // lower bound precondition holds with zero slack.
        assert_eq!(t.max_connection_gap_m(), 0.0);
    }

    #[test]
    fn large_grid_builds_fast_without_dense_matrix() {
        // 40×40 intersections → 6 240 lanes: the 0.9.0 dense build would
        // need a 6 240² matrix (≈ 311 MB) and an O(n³) scan. The sparse
        // build is O(V + E) and a handful of MB.
        let t = RouteTable::new(&grid_network(40, 40, 50.0, 2.5, 8.0));
        assert_eq!(t.len(), 6240);
        let field = t.field_to(17);
        assert_eq!(field.to_start(17), 0.0);
        assert!((0..t.len() as u32).all(|a| field.to_start(a).is_finite()));
    }

    #[test]
    fn cache_is_all_or_nothing() {
        let t = table(); // 24 lanes: every field together is 8 · 24² B
        let all = 8 * t.len() * t.len();
        assert!(!RouteCache::fits(&t, 0));
        assert!(!RouteCache::fits(&t, all - 1));
        assert!(RouteCache::fits(&t, all));
        assert!(RouteCache::fits(&t, usize::MAX));
        let (from, to) = (t.sample(0.2), t.sample(0.7));
        // Resident: the first query fills, the second hits.
        let mut c = RouteCache::new(&t, all);
        assert!(c.is_resident());
        let a = c.to(&t, to.lane).distance(&t, from, to);
        let b = c.to(&t, to.lane).distance(&t, from, to);
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
        assert_eq!(c.settled_lanes(), t.len() as u64);
        assert!(c.resident(to.lane).is_some());
        // Not resident: every query is a leg search, nothing is kept.
        let mut n = RouteCache::new(&t, all - 1);
        assert!(!n.is_resident());
        let c1 = n.to(&t, to.lane).distance(&t, from, to);
        let c2 = n.to(&t, to.lane).distance(&t, from, to);
        assert_eq!((n.hits(), n.misses(), n.len()), (0, 2, 0));
        assert!(n.resident(to.lane).is_none());
        assert!(n.settled_lanes() > 0);
        for d in [b, c1, c2] {
            assert_eq!(d.to_bits(), a.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_map_rejected() {
        let _ = RouteTable::new(&LaneMap::new());
    }

    #[test]
    #[should_panic(expected = "strongly connected")]
    fn disconnected_map_rejected() {
        use sov_world::map::Lane;
        let mut map = LaneMap::new();
        for i in 0..2 {
            map.insert(
                Lane::new(
                    LaneId(i),
                    vec![(0.0, f64::from(i)), (10.0, f64::from(i))],
                    2.0,
                    5.0,
                )
                .expect("valid"),
            );
        }
        // No connections at all: nothing reachable from anything.
        let _ = RouteTable::new(&map);
    }
}
